"""Acceptance gate: one test per advertised guarantee, at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.
"""

import time

import numpy as np
import pytest

from loccsim.convert import splitting_bound, splitting_cuts, vidal_probability
from loccsim.invariants import PartyTensor, cp_rank_probe, slocc_class, three_tangle
from loccsim.prebuilt import (
    bipartite_catalysis_pair,
    ghz_to_epr,
    intro_teleport,
    prop3,
    prop3_input,
    prop3_target,
    tripartite_catalysis_pair,
)
from loccsim.convert import catalysis_verdict
from loccsim.states import (
    Register,
    apply_site_ops,
    ghz,
    ghz_class,
    schmidt,
    w_state,
)

GRID = (1 / 3, 0.36, 0.40, 0.45, 0.49)
ABC = Register.of([(1, "A"), (2, "B"), (3, "C")])


def test_criterion_01_conversion_probability_on_grid():
    start = time.perf_counter()
    for a in GRID:
        result = prop3(a).run()
        assert result.success_probability == pytest.approx(2 * a, abs=1e-12)
        failure = sum(
            leaf.prob for leaf in result.leaves() if leaf.status == "failure"
        )
        assert failure == pytest.approx(1 - 2 * a, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"grid took {elapsed:.3f}s"
    print(f"criterion 1 PASS: engine matches 2a on {len(GRID)} weights "
          f"({elapsed * 1e3:.0f} ms)")


def test_criterion_02_per_cut_bounds():
    for a in GRID:
        bound = splitting_bound(prop3_input(a), prop3_target())
        assert bound.per_cut["AB|C"] == pytest.approx(1.0, abs=1e-9)
        assert bound.per_cut["A|BC"] == pytest.approx(2 * a, abs=1e-9)
        assert bound.per_cut["AC|B"] == pytest.approx(1.0, abs=1e-9)
        assert bound.bound == pytest.approx(2 * a, abs=1e-9)
    print("criterion 2 PASS: per-cut bounds are {1, 2a, 1} with minimum 2a")


def test_criterion_03_protocol_achieves_bound():
    for a in GRID:
        p = prop3(a).run().success_probability
        bound = splitting_bound(prop3_input(a), prop3_target()).bound
        assert p == pytest.approx(bound, abs=1e-9)
    print("criterion 3 PASS: engine probability meets the splitting bound")


def test_criterion_04_pair_catalyst_verdict():
    source, target = bipartite_catalysis_pair()
    verdict = catalysis_verdict(source, target)
    assert verdict.feasible == "impossible"
    ranks = {p: (s, t) for p, s, t in verdict.party_ranks}
    assert ranks == {"A": (2, 2), "B": (4, 4), "C": (4, 4)}
    ob = verdict.product_term_obstruction
    assert ob is not None
    assert ob.source_terms == 6
    assert ob.target_terms == 4

    # independent probes: the found counts converge, one step below does not
    src_tensor = PartyTensor.from_state(source)
    dst_tensor = PartyTensor.from_state(target)
    src_probe_6 = cp_rank_probe(src_tensor, 6)
    src_probe_5 = cp_rank_probe(src_tensor, 5)
    dst_probe_4 = cp_rank_probe(dst_tensor, 4)
    dst_probe_3 = cp_rank_probe(dst_tensor, 3)
    assert src_probe_6.converged
    assert not src_probe_5.converged
    assert dst_probe_4.converged
    assert not dst_probe_3.converged
    print("criterion 4 PASS: ranks (2,4,4) both sides, 6 vs 4 product terms; "
          "probes converge exactly at the found counts")


def test_criterion_05_triple_catalyst_verdicts():
    for catalyst in ("w", "ghz"):
        source, target = tripartite_catalysis_pair(catalyst)
        verdict = catalysis_verdict(source, target)
        assert verdict.feasible == "impossible"
        for _p, s, t in verdict.party_ranks:
            assert s == 4 and t == 4
        ob = verdict.product_term_obstruction
        assert ob is not None
        assert ob.source_terms != ob.target_terms
        assert ob.source_terms > ob.target_terms
    print("criterion 5 PASS: both triple-catalyst pairs have equal ranks and "
          "strictly larger source term counts")


def test_criterion_06_teleport_showcase():
    prepared = intro_teleport()
    result = prepared.run()
    assert result.success_probability == pytest.approx(2 / 3, abs=1e-12)
    target = prepared.protocol.target.state
    for leaf in result.leaves():
        if leaf.status == "success":
            assert abs(leaf.state.overlap(target)) > 1 - 1e-9
    print("criterion 6 PASS: teleport showcase succeeds with 2/3 and exact "
          "final state")


def test_criterion_07_ghz_to_epr():
    result = ghz_to_epr().run()
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)
    leaves = result.leaves()
    assert len(leaves) == 2
    for leaf in leaves:
        assert leaf.status == "success"
        coeffs = schmidt(leaf.state, ["B"])
        assert np.allclose(coeffs, [0.5, 0.5], atol=1e-12)
    print("criterion 7 PASS: both X outcomes yield a balanced pair, total "
          "probability 1")


def _bounded_invertible(rng):
    # built as u @ diag(s) @ v with singular-value ratio < 10
    z1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    z2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(z1)
    v, _ = np.linalg.qr(z2)
    s = np.array([1.0, rng.uniform(0.11, 1.0)])
    return u @ np.diag(s) @ v


def _haar_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_criterion_08_class_and_tangle_invariance():
    rng = np.random.default_rng(0xACCE)
    start = time.perf_counter()

    bases = (w_state(ABC), ghz(ABC))
    for i in range(1000):
        base = bases[i % 2]
        expect = "w-class" if i % 2 == 0 else "ghz-class"
        ops = {site: _bounded_invertible(rng) for site in (1, 2, 3)}
        moved = apply_site_ops(base, ops)
        assert slocc_class(moved).label == expect

    for i in range(1000):
        if i % 2 == 0:
            base = ghz(ABC)
        else:
            base = ghz_class(
                rng.uniform(0.2, np.pi / 2 - 0.2),
                rng.uniform(0, 2 * np.pi),
                rng.uniform(0.1, np.pi / 2 - 0.1),
                rng.uniform(0.1, np.pi / 2 - 0.1),
                rng.uniform(0.1, np.pi / 2 - 0.1),
                ABC,
            )
        before = three_tangle(base)
        ops = {site: _haar_unitary(rng) for site in (1, 2, 3)}
        after = three_tangle(apply_site_ops(base, ops))
        assert after == pytest.approx(before, abs=1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"invariance sweep took {elapsed:.1f}s"
    print(f"criterion 8 PASS: 1000 invertible ops preserve the class label and "
          f"1000 local unitaries preserve the tangle ({elapsed:.1f}s)")


def test_criterion_09_single_cut_probability():
    rng = np.random.default_rng(0x09)
    for _ in range(500):
        n = rng.integers(2, 6)
        alpha = rng.dirichlet(np.ones(n))
        assert vidal_probability(alpha, alpha) == pytest.approx(1.0, abs=1e-12)
        beta = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
        p = vidal_probability(alpha, beta)
        assert -1e-12 <= p <= 1 + 1e-12

    # closed forms for the pair-assisted conversion's three cuts
    for a in GRID:
        half = (1 - 2 * a) / 2
        assert vidal_probability(
            [a, a, half, half], [0.5, 0.5, 0.0, 0.0]
        ) == pytest.approx(1.0, abs=1e-12)
        assert vidal_probability(
            [1 - a, a], [0.5, 0.5]
        ) == pytest.approx(2 * a, abs=1e-12)
        assert vidal_probability(
            [(1 - a) / 2, (1 - a) / 2, a / 2, a / 2], [0.5, 0.5, 0.0, 0.0]
        ) == pytest.approx(1.0, abs=1e-12)
    print("criterion 9 PASS: single-cut probability is exact on 500 random "
          "spectra and the closed forms")
