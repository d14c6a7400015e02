import dataclasses
import json
import multiprocessing
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loccsim import invariants
from loccsim.convert import (
    CatalysisVerdict,
    PartyRank,
    ProductTermObstruction,
    RankObstruction,
    catalysis_verdict,
    splitting_bound,
)
from loccsim.errors import CapExceeded, ConstraintViolation, WrongArity
from loccsim.invariants import (
    PartyTensor,
    ProbeConfig,
    ProductTermEstimate,
    RankProbeResult,
    SloccClass,
    cp_rank_probe,
    flattening_ranks,
    product_term_estimate,
    proven_lower_bound,
    slocc_class,
    three_tangle,
)
from loccsim.prebuilt import bipartite_catalysis_pair, prop3, tripartite_catalysis_pair
from loccsim.states import (
    PureState,
    Register,
    _rank,
    _sig12,
    _unfold,
    apply_site_ops,
    computational,
    epr,
    ghz,
    ghz_class,
    reduced_density_sites,
    tensor,
    w_family,
    w_state,
)

ABC = Register.of([(1, "A"), (2, "B"), (3, "C")])
DEF = Register.of([(4, "A"), (5, "B"), (6, "C")])
W_EPR, GHZ_EPR = bipartite_catalysis_pair()
W_W, GHZ_W = tripartite_catalysis_pair("w")
W_GHZ, GHZ_GHZ = tripartite_catalysis_pair("ghz")


def _near_ghz(eps: float, register=ABC) -> PureState:
    # |+00> + |φ11> with φ at angle π/4 + eps: GHZ class with two product
    # terms, whose pencil eigenvalues and algebra characters lie ~eps apart
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    phi = np.array([np.cos(np.pi / 4 + eps), np.sin(np.pi / 4 + eps)])
    v = np.kron(plus, [1.0, 0, 0, 0]) + np.kron(phi, [0, 0, 0, 1.0])
    return PureState(register, v / np.linalg.norm(v))


def _structure_tensor(c: np.ndarray) -> PartyTensor:
    # c[i, j, k]: the coefficient of basis element k in the product of i and j
    return PartyTensor(("A", "B", "C"), c / np.linalg.norm(c))


def _monomial_algebra(monomials, relations=()) -> np.ndarray:
    # structure constants of a commutative algebra with the given basis of
    # exponent tuples; a product outside the basis (or in `relations`) is 0
    index = {m: i for i, m in enumerate(monomials)}
    c = np.zeros((len(monomials),) * 3)
    for i, p in enumerate(monomials):
        for j, q in enumerate(monomials):
            prod = tuple(a + b for a, b in zip(p, q))
            if prod in index and prod not in relations:
                c[i, j, index[prod]] = 1.0
    return c


CUBIC = _monomial_algebra([(0,), (1,), (2,)])  # C[x]/(x³)
QUARTIC = _monomial_algebra([(0,), (1,), (2,), (3,)])  # C[x]/(x⁴): N² = ⟨x², x³⟩
SQUARE_ZERO = _monomial_algebra([(0, 0), (1, 0), (0, 1)])  # C[x, y]/(x, y)²: N² = 0
# C[x, y]/(x², xy, y³): N² = ⟨y²⟩, but x is in the kernel of the form on N/N²
DEGENERATE_FORM = _monomial_algebra([(0, 0), (1, 0), (0, 1), (0, 2)])


def _two_jordan_pencil() -> PartyTensor:
    # the 2 x 4 x 4 pencil (I, J₂(0) ⊕ J₂(1)): Ja'Ja' proves 5 terms, and with
    # two defective eigenvalues the exact fit does not meet them, so rank 5 runs ALS
    j = np.zeros((4, 4))
    j[0, 1] = j[2, 2] = j[2, 3] = j[3, 3] = 1.0
    return _structure_tensor(np.stack([np.eye(4), j]))


PENCIL = _two_jordan_pencil()


def random_state(rng, register=ABC):
    v = rng.normal(size=register.dim) + 1j * rng.normal(size=register.dim)
    return PureState(register, v / np.linalg.norm(v))


def haar_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bounded_invertible(rng, cond_cap=10.0, dim=2):
    """Random invertible dim x dim with condition number below the cap."""
    while True:
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if np.linalg.cond(m) < cond_cap:
            return m


def tangle_oracle(s: PureState) -> float:
    """Independent route: the degree-4 invariant written out monomially."""
    t = s.tensor_view()
    d1 = (
        t[0, 0, 0] ** 2 * t[1, 1, 1] ** 2
        + t[0, 0, 1] ** 2 * t[1, 1, 0] ** 2
        + t[0, 1, 0] ** 2 * t[1, 0, 1] ** 2
        + t[1, 0, 0] ** 2 * t[0, 1, 1] ** 2
    )
    d2 = (
        t[0, 0, 0] * t[1, 1, 1] * t[0, 1, 1] * t[1, 0, 0]
        + t[0, 0, 0] * t[1, 1, 1] * t[1, 0, 1] * t[0, 1, 0]
        + t[0, 0, 0] * t[1, 1, 1] * t[1, 1, 0] * t[0, 0, 1]
        + t[0, 1, 1] * t[1, 0, 0] * t[1, 0, 1] * t[0, 1, 0]
        + t[0, 1, 1] * t[1, 0, 0] * t[1, 1, 0] * t[0, 0, 1]
        + t[1, 0, 1] * t[0, 1, 0] * t[1, 1, 0] * t[0, 0, 1]
    )
    d3 = (
        t[0, 0, 0] * t[1, 1, 0] * t[1, 0, 1] * t[0, 1, 1]
        + t[1, 1, 1] * t[0, 0, 1] * t[0, 1, 0] * t[1, 0, 0]
    )
    return float(4 * abs(d1 - 2 * d2 + 4 * d3))


# ---------------------------------------------------------------------------
# party tensors and flattening ranks


def test_party_tensor_groups_sites():
    src, _unused = bipartite_catalysis_pair()
    t = PartyTensor.from_state(src)
    assert t.parties == ("A", "B", "C")
    assert t.shape == (2, 4, 4)
    assert t.size == 32


def test_party_tensor_three_qubits():
    t = PartyTensor.from_state(ghz(ABC))
    assert t.shape == (2, 2, 2)
    assert np.allclose(t.data.reshape(-1), ghz(ABC).amplitudes)


def test_party_tensor_rejects_a_nan_norm():
    # a NaN norm fails the norm check, before the SVDs of the ranks
    with pytest.raises(ConstraintViolation, match="norm"):
        PartyTensor(("A", "B"), np.full((2, 2), np.nan))


def test_flattening_ranks_match_reduced_densities():
    src, dst = bipartite_catalysis_pair()
    for s in (src, dst):
        ranks = flattening_ranks(PartyTensor.from_state(s))
        # the singular values are the square roots of a reduced density's eigenvalues
        direct = []
        for p in ("A", "B", "C"):
            eigenvalues = np.linalg.eigvalsh(reduced_density_sites(s, s.register.sites_of([p])).matrix)
            direct.append(_rank(np.sqrt(np.clip(eigenvalues, 0, None))))
        assert ranks == tuple(direct) == (2, 4, 4)


@pytest.mark.parametrize("shape, calls", [((2, 2, 2), 1), ((4, 4, 4), 1), ((2, 4, 4), 2)], ids=["2x2x2", "4x4x4", "2x4x4"])
def test_flattening_ranks_take_one_svd_per_unfolding_shape(shape, calls, monkeypatch):
    rng = np.random.default_rng(5)
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    t = PartyTensor(("A", "B", "C"), data / np.linalg.norm(data))
    svd, seen = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(a.shape) or svd(a, **kw))
    ranks = flattening_ranks(t)
    assert len(seen) == calls
    # each rank as one SVD of its own matricization gives it
    assert ranks == tuple(_rank(svd(_unfold(t.data, (m,)), compute_uv=False)) for m in range(3)) == shape


def test_flattening_ranks_product_state():
    assert flattening_ranks(PartyTensor.from_state(computational(ABC, "000"))) == (1, 1, 1)


# ---------------------------------------------------------------------------
# the degree-4 invariant


def test_tangle_extremes():
    assert three_tangle(ghz(ABC)) == pytest.approx(1.0, abs=1e-12)
    assert three_tangle(w_state(ABC)) == pytest.approx(0.0, abs=1e-12)


def test_tangle_w_family_vanishes():
    assert three_tangle(w_family(0.4, 0.3, 0.2, 0.1, ABC)) == pytest.approx(0.0, abs=1e-10)


def test_tangle_agrees_with_monomial_oracle():
    rng = np.random.default_rng(17)
    for _ in range(200):
        s = random_state(rng)
        assert three_tangle(s) == pytest.approx(tangle_oracle(s), abs=1e-12)
    # states with a zero slice along each axis, where a determinant vanishes
    for axis in range(3):
        for k in range(2):
            for _ in range(20):
                t = random_state(rng).tensor_view().copy()
                np.moveaxis(t, axis, 0)[k] = 0.0
                s = PureState(ABC, t.reshape(-1) / np.linalg.norm(t))
                assert three_tangle(s) == pytest.approx(tangle_oracle(s), abs=1e-12)


def test_tangle_unitary_invariance():
    rng = np.random.default_rng(29)
    s = ghz_class(0.5, 0.9, 0.2, 0.4, 0.6, ABC)
    base = three_tangle(s)
    for _ in range(50):
        ops = {site: haar_unitary(rng) for site in (1, 2, 3)}
        assert three_tangle(apply_site_ops(s, ops)) == pytest.approx(base, abs=1e-9)


def test_tangle_arity_checks():
    with pytest.raises(WrongArity):
        three_tangle(epr(Register.of([(1, "A"), (2, "B")])))
    with pytest.raises(WrongArity):
        three_tangle(ghz(Register.of([(1, "A"), (2, "A"), (3, "B")])))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_tangle_bounded(seed):
    s = random_state(np.random.default_rng(seed))
    assert 0.0 <= three_tangle(s) <= 1.0


# ---------------------------------------------------------------------------
# classification


def test_class_labels():
    assert slocc_class(computational(ABC, "000")).label == "product"
    assert slocc_class(ghz(ABC)).label == "ghz-class"
    assert slocc_class(w_state(ABC)).label == "w-class"
    assert slocc_class(w_family(0.3, 0.3, 0.2, 0.2, ABC)).label == "w-class"
    assert slocc_class(ghz_class(0.4, 1.0, 0.3, 0.2, 0.1, ABC)).label == "ghz-class"


def test_class_biseparable():
    for site, party in ((1, "A"), (2, "B"), (3, "C")):
        rest = [x for x in (1, 2, 3) if x != site]
        pair = PureState(
            ABC.without([x for x in (1, 2, 3) if x not in rest]),
            np.array([1, 0, 0, 1]) / np.sqrt(2),
        )
        single = computational(Register.of([(site, party)]), "0")
        s = tensor(single, pair).permuted((1, 2, 3))
        assert slocc_class(s).label == f"biseparable-{party}"


def test_class_invariant_under_invertible_ops():
    rng = np.random.default_rng(41)
    for base, label in ((w_state(ABC), "w-class"), (ghz(ABC), "ghz-class")):
        for _ in range(50):
            ops = {site: bounded_invertible(rng) for site in (1, 2, 3)}
            assert slocc_class(apply_site_ops(base, ops)).label == label


def test_class_serialization():
    doc = slocc_class(ghz(ABC)).to_dict()
    assert doc["label"] == "ghz-class"
    assert doc["ranks"] == [2, 2, 2]
    assert "class_tol" in doc


# ---------------------------------------------------------------------------
# rank probes (three-qubit cases; the five-qubit instances run in the
# acceptance suite)


def test_probe_flat_pair_structure():
    t = PartyTensor.from_state(ghz(ABC))
    r1 = cp_rank_probe(t, 1)
    r2 = cp_rank_probe(t, 2)
    assert not r1.converged
    assert r2.converged
    assert r2.best_residual < 1e-8


def test_probe_w_border_rank_gap():
    # the symmetric state sits at distance ~4.5e-3 from every two-term
    # tensor reachable by bounded factors; three terms fit exactly
    t = PartyTensor.from_state(w_state(ABC))
    r2 = cp_rank_probe(t, 2)
    r3 = cp_rank_probe(t, 3)
    assert not r2.converged
    assert r2.best_residual > 1e-4
    assert r3.converged


def test_probe_deterministic():
    t = PartyTensor.from_state(w_state(ABC))
    a = cp_rank_probe(t, 2)
    b = cp_rank_probe(t, 2)
    assert a.best_residual == b.best_residual
    c = cp_rank_probe(t, 2, ProbeConfig(seed=1234))
    assert c.best_residual != a.best_residual  # different draw, different swamp


def test_probe_residual_monotone_in_rank():
    t = PartyTensor.from_state(w_state(ABC))
    residuals = [cp_rank_probe(t, r).best_residual for r in (1, 2, 3, 4)]
    for lo, hi in zip(residuals[1:], residuals[:-1]):
        assert lo <= hi + 1e-10


def test_probe_result_serialization():
    t = PartyTensor.from_state(ghz(ABC))
    probe = cp_rank_probe(t, 2)
    doc = probe.to_dict()
    assert doc["tested_rank"] == 2
    assert doc["converged"] is True
    assert doc["config"] == {"restarts": 32, "max_iters": 2000, "seed": 0x5EED}
    assert "restarts" not in doc and "seed" not in doc
    assert (doc["stop_reason"], doc["sweeps"]) == (probe.stop_reason, probe.sweeps)


def test_probe_stops_once_converged():
    # the best restart reaches its floor and stalls long before the cap
    t = PartyTensor.from_state(ghz(ABC))
    probe = cp_rank_probe(t, 2)
    assert probe.converged
    assert probe.stop_reason == "converged"
    assert probe.sweeps < probe.config.max_iters


def test_probe_non_converging_runs_on():
    # the early stop needs a converged restart, so a border-rank swamp keeps
    # sweeping; its residual is pinned to guard the sweep's arithmetic
    t = PartyTensor.from_state(w_state(ABC))
    probe = cp_rank_probe(t, 2)
    assert not probe.converged
    assert probe.stop_reason in ("cap", "stalled")
    assert probe.best_residual == pytest.approx(0.004474859319990208, rel=1e-6)


@pytest.mark.parametrize(
    "state, rank, config, residual, stop_reason, sweeps",
    [
        (W_W, 6, ProbeConfig(max_iters=300), 7.899280298063197e-03, "cap", 300),
        (W_W, 7, None, 1.195893683650511e-11, "converged", 504),
        (W_EPR, 6, None, 6.306312197114021e-12, "converged", 165),
        (w_state(ABC), 2, None, 4.474859319990208e-03, "cap", 2000),
        (w_state(ABC), 3, None, 1.4777934282441172e-12, "converged", 111),
    ],
    ids=["w-w-r6", "w-w-r7", "w-epr-r6", "w-r2", "w-r3"],
)
def test_probe_table_at_the_default_seed(state, rank, config, residual, stop_reason, sweeps):
    # pins the sweep's arithmetic and stop rule, whatever layout the factors take
    probe = cp_rank_probe(PartyTensor.from_state(state), rank, config)
    assert (probe.stop_reason, probe.sweeps) == (stop_reason, sweeps)
    assert probe.best_residual == pytest.approx(residual, rel=1e-9)
    assert probe.config == (config or ProbeConfig())


@pytest.mark.parametrize(
    "state, rank, max_iters", [(ghz(ABC), 2, 50), (w_state(ABC), 3, 100)], ids=["ghz-r2", "w-r3"]
)
def test_a_probe_capped_below_fit_tol_reads_converged(state, rank, max_iters):
    # the best restart reached its floor before the stall window ran out
    probe = cp_rank_probe(PartyTensor.from_state(state), rank, ProbeConfig(max_iters=max_iters))
    assert probe.best_residual < invariants.FIT_TOL
    assert (probe.converged, probe.stop_reason, probe.sweeps) == (True, "converged", max_iters)


def test_only_an_als_entry_carries_a_config():
    est = product_term_estimate(PartyTensor.from_state(W_EPR))
    entries = [(p.tested_rank, p.stop_reason, p.config) for p in est.probes]
    assert entries == [(4, "excluded", None), (5, "excluded", None), (6, "exact", None)]
    for probe in est.probes:
        doc = probe.to_dict()
        assert doc["config"] is None and not {"seed", "restarts"} & doc.keys()
    cfg = ProbeConfig(seed=7)
    excluded, als = product_term_estimate(PENCIL, cfg).probes
    assert (excluded.config, als.tested_rank, als.stop_reason, als.config) == (None, 5, "converged", cfg)


def test_estimate_w_and_flat_pair():
    est_w = product_term_estimate(PartyTensor.from_state(w_state(ABC)))
    assert est_w.terms == 3
    assert est_w.flattening_lower_bound == 2
    assert (est_w.lower_bound, est_w.lower_bound_rule) == (3, "pencil")
    assert not est_w.heuristic  # the pencil rule proves the count

    est_g = product_term_estimate(PartyTensor.from_state(ghz(ABC)))
    assert est_g.terms == 2
    assert not est_g.heuristic  # matches the flattening bound exactly


def test_estimate_product_state():
    est = product_term_estimate(PartyTensor.from_state(computational(ABC, "000")))
    assert est.terms == 1
    assert not est.heuristic


def _recording_probe(monkeypatch) -> list[int]:
    called = []

    def recording(t, r, cfg=None):
        called.append(r)
        return cp_rank_probe(t, r, cfg)

    monkeypatch.setattr(invariants, "cp_rank_probe", recording)
    return called


def test_estimate_leaves_no_process(monkeypatch):
    # every fit runs in this process, also on a scan that ends in CapExceeded
    product_term_estimate(PENCIL)
    monkeypatch.setattr(invariants, "FIT_TOL", 1e-30)
    with pytest.raises(CapExceeded, match="up to rank 8"):
        product_term_estimate(PartyTensor.from_state(ghz(ABC)), ProbeConfig(max_iters=50))
    assert multiprocessing.active_children() == []


def test_estimate_probes_match_direct_probes():
    est = product_term_estimate(PENCIL)
    excluded = [(p.tested_rank, p.stop_reason, p.best_residual, p.converged, p.sweeps) for p in est.probes[:-1]]
    assert excluded == [(4, "excluded", float("inf"), False, 0)]
    assert (est.terms, est.lower_bound_rule) == (5, "pencil")
    assert est.probes[-1] == cp_rank_probe(PENCIL, 5)
    assert est.probes[-1].stop_reason == "converged"


def test_estimate_calls_a_replaced_probe_in_process(monkeypatch):
    called = _recording_probe(monkeypatch)
    est = product_term_estimate(PENCIL)
    # the rank below the Ja'Ja' bound runs no fit, and the exact fit leaves
    # the bound itself to ALS
    assert called == [5] and est.terms == 5


def test_estimate_falls_back_to_als_when_the_exact_fit_misses_fit_tol(monkeypatch):
    called = _recording_probe(monkeypatch)
    monkeypatch.setattr(invariants, "FIT_TOL", 1e-30)
    with pytest.raises(CapExceeded):
        product_term_estimate(PartyTensor.from_state(ghz(ABC)), ProbeConfig(max_iters=50))
    # the scan runs on to the number of tensor entries
    assert called == [2, 3, 4, 5, 6, 7, 8]


def test_exact_entry_mends_the_catalyst_count():
    # the rank-4 probe of this catalyst's GHZ side hit the cap, so a scan
    # from the flattening bound reported 5 terms
    cat = ghz_class(1.024503, 4.847645, 0.766858, 0.514382, 0.259324, DEF)
    verdict = catalysis_verdict(tensor(w_state(ABC), cat), tensor(ghz(ABC), cat))
    assert verdict.feasible == "impossible"
    ob = verdict.product_term_obstruction
    assert (ob.source_terms, ob.target_terms, ob.heuristic) == (6, 4, False)
    est = product_term_estimate(PartyTensor.from_state(tensor(ghz(ABC), cat)))
    (exact,) = est.probes
    assert (exact.tested_rank, exact.stop_reason, exact.sweeps, exact.converged) == (4, "exact", 0, True)
    assert exact.best_residual < 1e-12


def test_w_w_count_is_exact_with_no_probe(monkeypatch):
    called = _recording_probe(monkeypatch)
    est = product_term_estimate(PartyTensor.from_state(W_W))
    assert [(p.tested_rank, p.stop_reason) for p in est.probes[:-1]] == [(r, "excluded") for r in (4, 5, 6)]
    exact = est.probes[-1]
    assert (exact.tested_rank, exact.stop_reason, exact.sweeps, exact.converged) == (7, "exact", 0, True)
    assert exact.best_residual < 1e-12
    assert (est.terms, est.heuristic) == (7, False) and called == []
    # w comes from the analysis's own seeded draws, so a rerun repeats the residual
    assert product_term_estimate(PartyTensor.from_state(W_W)) == est


def test_exact_fit_meets_the_bound_on_a_truncated_polynomial_algebra(monkeypatch):
    # C[x]/(x³): one local factor of dimension 3, so 2·3 - 1 terms
    called = _recording_probe(monkeypatch)
    est = product_term_estimate(_structure_tensor(CUBIC))
    assert (est.terms, est.heuristic, est.lower_bound_rule) == (5, False, "alder-strassen")
    exact = est.probes[-1]
    assert (exact.tested_rank, exact.stop_reason, exact.sweeps) == (5, "exact", 0)
    assert exact.best_residual < 1e-12 and called == []


def test_w_w_keeps_its_exact_entry_under_invertible_local_maps(monkeypatch):
    called = _recording_probe(monkeypatch)
    rng = np.random.default_rng(1707)
    base = PartyTensor.from_state(W_W)
    for _ in range(10):
        ops = [bounded_invertible(rng, cond_cap=30.0, dim=4) for _ in range(3)]
        v = np.einsum("ia,jb,kc,abc->ijk", *ops, base.data)
        est = product_term_estimate(PartyTensor(base.parties, v / np.linalg.norm(v)))
        exact = est.probes[-1]
        assert (est.terms, exact.tested_rank, exact.stop_reason) == (7, 7, "exact")
        assert exact.best_residual < invariants.FIT_TOL
    assert called == []


@pytest.mark.parametrize(
    "slices",
    [
        np.stack([np.eye(2), np.eye(2, k=1)]),  # C[x]/(x²): dimension 2
        np.stack([np.eye(3), np.eye(3, k=1)]),  # a pencil's 3-long Jordan block spans 2 dimensions
        np.transpose(QUARTIC, (0, 2, 1)),
        np.transpose(SQUARE_ZERO, (0, 2, 1)),
        np.transpose(DEGENERATE_FORM, (0, 2, 1)),
        np.zeros((3, 3, 3)),
    ],
    ids=["dual-numbers", "jordan-pencil", "quartic", "square-zero", "degenerate-form", "zero"],
)
def test_local_algebra_fit_declines_where_it_does_not_apply(slices):
    # its regular representation (or pencil) is the block; no warning, no error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert invariants._local_algebra_fit(slices.astype(complex), np.random.default_rng(0)) is None


def test_exact_fit_declines_an_algebra_the_recipe_does_not_cover():
    # C[x]/(x⁴) has its Alder-Strassen bound proven, but N³ != 0; the other two
    # algebras above have no cyclic vector for these slices, so no bound to fit
    t = _structure_tensor(QUARTIC)
    bound, rule, analysis = invariants._proof(t)
    assert (bound, rule) == (7, "alder-strassen")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert invariants._exact_fit(t, bound, analysis) is None


def _w_catalyst_counts(cat: PureState, monkeypatch) -> tuple:
    called = _recording_probe(monkeypatch)
    ob = catalysis_verdict(tensor(w_state(ABC), cat), tensor(ghz(ABC), cat)).product_term_obstruction
    return ob.source_terms, ob.target_terms, ob.heuristic, called


@pytest.mark.parametrize("a, b, c", [(0.024686, 0.355251, 0.525734), (0.017446, 0.30193, 0.328856)])
def test_w_class_catalysts_the_probe_overcounted(a, b, c, monkeypatch):
    # the rank-7 probe of these W sides failed, so a probe-only scan counted 8 and 10
    assert _w_catalyst_counts(w_family(a, b, c, 1 - a - b - c, DEF), monkeypatch) == (7, 6, False, [])


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(weights=st.tuples(*[st.floats(0.01, 1.0)] * 3, st.floats(0.0, 1.0)))
def test_w_class_catalysts_have_exact_counts(weights, monkeypatch):
    a, b, c, d = np.array(weights) / sum(weights)
    assert _w_catalyst_counts(w_family(a, b, c, d, DEF), monkeypatch) == (7, 6, False, [])


# ---------------------------------------------------------------------------
# proven lower bounds


@pytest.mark.parametrize(
    "state, bound",
    [(w_state(ABC), 3), (ghz(ABC), 2), (W_EPR, 6), (GHZ_EPR, 4), (_near_ghz(1e-3), 2)],
    ids=["W", "GHZ", "W+EPR", "GHZ+EPR", "near-GHZ"],
)
def test_pencil_bound(state, bound):
    assert proven_lower_bound(PartyTensor.from_state(state)) == (bound, "pencil")


@pytest.mark.parametrize(
    "state, bound",
    [
        (W_W, 7),
        (GHZ_W, 6),
        (W_GHZ, 6),
        (GHZ_GHZ, 4),
        # the catalyst's two characters lie ~1e-3 apart
        (tensor(ghz(ABC), _near_ghz(1e-3, DEF)), 4),
        (tensor(w_state(ABC), _near_ghz(1e-3, DEF)), 6),
    ],
    ids=["W+W", "GHZ+W", "W+GHZ", "GHZ+GHZ", "GHZ+near-GHZ", "W+near-GHZ"],
)
def test_algebra_bound(state, bound):
    t = PartyTensor.from_state(state)
    assert proven_lower_bound(t) == (bound, "alder-strassen")
    est = product_term_estimate(t)
    assert (est.terms, est.heuristic, est.lower_bound_rule) == (bound, False, "alder-strassen")


def test_rules_decline_a_random_tensor_and_a_singular_pencil():
    rng = np.random.default_rng(1401)
    v = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    random_cube = PartyTensor(("A", "B", "C"), v / np.linalg.norm(v))
    # no combination of these slices is invertible: their last rows vanish
    v = np.zeros((2, 3, 3))
    v[0, 0, 0] = v[0, 1, 2] = v[1, 1, 1] = 1.0
    singular = PartyTensor(("A", "B", "C"), v / np.linalg.norm(v))
    assert proven_lower_bound(random_cube) == (4, "flattening")
    assert proven_lower_bound(singular) == (3, "flattening")


def test_eigen_structure_reads_jordan_blocks_and_declines_unclear_gaps():
    jordan = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    structure = invariants._eigen_structure(jordan)
    assert [(size, longer) for _, size, longer in structure] == [(2, 1), (1, 0)]
    assert np.allclose([lam for lam, *_ in structure], [1.0, 2.0])
    # a gap of 1e-3 is two eigenvalues, with no Jordan block between them
    assert [longer for *_, longer in invariants._eigen_structure(np.diag([1.0, 1.0 + 1e-3]))] == [0, 0]
    # a gap of 1e-7 is neither clearly one eigenvalue nor clearly two
    assert invariants._eigen_structure(np.diag([1.0, 1.0 + 1e-7])) is None


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 3e-4])
def test_near_degenerate_ghz_class_state_has_two_proven_terms(eps):
    # the pencil's eigenvalues lie ~eps apart and form no Jordan block, so
    # the count is GHZ's and the verdict excludes nothing
    est = product_term_estimate(PartyTensor.from_state(_near_ghz(eps)))
    assert (est.terms, est.heuristic, est.lower_bound_rule) == (2, False, "pencil")
    assert catalysis_verdict(_near_ghz(eps), ghz(ABC)).feasible == "undetermined"


@pytest.mark.parametrize("eps", np.logspace(-1, -9, 17))
def test_bounds_never_overstate_a_near_degenerate_state(eps):
    # where the Jordan structure is not clear-cut a rule declines
    assert proven_lower_bound(PartyTensor.from_state(_near_ghz(eps)))[0] <= 2
    for triple, terms in ((ghz(ABC), 4), (w_state(ABC), 6)):
        t = PartyTensor.from_state(tensor(triple, _near_ghz(eps, DEF)))
        assert proven_lower_bound(t)[0] <= terms


@pytest.mark.parametrize("state", [w_state(ABC), W_EPR, GHZ_GHZ], ids=["W", "W+EPR", "GHZ+GHZ"])
def test_a_scan_decides_its_slice_analysis_once(state, monkeypatch):
    # the bound rules and the exact fit read one analysis: one draw of the
    # normalized slices, one eigenvalue structure, one set of flattening ranks
    calls = {}
    for name in ("_normalized_slices", "_eigen_structure", "flattening_ranks"):
        def counting(*args, _name=name, _real=getattr(invariants, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(invariants, name, counting)
    product_term_estimate(PartyTensor.from_state(state))
    assert calls == {"_normalized_slices": 1, "_eigen_structure": 1, "flattening_ranks": 1}


def test_the_bundled_verdicts_decompose_each_matrix_once(monkeypatch):
    # a rank is read from the SVD that also gives the vectors the next step
    # uses, so no matrix is decomposed twice for its rank
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for source, target in (bipartite_catalysis_pair(), tripartite_catalysis_pair("w"), tripartite_catalysis_pair("ghz")):
        catalysis_verdict(source, target)
    assert len(calls) <= 97


@pytest.mark.parametrize(
    "theta",
    [
        0.1, 0.05, 0.03, 0.01,
        pytest.param(0.003, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 15: the flattening ranks drop to 1 and the verdict reads impossible",
        )),
    ],
)
def test_near_w_ghz_class_states_stay_undetermined_against_ghz(theta):
    # GHZ class for every theta > 0, with two product terms as GHZ has; the
    # ranks read here keep singular values down to 2.5e-5 of the largest,
    # against a cut at 1e-5
    verdict = catalysis_verdict(ghz_class(np.pi / 4, 0, theta, theta, theta, ABC), ghz(ABC))
    assert verdict.feasible == "undetermined"
    assert [(row.source_rank, row.target_rank) for row in verdict.party_ranks] == [(2, 2)] * 3


@pytest.mark.parametrize(
    "pair",
    [bipartite_catalysis_pair, lambda: tripartite_catalysis_pair("w"), lambda: tripartite_catalysis_pair("ghz")],
    ids=["prop1", "prop2-w", "prop2-ghz"],
)
def test_a_verdict_builds_one_tensor_per_side(pair, monkeypatch):
    # the party ranks and the product-term scan read the same tensor, whose
    # flattening ranks are computed once
    source, target = pair()
    calls = {"PartyTensor": 0, "flattening_ranks": 0}
    post_init, ranks = PartyTensor.__post_init__, invariants.flattening_ranks

    def counting_post_init(self):
        calls["PartyTensor"] += 1
        post_init(self)

    def counting_ranks(t):
        calls["flattening_ranks"] += 1
        return ranks(t)

    monkeypatch.setattr(PartyTensor, "__post_init__", counting_post_init)
    monkeypatch.setattr(invariants, "flattening_ranks", counting_ranks)
    assert catalysis_verdict(source, target).feasible == "impossible"
    assert calls == {"PartyTensor": 2, "flattening_ranks": 2}


def test_estimate_report_is_strict_json():
    # an excluded rank ran no fit: its best residual stays the float inf, and
    # its report entry reads null
    est = product_term_estimate(PartyTensor.from_state(W_W))
    doc = json.loads(json.dumps(est.to_dict(), allow_nan=False))
    assert [p["best_residual"] for p in doc["probes"][:3]] == [None, None, None]
    assert est.probes[0].best_residual == float("inf")
    assert est.probes[0].to_dict()["best_residual"] is None


def test_probe_needs_two_parties():
    one_party = PureState(Register.of([(1, "A"), (2, "A")]), np.array([1, 0, 0, 1]) / np.sqrt(2))
    with pytest.raises(WrongArity):
        cp_rank_probe(PartyTensor.from_state(one_party), 1)


def test_proven_lower_bound_takes_the_largest_rule():
    assert proven_lower_bound(PartyTensor.from_state(w_state(ABC))) == (3, "pencil")
    assert proven_lower_bound(PartyTensor.from_state(W_W)) == (7, "alder-strassen")
    assert proven_lower_bound(PartyTensor.from_state(computational(ABC, "000"))) == (1, "flattening")


@settings(max_examples=40, deadline=None)
@given(
    delta=st.floats(0.1, np.pi / 2 - 0.1),
    phi=st.floats(0.0, 2 * np.pi),
    angles=st.tuples(*[st.floats(0.1, np.pi - 0.1)] * 3),
)
def test_ghz_class_catalysts_have_proven_counts(delta, phi, angles):
    cat = ghz_class(delta, phi, *angles, DEF)
    for triple, terms in ((w_state(ABC), 6), (ghz(ABC), 4)):
        est = product_term_estimate(PartyTensor.from_state(tensor(triple, cat)))
        assert (est.terms, est.heuristic, est.lower_bound_rule) == (terms, False, "alder-strassen")


def test_probe_wall_time_reported_not_compared():
    probe = cp_rank_probe(PartyTensor.from_state(ghz(ABC)), 2)
    assert probe.to_dict()["wall_s"] == _sig12(probe.wall_s) > 0
    assert dataclasses.replace(probe, wall_s=probe.wall_s + 1.0) == probe


def test_estimate_serialization():
    doc = product_term_estimate(PartyTensor.from_state(ghz(ABC))).to_dict()
    assert doc["terms"] == 2
    assert [p["tested_rank"] for p in doc["probes"]] == [2]


def test_report_documents_keep_their_keys_and_json():
    # each document lists its fields in declaration order, as plain JSON
    # values (lists, not tuples), and dumps to these exact strings
    cfg = ProbeConfig(restarts=4, max_iters=300, seed=7)
    probe = RankProbeResult(3, 2.5e-12, True, cfg, "converged", 120, wall_s=0.125)
    cfg_json = '{"restarts": 4, "max_iters": 300, "seed": 7}'
    rows = (PartyRank("A", 2, 2), PartyRank("B", 4, 4))
    rows_json = (
        '[{"party": "A", "source_rank": 2, "target_rank": 2}, '
        '{"party": "B", "source_rank": 4, "target_rank": 4}]'
    )
    probe_json = (
        '{"tested_rank": 3, "best_residual": 2.5e-12, "converged": true, '
        f'"config": {cfg_json}, "stop_reason": "converged", "sweeps": 120, "wall_s": 0.125}}'
    )
    expected = [
        (cfg, cfg_json),
        (probe, probe_json),
        (
            ProductTermEstimate(3, True, 2, (probe,), 2, "flattening"),
            '{"terms": 3, "heuristic": true, "flattening_lower_bound": 2, '
            f'"probes": [{probe_json}], "lower_bound": 2, "lower_bound_rule": "flattening"}}',
        ),
        (
            ProductTermObstruction(6, 4, True),
            '{"source_terms": 6, "target_terms": 4, "heuristic": true}',
        ),
        (
            SloccClass("w-class", ("A", "B", "C"), (2, 2, 2), 0.0),
            '{"label": "w-class", "parties": ["A", "B", "C"], "ranks": [2, 2, 2], '
            '"tangle": 0.0, "rank_tol": 1e-10, "class_tol": 1e-08}',
        ),
        (
            # a named row becomes an object
            CatalysisVerdict(
                "impossible",
                rows,
                RankObstruction("equal_ranks_exclude_noninvertible", rows),
                ProductTermObstruction(6, 4, True),
                ("a note",),
            ),
            f'{{"feasible": "impossible", "party_ranks": {rows_json}, "rank_obstruction": '
            f'{{"kind": "equal_ranks_exclude_noninvertible", "triples": {rows_json}}}, '
            '"product_term_obstruction": {"source_terms": 6, "target_terms": 4, "heuristic": true}, '
            '"notes": ["a note"]}',
        ),
    ]
    for obj, text in expected:
        doc = obj.to_dict()
        assert json.dumps(doc) == text
        assert list(doc) == list(json.loads(text))
        assert doc == json.loads(text)


def test_record_reports_round_floats_to_12_digits():
    # one record of each kind, computed, with floats that carry more digits
    quick = ProbeConfig(restarts=4, max_iters=20)
    records = [
        quick,
        cp_rank_probe(PartyTensor.from_state(w_state(ABC)), 2, quick),
        product_term_estimate(PartyTensor.from_state(ghz(ABC))),
        slocc_class(ghz_class(0.7, 1.1, 0.5, 0.9, 1.2, ABC)),
        splitting_bound(w_family(0.3, 0.2, 0.4, 0.1, ABC), ghz(ABC)),
        catalysis_verdict(*bipartite_catalysis_pair()),
        catalysis_verdict(ghz(ABC), w_state(ABC)),
        prop3(1 / 3 + 0.01).run(),
    ]
    for record in records:
        floats = []
        json.loads(json.dumps(record.to_dict()), parse_float=lambda text: floats.append(float(text)))
        assert [x for x in floats if x != _sig12(x)] == [], type(record).__name__
    tangle = records[3].tangle  # a generic GHZ-class tangle, as computed
    assert tangle != _sig12(tangle)


@pytest.mark.parametrize(
    "field, value, match",
    [
        pytest.param(field, value, match, id=f"{field}={value}")
        for field, value, match in [
            ("seed", -1, "non-negative"),
            ("restarts", 0, "restart"),
            ("restarts", -2, "restart"),
            ("max_iters", 0, "sweep"),
            ("max_iters", -5, "sweep"),
            ("max_iters", 2.5, "integer"),
            ("restarts", 1.5, "integer"),
            ("restarts", "3", "integer"),
            ("restarts", True, "integer"),
            ("seed", 1.5, "integer"),
        ]
    ],
)
def test_unusable_probe_config_is_rejected(field, value, match):
    # where the config is made, not as a ValueError from inside a probe or a
    # probe that can never converge and reports "stalled"
    with pytest.raises(ConstraintViolation, match=match):
        ProbeConfig(**{field: value})
