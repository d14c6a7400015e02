import dataclasses
import faulthandler
import json
import multiprocessing
import multiprocessing.connection
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccsim import invariants
from loccsim.convert import ProductTermObstruction
from loccsim.errors import CapExceeded, ConstraintViolation, ProbeWorkerLost, WrongArity
from loccsim.invariants import (
    PartyTensor,
    ProbeConfig,
    ProductTermEstimate,
    RankProbeResult,
    SloccClass,
    cp_rank_probe,
    flattening_ranks,
    product_term_estimate,
    slocc_class,
    three_tangle,
)
from loccsim.prebuilt import bipartite_catalysis_pair
from loccsim.states import (
    PureState,
    Register,
    _rank,
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


def random_state(rng, register=ABC):
    v = rng.normal(size=register.dim) + 1j * rng.normal(size=register.dim)
    return PureState(register, v / np.linalg.norm(v))


def haar_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bounded_invertible(rng, cond_cap=10.0):
    """Random invertible 2x2 with condition number below the cap."""
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
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


def test_flattening_ranks_match_reduced_densities():
    src, dst = bipartite_catalysis_pair()
    for s in (src, dst):
        ranks = flattening_ranks(PartyTensor.from_state(s))
        direct = tuple(
            _rank(np.linalg.eigvalsh(reduced_density_sites(s, s.register.sites_of([p])).matrix))
            for p in ("A", "B", "C")
        )
        assert ranks == direct == (2, 4, 4)


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
    assert doc["restarts"] == 32
    assert doc["config"]["max_iters"] == 2000
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


def test_estimate_w_and_flat_pair():
    est_w = product_term_estimate(PartyTensor.from_state(w_state(ABC)))
    assert est_w.terms == 3
    assert est_w.flattening_lower_bound == 2
    assert est_w.heuristic  # found above the flattening bound

    est_g = product_term_estimate(PartyTensor.from_state(ghz(ABC)))
    assert est_g.terms == 2
    assert not est_g.heuristic  # matches the flattening bound exactly


def test_estimate_product_state():
    est = product_term_estimate(PartyTensor.from_state(computational(ABC, "000")))
    assert est.terms == 1
    assert not est.heuristic


def test_estimate_cap():
    with pytest.raises(CapExceeded):
        product_term_estimate(PartyTensor.from_state(w_state(ABC)), cap=2)
    assert multiprocessing.active_children() == []


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so the scan probes in worker processes on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture
def no_hang():
    """End the test run with a traceback instead of hanging in a scan."""
    faulthandler.dump_traceback_later(300, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def test_estimate_probes_match_direct_probes(two_cpus):
    t = PartyTensor.from_state(w_state(ABC))
    est = product_term_estimate(t)
    assert est.probes == (cp_rank_probe(t, 2), cp_rank_probe(t, 3))


def test_estimate_leaves_no_process(two_cpus):
    product_term_estimate(PartyTensor.from_state(w_state(ABC)))
    assert multiprocessing.active_children() == []
    # nothing converges, so every rank up to the cap runs in a worker
    with pytest.raises(CapExceeded):
        product_term_estimate(
            PartyTensor.from_state(w_state(ABC)), ProbeConfig(max_iters=50, fit_tol=1e-30), cap=4
        )
    assert multiprocessing.active_children() == []


def test_estimate_keeps_two_ranks_in_flight_on_many_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    live_at_start = []
    pipe = multiprocessing.connection.Pipe

    def counting_pipe(*args, **kwargs):
        # one pipe per worker, made just before the worker starts
        live_at_start.append(len(multiprocessing.active_children()))
        return pipe(*args, **kwargs)

    monkeypatch.setattr(multiprocessing.connection, "Pipe", counting_pipe)
    with pytest.raises(CapExceeded):
        product_term_estimate(
            PartyTensor.from_state(w_state(ABC)), ProbeConfig(max_iters=50, fit_tol=1e-30), cap=6
        )
    assert len(live_at_start) == 5  # ranks 2..6, each in a worker
    assert max(live_at_start) == 1


def test_estimate_raises_when_a_worker_dies(two_cpus, no_hang, monkeypatch):
    task = invariants._probe_task

    def dies_at_rank_3(conn, t, r, cfg):
        if r == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        task(conn, t, r, cfg)

    monkeypatch.setattr(invariants, "_probe_task", dies_at_rank_3)
    # rank 3 is the last rank, so no later worker start happens to end its pipe
    with pytest.raises(ProbeWorkerLost, match="rank-3 .* exit code -9"):
        product_term_estimate(PartyTensor.from_state(w_state(ABC)), cap=3)
    assert multiprocessing.active_children() == []


def test_estimate_reraises_a_worker_error(two_cpus, monkeypatch):
    def fails(t, r, cfg=None):
        raise ConstraintViolation(f"rank {r} refused")

    monkeypatch.setattr(invariants, "cp_rank_probe", fails)
    monkeypatch.setattr(invariants, "_OWN_PROBE_CODE", fails.__code__)
    with pytest.raises(ConstraintViolation, match="rank 2 refused"):
        product_term_estimate(PartyTensor.from_state(w_state(ABC)))
    assert multiprocessing.active_children() == []


def test_estimate_inside_daemonic_worker(two_cpus):
    t = PartyTensor.from_state(w_state(ABC))
    with multiprocessing.Pool(1) as pool:
        inside = pool.apply_async(product_term_estimate, (t,)).get(timeout=120)
    assert inside == product_term_estimate(t)


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def _no_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"])


@pytest.mark.parametrize("setting", [_one_cpu, _no_fork])
def test_estimate_runs_in_process(setting, monkeypatch):
    t = PartyTensor.from_state(w_state(ABC))
    expected = product_term_estimate(t)
    setting(monkeypatch)

    def no_worker(*args, **kwargs):
        raise AssertionError("this scan must not start a worker")

    monkeypatch.setattr(multiprocessing, "get_context", no_worker)
    assert product_term_estimate(t) == expected


def test_estimate_calls_a_replaced_probe_in_process(two_cpus, monkeypatch):
    called = []

    def recording(t, r, cfg=None):
        called.append(r)
        return cp_rank_probe(t, r, cfg)

    monkeypatch.setattr(invariants, "cp_rank_probe", recording)
    est = product_term_estimate(PartyTensor.from_state(w_state(ABC)))
    assert called == [2, 3] and est.terms == 3


def test_probe_wall_time_reported_not_compared():
    probe = cp_rank_probe(PartyTensor.from_state(ghz(ABC)), 2)
    assert probe.to_dict()["wall_s"] == probe.wall_s > 0
    assert dataclasses.replace(probe, wall_s=probe.wall_s + 1.0) == probe


def test_estimate_serialization():
    doc = product_term_estimate(PartyTensor.from_state(ghz(ABC))).to_dict()
    assert doc["terms"] == 2
    assert [p["tested_rank"] for p in doc["probes"]] == [2]


def test_report_documents_keep_their_keys_and_json():
    # each document lists its fields in declaration order, as plain JSON
    # values (lists, not tuples), and dumps to these exact strings
    cfg = ProbeConfig(restarts=4, max_iters=300, fit_tol=1e-6, seed=7)
    probe = RankProbeResult(3, 2.5e-12, True, 4, 7, cfg, "converged", 120, wall_s=0.125)
    cfg_json = '{"restarts": 4, "max_iters": 300, "fit_tol": 1e-06, "seed": 7}'
    probe_json = (
        '{"tested_rank": 3, "best_residual": 2.5e-12, "converged": true, "restarts": 4, '
        f'"seed": 7, "config": {cfg_json}, "stop_reason": "converged", "sweeps": 120, '
        '"wall_s": 0.125}'
    )
    expected = [
        (cfg, cfg_json),
        (probe, probe_json),
        (
            ProductTermEstimate(3, True, 2, (probe,)),
            '{"terms": 3, "heuristic": true, "flattening_lower_bound": 2, '
            f'"probes": [{probe_json}]}}',
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
    ]
    for obj, text in expected:
        doc = obj.to_dict()
        assert json.dumps(doc) == text
        assert list(doc) == list(json.loads(text))
        assert doc == json.loads(text)


def test_negative_probe_seed_is_rejected():
    # before any probe worker forks, not as a ValueError from inside one
    with pytest.raises(ConstraintViolation, match="non-negative"):
        ProbeConfig(seed=-1)
