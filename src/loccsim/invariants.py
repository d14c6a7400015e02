"""SLOCC invariants: flattening ranks, the three-tangle, and a tensor-rank probe.

The rank probe runs alternating least squares for a rank-r CP model of the
state grouped into one tensor axis per party.  A converged fit proves the
minimal number of product terms is <= r.  A failed probe proves nothing: it
only says that no restart fit below ``fit_tol`` within the sweep cap, which
is why every consumer of the probe labels negative results heuristic.
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import closing
from dataclasses import asdict, dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceeded, ConstraintViolation, ProbeWorkerLost, WrongArity
from .states import RANK_TOL, PureState, _cut, _rank

CLASS_TOL = 1e-8

# stall rule for the ALS loop: a restart has stalled once its best residual
# stops improving, absolutely or relative to its current size, over the last
# _STALL_WINDOW sweeps; a stalled restart keeps sweeping with the batch
_STALL_ABS = 1e-12
_STALL_REL = 1e-4
_STALL_WINDOW = 100
_RIDGE = 1e-12


def _doc(pairs) -> dict:
    # dict_factory for asdict, which keeps tuples; a report holds lists
    return {k: list(v) if isinstance(v, tuple) else v for k, v in pairs}


@dataclass(frozen=True, eq=False)
class PartyTensor:
    """State amplitudes grouped into one axis per party (sorted party order).

    Within a party axis the bits of that party's sites appear in register
    order, first site most significant.
    """

    parties: tuple[str, ...]
    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.complex128)
        if d.shape != tuple(self.shape):
            raise ConstraintViolation(f"data shape {d.shape} != declared {self.shape}")
        if abs(np.linalg.norm(d) - 1.0) > 1e-9:
            raise ConstraintViolation("party tensor must have unit Frobenius norm")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "parties", tuple(self.parties))
        object.__setattr__(self, "shape", tuple(int(x) for x in self.shape))

    @classmethod
    def from_state(cls, s: PureState) -> "PartyTensor":
        parties = s.register.party_labels()
        site_groups = [s.register.sites_of([p]) for p in parties]
        shape = tuple(2 ** len(grp) for grp in site_groups)
        data = _cut(s, [x for grp in site_groups for x in grp]).reshape(shape)
        return cls(parties, shape, data)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


def _unfold(t: np.ndarray, mode: int) -> np.ndarray:
    n = t.ndim
    order = (mode,) + tuple(o for o in range(n) if o != mode)
    return np.transpose(t, order).reshape(t.shape[mode], -1)


def flattening_ranks(t: PartyTensor) -> tuple[int, ...]:
    """Numeric rank of each single-party matricization.

    The squared singular values are the eigenvalues of the corresponding
    single-party reduced density matrix, and they go through the one rank
    rule, ``states._rank``.
    """
    return tuple(
        _rank(np.linalg.svd(_unfold(t.data, m), compute_uv=False) ** 2) for m in range(t.data.ndim)
    )


def three_tangle(s: PureState) -> float:
    """Modulus of the 2x2x2 hyperdeterminant, scaled so the GHZ state gives 1."""
    if s.n_sites != 3 or len(s.register.party_labels()) != 3:
        raise WrongArity("three_tangle needs three sites held by three distinct parties")
    return _tangle(s.tensor_view())


def _tangle(t: np.ndarray) -> float:
    """``three_tangle`` of a unit-norm 2x2x2 array.

    Computed as the discriminant of ``det(T0 + x T1)`` in ``x``, where ``T0``
    and ``T1`` are the two slices along the first axis.
    """
    d0 = np.linalg.det(t[0])
    d1 = np.linalg.det(t[1])
    mid = np.linalg.det(t[0] + t[1]) - d0 - d1
    tau = 4.0 * abs(mid * mid - 4.0 * d0 * d1)
    return float(min(max(tau, 0.0), 1.0))


@dataclass(frozen=True)
class SloccClass:
    """Classification verdict plus the evidence it rests on."""

    label: str  # "product" | "biseparable-X" | "ghz-class" | "w-class"
    parties: tuple[str, ...]
    ranks: tuple[int, ...]
    tangle: float

    def to_dict(self) -> dict:
        return {**asdict(self, dict_factory=_doc), "rank_tol": RANK_TOL, "class_tol": CLASS_TOL}


def slocc_class(s: PureState) -> SloccClass:
    """Coarse SLOCC class of a three-qubit state.

    All single-party ranks 1 -> product; exactly one rank-1 party X ->
    biseparable-X; otherwise the tangle separates the GHZ class (tangle above
    ``CLASS_TOL``) from the W class.
    """
    if s.n_sites != 3 or len(s.register.party_labels()) != 3:
        raise WrongArity("slocc_class needs three sites held by three distinct parties")
    t = PartyTensor.from_state(s)
    ranks = flattening_ranks(t)
    tau = three_tangle(s)
    if all(r == 1 for r in ranks):
        label = "product"
    elif ranks.count(1) == 1:
        label = f"biseparable-{t.parties[ranks.index(1)]}"
    elif tau > CLASS_TOL:
        label = "ghz-class"
    else:
        label = "w-class"
    return SloccClass(label, t.parties, ranks, tau)


# ---------------------------------------------------------------------------
# CP rank probe


@dataclass(frozen=True)
class ProbeConfig:
    restarts: int = 32
    max_iters: int = 2000
    fit_tol: float = 1e-8
    seed: int = 0x5EED

    def __post_init__(self):
        # checked here, before any probe worker forks around the seed
        if self.seed < 0:
            raise ConstraintViolation(f"probe seed must be non-negative, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RankProbeResult:
    tested_rank: int
    best_residual: float
    converged: bool
    restarts: int
    seed: int
    config: ProbeConfig
    stop_reason: str  # "converged" | "stalled" | "cap", see cp_rank_probe
    sweeps: int
    wall_s: float = field(compare=False)  # timing, so equality ignores it

    def to_dict(self) -> dict:
        return asdict(self)


def _khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    # mats: (d_i, R, r) each; columnwise Kronecker per restart with the first
    # factor slowest, as one (prod d_i, R, r) array
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None] * m[None]).reshape(-1, *m.shape[1:])
    return out


def cp_rank_probe(t: PartyTensor, r: int, config: ProbeConfig | None = None) -> RankProbeResult:
    """Best rank-``r`` CP fit over seeded restarts, run in lockstep.

    The restarts sweep together until the first of three stop rules holds:

    - ``"converged"``: the best restart's residual is below ``fit_tol`` and
      that restart has stalled;
    - ``"stalled"``: every restart has stalled;
    - ``"cap"``: ``max_iters`` sweeps have run.

    A restart has stalled when its best residual gained less than
    ``max(_STALL_ABS, _STALL_REL * best)`` over the last ``_STALL_WINDOW``
    sweeps.  The reported residual is the best seen by any restart up to the
    stop, so a converged probe reports the floor (about 1e-12) it stalled at.
    Restart initializations are nested in ``r`` (rank r uses the leading r
    columns of a fixed draw), which keeps the best residual monotone as the
    probed rank grows, down to that floor.
    """
    if r < 1:
        raise ConstraintViolation("probed rank must be >= 1")
    start = time.perf_counter()
    cfg = config or ProbeConfig()
    data = t.data
    dims = data.shape
    n = len(dims)
    nrest = cfg.restarts
    rng = np.random.default_rng(cfg.seed)
    cap = max(t.size, r)
    # factor m is kept restart-major, shape (d_m, R, r), so the Khatri-Rao
    # product of the other factors is one (P, R*r) matrix and each MTTKRP is
    # a single GEMM; `solved[m]` is the same factor as the (R, r, d_m) array
    # the normal equations return
    solved = []
    for d in dims:
        re = rng.standard_normal((nrest, d, cap))
        im = rng.standard_normal((nrest, d, cap))
        solved.append(np.ascontiguousarray(((re + 1j * im) / np.sqrt(2))[:, :, :r]).transpose(0, 2, 1))
    factors = [np.ascontiguousarray(f.transpose(2, 0, 1)) for f in solved]
    others = [[o for o in range(n) if o != m] for m in range(n)]
    unfolds_conj = [_unfold(data, m).conj() for m in range(n)]
    target = _unfold(data, n - 1)[None]
    grams = [f.conj() @ f.transpose(0, 2, 1) for f in solved]

    best = np.full(nrest, np.inf)
    history: deque[np.ndarray] = deque(maxlen=_STALL_WINDOW + 1)
    stop_reason = "cap"
    sweeps = 0
    while sweeps < cfg.max_iters:
        sweeps += 1
        for m in range(n):
            kr = _khatri_rao([factors[o] for o in others[m]])
            first, *rest = others[m]
            gram = grams[first].copy()
            for o in rest:
                gram *= grams[o]
            # conj(conj(U) @ kr) == U @ conj(kr), without conjugating the larger kr
            mttkrp = (unfolds_conj[m] @ kr.reshape(kr.shape[0], -1)).conj()
            # ridge added in place on the diagonal (a strided view of gram)
            gram.reshape(nrest, -1)[:, :: r + 1] += _RIDGE * np.einsum("rkk->r", gram).real[:, None] / r + 1e-30
            # normal equations: F conj(G) = M, i.e. G F^T = M^T since G is Hermitian
            rhs = np.ascontiguousarray(mttkrp.reshape(-1, nrest, r).transpose(1, 2, 0))
            solved[m] = np.linalg.solve(gram, rhs)
            factors[m] = np.ascontiguousarray(solved[m].transpose(2, 0, 1))
            grams[m] = solved[m].conj() @ solved[m].transpose(0, 2, 1)
        recon = solved[n - 1].transpose(0, 2, 1) @ kr.transpose(1, 2, 0)
        res = np.linalg.norm((recon - target).reshape(nrest, -1), axis=1)
        best = np.minimum(best, res)
        history.append(best)
        if len(history) > _STALL_WINDOW:
            stalled = history[0] - best < np.maximum(_STALL_ABS, _STALL_REL * best)
            lead = int(np.argmin(best))
            if best[lead] < cfg.fit_tol and stalled[lead]:
                stop_reason = "converged"
                break
            if np.all(stalled):
                stop_reason = "stalled"
                break
    best_residual = float(best.min())
    return RankProbeResult(
        tested_rank=r,
        best_residual=best_residual,
        converged=best_residual < cfg.fit_tol,
        restarts=cfg.restarts,
        seed=cfg.seed,
        config=cfg,
        stop_reason=stop_reason,
        sweeps=sweeps,
        wall_s=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class ProductTermEstimate:
    """Smallest converged CP rank, with the proven lower bound it was scanned from."""

    terms: int
    heuristic: bool
    flattening_lower_bound: int
    probes: tuple[RankProbeResult, ...]

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=_doc)


# The most ranks a scan keeps in flight.  Two is the width that was measured
# (wall time, CPU seconds and worker RSS, on a 2-CPU host); a wider look-ahead
# mostly runs ranks above the answer only to discard them.
_LOOKAHEAD = 2

# the code of the module's own probe; a replaced cp_rank_probe (a wrapper, a
# test double) has other code, even where it copies the name and docstring
_OWN_PROBE_CODE = cp_rank_probe.__code__


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _probe_task(conn, t: PartyTensor, r: int, cfg: ProbeConfig) -> None:
    # runs in a forked worker and sends back the probe, or the error it raised
    try:
        outcome = (cp_rank_probe(t, r, cfg), None)
    except Exception as exc:
        outcome = (None, exc)
    conn.send(outcome)


def _rank_probes(t: PartyTensor, ranks: range, cfg: ProbeConfig) -> Iterator[RankProbeResult]:
    """``cp_rank_probe(t, r, cfg)`` for each ``r`` in ``ranks``, in rank order.

    Where it can, it keeps the next ranks in flight in forked worker
    processes, one probe each.  Closing the generator kills and reaps the
    workers still running; a worker that dies before it sends its result
    raises ProbeWorkerLost.
    """
    import multiprocessing  # here, not at module load: it costs every import ~20 ms

    width = min(_LOOKAHEAD, _usable_cpus(), len(ranks))
    if (
        width < 2
        # a forked worker inherits the tensor and the loaded modules, where
        # spawn or forkserver would import numpy again in every worker; the
        # thread numpy starts, OpenBLAS's, is stopped by OpenBLAS's fork handler
        or "fork" not in multiprocessing.get_all_start_methods()
        # a daemonic process (a pool worker, say) may not start children
        or multiprocessing.current_process().daemon
        # a replaced probe (a wrapper, a test double) runs in this process,
        # so whatever it records is not lost in a worker
        or getattr(cp_rank_probe, "__code__", None) is not _OWN_PROBE_CODE
    ):
        yield from (cp_rank_probe(t, r, cfg) for r in ranks)
        return
    ctx = multiprocessing.get_context("fork")
    pending: deque = deque()  # (rank, worker, reading end of its pipe)

    def oldest() -> RankProbeResult:
        rank, worker, reader = pending[0]
        try:
            probe, exc = reader.recv()
        except EOFError:
            worker.join()
            raise ProbeWorkerLost(
                f"the rank-{rank} probe worker ended with exit code {worker.exitcode}"
            ) from None
        pending.popleft()
        worker.join()
        reader.close()
        if exc is not None:
            raise exc
        return probe

    try:
        for r in ranks:
            reader, writer = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_probe_task, args=(writer, t, r, cfg), daemon=True)
            worker.start()
            # the worker now holds the only writing end, so its death ends the pipe
            writer.close()
            pending.append((r, worker, reader))
            if len(pending) == width:
                yield oldest()
        while pending:
            yield oldest()
    finally:
        for _, worker, reader in pending:
            worker.kill()
            worker.join()
            reader.close()


def product_term_estimate(
    t: PartyTensor,
    config: ProbeConfig | None = None,
    cap: int | None = None,
) -> ProductTermEstimate:
    """Scan ranks upward from the flattening lower bound until a fit converges.

    The returned count is certified when it equals the lower bound.  Above
    it, each failed probe below the count only found no fit below
    ``fit_tol`` within the sweep cap, which proves no lower bound, so the
    estimate carries a heuristic flag.  Raises CapExceeded when no rank up
    to ``cap`` (default: the number of tensor entries) converges.

    The scan looks ahead: it keeps the next two ranks in flight, each probed
    in its own forked worker process, where two CPUs or more are usable.
    Results are read strictly in rank order and the scan stops at the first
    converged rank; the workers of the ranks above it are killed and reaped
    before the call returns or raises, so no process outlives it.  Each probe
    is a deterministic function of (tensor, rank, config), so the estimate is
    the one a sequential scan returns.  The probes run in-process, one after
    another, with one usable CPU, where the fork start method does not exist,
    inside a daemonic process such as a pool worker, and when
    ``cp_rank_probe`` has been replaced.  A worker that dies without a result
    raises ProbeWorkerLost.
    """
    cfg = config or ProbeConfig()
    lower = max(flattening_ranks(t))
    top = cap if cap is not None else t.size
    probes = []
    with closing(_rank_probes(t, range(lower, top + 1), cfg)) as results:
        for probe in results:
            probes.append(probe)
            if probe.converged:
                return ProductTermEstimate(
                    terms=probe.tested_rank,
                    heuristic=probe.tested_rank > lower,
                    flattening_lower_bound=lower,
                    probes=tuple(probes),
                )
    raise CapExceeded(f"no converged CP fit up to rank {top} (lower bound {lower})")
