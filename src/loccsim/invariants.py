"""SLOCC invariants: flattening ranks, the three-tangle, and a tensor-rank probe.

The rank probe runs alternating least squares for a rank-r CP model of the
state grouped into one tensor axis per party.  A converged fit proves the
minimal number of product terms is <= r; failure to converge is evidence
(not proof) that it is > r, which is why every consumer of the probe labels
negative results heuristic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapExceeded, ConstraintViolation, WrongArity
from .states import RANK_TOL, PureState

CLASS_TOL = 1e-8

# stall rule for the ALS loop: a restart has stalled once its best residual
# stops improving, absolutely or relative to its current size, over the last
# _STALL_WINDOW sweeps; a stalled restart keeps sweeping with the batch
_STALL_ABS = 1e-12
_STALL_REL = 1e-4
_STALL_WINDOW = 100
_RIDGE = 1e-12


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
        axes = [s.register.axis_of(x) for grp in site_groups for x in grp]
        shape = tuple(2 ** len(grp) for grp in site_groups)
        data = np.transpose(s.tensor_view(), axes).reshape(shape)
        return cls(parties, shape, data)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


def _squared_sv_rank(matrix: np.ndarray, tol: float) -> int:
    sv = np.linalg.svd(matrix, compute_uv=False)
    top = sv[0] ** 2
    if top <= 0:
        return 0
    return int(np.sum(sv**2 > tol * top))


def flattening_ranks(t: PartyTensor, tol: float = RANK_TOL) -> tuple[int, ...]:
    """Numeric rank of each single-party matricization.

    Thresholding happens on squared singular values so the result agrees with
    ``numeric_rank`` of the corresponding reduced density matrix.
    """
    ranks = []
    n = len(t.shape)
    for m in range(n):
        order = (m,) + tuple(o for o in range(n) if o != m)
        flat = np.transpose(t.data, order).reshape(t.shape[m], -1)
        ranks.append(_squared_sv_rank(flat, tol))
    return tuple(ranks)


def three_tangle(s: PureState) -> float:
    """Modulus of the 2x2x2 hyperdeterminant, scaled so the GHZ state gives 1.

    Computed as the discriminant of ``det(T0 + x T1)`` in ``x``, where ``T0``
    and ``T1`` are the two slices along the first site.
    """
    if s.n_sites != 3 or len(s.register.party_labels()) != 3:
        raise WrongArity("three_tangle needs three sites held by three distinct parties")
    t = s.tensor_view()
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
        return {
            "label": self.label,
            "parties": list(self.parties),
            "ranks": list(self.ranks),
            "tangle": self.tangle,
            "rank_tol": RANK_TOL,
            "class_tol": CLASS_TOL,
        }


def slocc_class(s: PureState, class_tol: float = CLASS_TOL) -> SloccClass:
    """Coarse SLOCC class of a three-qubit state.

    All single-party ranks 1 -> product; exactly one rank-1 party X ->
    biseparable-X; otherwise the tangle separates the GHZ class (tangle above
    ``class_tol``) from the W class.
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
    elif tau > class_tol:
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

    def to_dict(self) -> dict:
        return {
            "restarts": self.restarts,
            "max_iters": self.max_iters,
            "fit_tol": self.fit_tol,
            "seed": self.seed,
        }


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

    def to_dict(self) -> dict:
        return {
            "tested_rank": self.tested_rank,
            "best_residual": self.best_residual,
            "converged": self.converged,
            "restarts": self.restarts,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "stop_reason": self.stop_reason,
            "sweeps": self.sweeps,
        }


def _unfold(t: np.ndarray, mode: int) -> np.ndarray:
    n = t.ndim
    order = (mode,) + tuple(o for o in range(n) if o != mode)
    return np.transpose(t, order).reshape(t.shape[mode], -1)


def _khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    # mats: (R, d_i, r) each; columnwise Kronecker with the first factor slowest
    out = mats[0]
    for m in mats[1:]:
        nrest, da, ncol = out.shape
        out = (out[:, :, None, :] * m[:, None, :, :]).reshape(nrest, da * m.shape[1], ncol)
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
    cfg = config or ProbeConfig()
    data = t.data
    dims = data.shape
    n = len(dims)
    nrest = cfg.restarts
    rng = np.random.default_rng(cfg.seed)
    cap = max(t.size, r)
    factors = []
    for d in dims:
        re = rng.standard_normal((nrest, d, cap))
        im = rng.standard_normal((nrest, d, cap))
        factors.append(np.ascontiguousarray(((re + 1j * im) / np.sqrt(2))[:, :, :r]))
    others = [[o for o in range(n) if o != m] for m in range(n)]
    unfolds_conj = [_unfold(data, m).conj() for m in range(n)]
    target = _unfold(data, n - 1)[None]
    grams = [f.conj().transpose(0, 2, 1) @ f for f in factors]
    eye = np.eye(r)

    best = np.full(nrest, np.inf)
    history: deque[np.ndarray] = deque(maxlen=_STALL_WINDOW + 1)
    stop_reason = "cap"
    sweeps = 0
    while sweeps < cfg.max_iters:
        sweeps += 1
        for m in range(n):
            kr = _khatri_rao([factors[o] for o in others[m]])
            gram = grams[others[m][0]]
            for o in others[m][1:]:
                gram = gram * grams[o]
            # conj(conj(U) @ kr) == U @ conj(kr), without conjugating the larger kr
            mttkrp = np.matmul(unfolds_conj[m], kr).conj()
            ridge = (_RIDGE * np.einsum("rkk->r", gram).real / r + 1e-30)[:, None, None]
            # normal equations: F conj(G) = M, i.e. G F^T = M^T since G is Hermitian
            rhs = np.ascontiguousarray(mttkrp.transpose(0, 2, 1))
            factors[m] = np.linalg.solve(gram + ridge * eye, rhs).transpose(0, 2, 1)
            grams[m] = factors[m].conj().transpose(0, 2, 1) @ factors[m]
        recon = factors[n - 1] @ kr.transpose(0, 2, 1)
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
    )


@dataclass(frozen=True)
class ProductTermEstimate:
    """Smallest converged CP rank, with the proven lower bound it was scanned from."""

    terms: int
    heuristic: bool
    flattening_lower_bound: int
    probes: tuple[RankProbeResult, ...]

    def to_dict(self) -> dict:
        return {
            "terms": self.terms,
            "heuristic": self.heuristic,
            "flattening_lower_bound": self.flattening_lower_bound,
            "probes": [p.to_dict() for p in self.probes],
        }


def product_term_estimate(
    t: PartyTensor,
    config: ProbeConfig | None = None,
    cap: int | None = None,
) -> ProductTermEstimate:
    """Scan ranks upward from the flattening lower bound until a fit converges.

    The returned count is certified when it equals the lower bound; above it
    the negative probes are only evidence, so the estimate carries a heuristic
    flag.  Raises CapExceeded when no rank up to ``cap`` (default: the number
    of tensor entries) converges.
    """
    cfg = config or ProbeConfig()
    lower = max(flattening_ranks(t))
    top = cap if cap is not None else t.size
    probes = []
    for r in range(lower, top + 1):
        probe = cp_rank_probe(t, r, cfg)
        probes.append(probe)
        if probe.converged:
            return ProductTermEstimate(
                terms=r,
                heuristic=r > lower,
                flattening_lower_bound=lower,
                probes=tuple(probes),
            )
    raise CapExceeded(f"no converged CP fit up to rank {top} (lower bound {lower})")
