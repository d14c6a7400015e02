"""SLOCC invariants: flattening ranks, the three-tangle, and a tensor-rank probe.

The lower bounds on the number of product terms come from rank rules: the
flattening ranks, Ja'Ja's rank of a 2 x n x n pencil, and the Alder-Strassen
bound for the structure tensor of an algebra.  At the bound, an exact fit read
off the same ``_slice_analysis`` (a bilinear algorithm for each local algebra)
meets every bundled count.  Elsewhere the rank probe runs alternating least
squares for a rank-r CP model: a converged fit proves at most r terms, a failed
probe proves nothing, and a count above the bound is heuristic.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import CapExceeded, ConstraintViolation, WrongArity
from .states import NORM_TOL, RANK_TOL, PureState, _rank, _Report, _unfold

CLASS_TOL = 1e-8
# a fit whose residual is below FIT_TOL converged: it proves at most its rank
FIT_TOL = 1e-8

# stall rule for the ALS loop: a restart has stalled once its best residual
# stops improving, absolutely or relative to its current size, over the last
# _STALL_WINDOW sweeps; a stalled restart keeps sweeping with the batch
_STALL_ABS = 1e-12
_STALL_REL = 1e-4
_STALL_WINDOW = 100
_RIDGE = 1e-12


@dataclass(frozen=True, eq=False)
class PartyTensor:
    """State amplitudes grouped into one axis per party (sorted party order),
    with their ``flattening_ranks``, computed once.

    Within a party axis the bits of that party's sites appear in register
    order, first site most significant.
    """

    parties: tuple[str, ...]
    data: np.ndarray
    ranks: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.complex128)
        nrm = float(np.linalg.norm(d))
        # written so that a NaN norm fails the check too
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise ConstraintViolation(f"party tensor norm {nrm!r} deviates from 1 by > {NORM_TOL}")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "parties", tuple(self.parties))
        object.__setattr__(self, "ranks", flattening_ranks(self))

    @classmethod
    def from_state(cls, s: PureState) -> "PartyTensor":
        return cls(*_party_axes(s))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size


def _party_axes(s: PureState) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted party labels of ``s`` and its amplitudes with one axis per
    party, in that order; within a party axis the bits of that party's sites
    appear in register order, first site most significant."""
    labels, parties = s.register.party_labels(), s.register.parties
    order = sorted(range(len(parties)), key=parties.__getitem__)  # stable: register order within a party
    return labels, _unfold(s.tensor_view(), order).reshape([2 ** parties.count(p) for p in labels])


@lru_cache(maxsize=64)
def _unfolding_plan(shape: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
    """Per matricization shape, the modes with that shape and one read-only
    index array gathering their unfoldings from a flattened ``shape`` array."""
    entries = np.arange(np.prod(shape)).reshape(shape)
    plan = []
    for d in set(shape):
        modes = tuple(m for m, other in enumerate(shape) if other == d)
        index = np.stack([_unfold(entries, (m,)) for m in modes])
        index.setflags(write=False)
        plan.append((modes, index))
    return tuple(plan)


def flattening_ranks(t: PartyTensor) -> tuple[int, ...]:
    """Numeric rank of each single-party matricization: its singular values
    through the one rank rule, ``states._rank``.

    The squared singular values are the eigenvalues of the corresponding
    single-party reduced density matrix.
    """
    ranks = {}
    # a matricization's shape is set by its party's dimension; those of one
    # shape share one stacked SVD
    for modes, index in _unfolding_plan(t.shape):
        ranks.update(zip(modes, _rank(np.linalg.svd(t.data.reshape(-1)[index], compute_uv=False)).tolist()))
    return tuple(ranks[m] for m in range(len(t.shape)))


def three_tangle(s: PureState) -> float:
    """Modulus of the 2x2x2 hyperdeterminant, scaled so the GHZ state gives 1."""
    if s.n_sites != 3 or len(s.register.party_labels()) != 3:
        raise WrongArity("three_tangle needs three sites held by three distinct parties")
    return _tangle(s.tensor_view())


def _tangle(t: np.ndarray) -> float:
    """``three_tangle`` of a unit-norm 2x2x2 array.

    Computed as the discriminant of ``det(T0 + x T1) = d0 + mid x + d1 x^2``
    in ``x``, where ``T0`` and ``T1`` are the two slices along the first axis,
    from the eight amplitudes as Python complex numbers.
    """
    a000, a001, a010, a011, a100, a101, a110, a111 = t.reshape(-1).tolist()
    d0 = a000 * a011 - a001 * a010
    d1 = a100 * a111 - a101 * a110
    mid = a000 * a111 + a011 * a100 - a001 * a110 - a010 * a101
    tau = 4.0 * abs(mid * mid - 4.0 * d0 * d1)
    return float(min(max(tau, 0.0), 1.0))


@dataclass(frozen=True)
class SloccClass(_Report):
    """Classification verdict plus the evidence it rests on."""

    label: str  # "product" | "biseparable-X" | "ghz-class" | "w-class"
    parties: tuple[str, ...]
    ranks: tuple[int, ...]
    tangle: float
    # the tolerances the label rests on, reported with it
    rank_tol: float = field(default=RANK_TOL, init=False)
    class_tol: float = field(default=CLASS_TOL, init=False)


def slocc_class(s: PureState) -> SloccClass:
    """Coarse SLOCC class of a three-qubit state.

    All single-party ranks 1 -> product; exactly one rank-1 party X ->
    biseparable-X; otherwise the tangle separates the GHZ class (tangle above
    ``CLASS_TOL``) from the W class.
    """
    if s.n_sites != 3 or len(s.register.party_labels()) != 3:
        raise WrongArity("slocc_class needs three sites held by three distinct parties")
    t = PartyTensor.from_state(s)
    tau = three_tangle(s)
    if all(r == 1 for r in t.ranks):
        label = "product"
    elif t.ranks.count(1) == 1:
        label = f"biseparable-{t.parties[t.ranks.index(1)]}"
    elif tau > CLASS_TOL:
        label = "ghz-class"
    else:
        label = "w-class"
    return SloccClass(label, t.parties, t.ranks, tau)


# ---------------------------------------------------------------------------
# CP rank probe


@dataclass(frozen=True)
class ProbeConfig(_Report):
    restarts: int = 32
    max_iters: int = 2000
    seed: int = 0x5EED

    def __post_init__(self):
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConstraintViolation(f"probe {name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConstraintViolation(f"probe seed must be non-negative, got {self.seed}")
        if self.restarts < 1:
            raise ConstraintViolation(f"a probe needs at least one restart, got {self.restarts}")
        if self.max_iters < 1:
            raise ConstraintViolation(f"a probe needs at least one sweep, got max_iters {self.max_iters}")


@dataclass(frozen=True)
class RankProbeResult(_Report):
    """One entry of a rank scan.  ``converged`` is ``best_residual < FIT_TOL``,
    and an ALS entry's ``stop_reason`` reads ``"converged"`` exactly when it
    holds; ``config`` is the probe's, None where no ALS ran."""

    tested_rank: int
    best_residual: float
    converged: bool
    config: ProbeConfig | None
    # "converged" | "stalled" | "cap" from cp_rank_probe; "excluded" or "exact",
    # with no ALS, from product_term_estimate
    stop_reason: str
    sweeps: int
    wall_s: float = field(compare=False)  # timing, so equality ignores it


def _khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    # mats: (R, r, d_i) each; columnwise Kronecker per restart with the first
    # factor slowest, as one (R, r, prod d_i) array
    out = mats[0]
    for m in mats[1:]:
        out = (out[..., None] * m[:, :, None]).reshape(*m.shape[:2], -1)
    return out


def cp_rank_probe(t: PartyTensor, r: int, config: ProbeConfig | None = None) -> RankProbeResult:
    """Best rank-``r`` CP fit over seeded restarts, run in lockstep.

    The restarts sweep together until the best restart has stalled with its
    residual below ``FIT_TOL``, every restart has stalled, or ``max_iters``
    sweeps have run.  ``stop_reason`` is ``"converged"`` when the best
    residual is below ``FIT_TOL``, however the sweeps stopped, else
    ``"stalled"`` or ``"cap"``.

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
    if t.data.ndim < 2:
        raise WrongArity(f"a product-term probe needs two or more parties, got {t.parties}")
    start = time.perf_counter()
    cfg = config or ProbeConfig()
    data = t.data
    n = data.ndim
    nrest = cfg.restarts
    rng = np.random.default_rng(cfg.seed)
    cap = max(t.size, r)
    # factor m is the (R, r, d_m) array the normal equations take and return,
    # so the Khatri-Rao product of the other factors is one (R*r, P) matrix
    # and each MTTKRP is a single GEMM
    draws = [rng.standard_normal((2, nrest, d, cap))[..., :r] for d in data.shape]
    factors = [((re + 1j * im) / np.sqrt(2)).transpose(0, 2, 1) for re, im in draws]
    others = [[o for o in range(n) if o != m] for m in range(n)]
    unfolds_conj = [_unfold(data, (m,)).conj() for m in range(n)]
    target = _unfold(data, (n - 1,))[None]
    grams = [f.conj() @ f.transpose(0, 2, 1) for f in factors]

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
            # conj(kr @ conj(U)ᵀ) == conj(kr) @ Uᵀ, without conjugating the larger kr
            mttkrp = (kr.reshape(nrest * r, -1) @ unfolds_conj[m].T).conj()
            # ridge added in place on the diagonal (a strided view of gram)
            gram.reshape(nrest, -1)[:, :: r + 1] += _RIDGE * np.einsum("rkk->r", gram).real[:, None] / r + 1e-30
            # normal equations: F conj(G) = M for the (d_m, r) factor F, i.e.
            # G Fᵀ = Mᵀ since G is Hermitian; factors[m] holds Fᵀ
            factors[m] = np.linalg.solve(gram, mttkrp.reshape(nrest, r, -1))
            grams[m] = factors[m].conj() @ factors[m].transpose(0, 2, 1)
        recon = factors[n - 1].transpose(0, 2, 1) @ kr
        res = np.linalg.norm((recon - target).reshape(nrest, -1), axis=1)
        best = np.minimum(best, res)
        history.append(best)
        if len(history) > _STALL_WINDOW:
            stalled = history[0] - best < np.maximum(_STALL_ABS, _STALL_REL * best)
            lead = int(np.argmin(best))
            if best[lead] < FIT_TOL and stalled[lead] or np.all(stalled):
                stop_reason = "stalled"  # read "converged" below where the fit is
                break
    best_residual = float(best.min())
    converged = best_residual < FIT_TOL
    stop_reason = "converged" if converged else stop_reason
    return RankProbeResult(r, best_residual, converged, cfg, stop_reason, sweeps, time.perf_counter() - start)


@dataclass(frozen=True)
class ProductTermEstimate(_Report):
    """Smallest rank with a converged or exact fit, and the proven lower bound it was scanned from."""

    terms: int
    heuristic: bool
    flattening_lower_bound: int
    probes: tuple[RankProbeResult, ...]
    lower_bound: int
    lower_bound_rule: str  # "flattening" | "pencil" | "alder-strassen"


# ---------------------------------------------------------------------------
# proven lower bounds on the number of product terms

# seed of the draws the bound rules make, so no proven bound depends on the probe seed
_BOUND_SEED = 0xB0D


def _normals(rng: np.random.Generator, *shape: int) -> np.ndarray:
    # complex draws: one lands near a singular point far less often than a real one
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _normalized_slices(t: PartyTensor, axis: int):
    """``(X, M, g, rng)``: the slices Tᵢ of ``t`` along ``axis`` as Mᵢ = X⁻¹Tᵢ,
    where X = Σ αᵢTᵢ is the best-conditioned of four drawn combinations, and
    g a drawn combination of the Mᵢ; None when that X is singular."""
    rng = np.random.default_rng(_BOUND_SEED)
    ts = np.moveaxis(t.data, axis, 0)
    xs = np.tensordot(_normals(rng, 4, len(ts)), ts, axes=1)
    sv = np.linalg.svd(xs, compute_uv=False)
    best = np.argmax(sv[:, -1] / sv[:, 0])
    if _rank(sv[best]) < len(sv[best]):
        return None
    ms = np.linalg.solve(xs[best], ts)
    return xs[best], ms, np.tensordot(_normals(rng, len(ms)), ms, axes=1), rng


def _eigen_structure(g: np.ndarray) -> list[tuple[complex, int, int]] | None:
    """``(λ, multiplicity, Jordan blocks longer than one)`` for each eigenvalue
    of ``g``; None where a rank deciding them changes when the threshold falls
    1e4-fold.  rank((g - λ)ᵏ) is read as the rank of g - λ on an orthonormal
    basis of the image of (g - λ)ᵏ⁻¹, so every rank weighs singular values
    linear in the eigenvalue gaps, against one scale."""
    n, scale = len(g), 2 * np.linalg.norm(g, 2) or 1.0  # bounds |g - λ| for every eigenvalue λ
    groups: list[list[complex]] = []  # round-off splits a Jordan block by ~1e-8 (length 2), 6e-6 (length 3)
    for lam in np.linalg.eigvals(g):
        near = [grp for grp in groups if abs(grp[0] - lam) < 5e-5 * scale]
        near[0].append(lam) if near else groups.append([lam])
    structure = []
    for grp in groups:
        lam, size, basis, ranks = np.mean(grp), len(grp), np.eye(n), [n]
        while len(ranks) <= size and ranks[-1] > n - size:
            u, sv, _ = np.linalg.svd((g - lam * np.eye(n)) @ basis)
            ranks.append(_rank(sv, scale))
            if _rank(sv, 1e-4 * scale) != ranks[-1]:
                return None
            basis = u[:, : ranks[-1]]
        if ranks[-1] != n - size:
            return None  # the group is not one eigenvalue
        structure.append((lam, size, ranks[1] - ranks[2] if len(ranks) > 2 else 0))
    return structure


def _slice_analysis(t: PartyTensor):
    """``(axis, X, M, g, rng, structure)``: ``_normalized_slices`` along the
    axis of dimension 2 of a 2 x n x n pencil, or axis 0 of a cube, and the
    ``_eigen_structure`` of g; None where t is neither, X is singular or the
    structure is not clear-cut."""
    axis, shape = int(np.argmin(t.shape)), t.shape
    sliced = len(shape) == 3 and shape[axis - 2] == shape[axis - 1] and shape[axis] in (2, shape[axis - 1])
    found = _normalized_slices(t, axis) if sliced else None
    structure = found and _eigen_structure(found[2])
    return structure and (axis, *found, structure)


def _proof(t: PartyTensor) -> tuple[int, str, tuple | None]:
    """``(bound, rule, slice analysis)`` for the largest
    proven bound; a tie goes to pencil, then alder-strassen, then flattening.
    Ja'Ja': a regular 2 x n x n pencil has rank n plus the Jordan blocks
    longer than one of its most defective eigenvalue.  Alder-Strassen: 2n - k
    for the structure tensor of a commutative unital algebra with k maximal
    ideals, whose normalized slices commute, span a space closed under
    products and have a cyclic vector; k is the number of eigenvalues of g."""
    analysis = _slice_analysis(t)
    rules = [(max(t.ranks), "flattening")]
    if analysis:
        _, _, ms, _, rng, structure = analysis
        n = len(ms[0])
        if len(ms) == 2:
            rules.insert(0, (n + max(longer for *_, longer in structure), "pencil"))
        if len(ms) == n and _rank(np.linalg.svd(ms @ _normals(rng, n), compute_uv=False)) == n:  # a cyclic vector
            ms = ms / np.linalg.norm(ms, axis=(1, 2), keepdims=True)
            products = ms[:, None] @ ms[None]  # (i, j) -> Mᵢ Mⱼ
            commutators = (products - products.transpose(1, 0, 2, 3)).reshape(n * n, -1)
            span = np.concatenate([ms, products.reshape(n * n, n, n)]).reshape(n + n * n, -1)
            commuting = _rank(np.linalg.svd(commutators, compute_uv=False), 2.0) == 0
            if commuting and _rank(np.linalg.svd(span, compute_uv=False)) <= n:
                rules.insert(-1, (2 * n - len(structure), "alder-strassen"))
    return (*max(rules, key=lambda rule: rule[0]), analysis)


def proven_lower_bound(t: PartyTensor) -> tuple[int, str]:
    """The largest proven lower bound on the number of product terms, and the
    rule that proves it: ``"pencil"`` or ``"alder-strassen"``, both checks on
    ``_slice_analysis(t)``, or ``"flattening"``."""
    return _proof(t)[:2]


def _local_algebra_fit(b: np.ndarray, rng: np.random.Generator) -> np.ndarray | None:
    """A 2·size - 1 term fit of one block's slices ``b`` where they span a local
    algebra whose radical N has N³ = 0, N² = ⟨s⟩ and PQ = B(P, Q)·s nondegenerate
    on N/N²; None elsewhere.  With uⱼuₖ = δⱼₖs, C[u₁]/(u₁³) multiplies by values
    at 5 points, each further uⱼ by (a + cⱼ)(a' + cⱼ') and cⱼcⱼ' (-aa' folded
    into the point 0), and a drawn cyclic vector w, Φ: Z ↦ Zw, maps the terms."""
    k, size = b.shape[:2]
    nil = (b - np.trace(b, axis1=1, axis2=2)[:, None, None] / size * np.eye(size)).reshape(k, -1)
    if size < 3:
        return None
    _, sv, basis = np.linalg.svd(nil)
    if _rank(sv, np.linalg.norm(b)) != size - 1:
        return None
    basis = basis[: size - 1].reshape(-1, size, size)
    products = (basis[:, None] @ basis[None]).reshape((size - 1) ** 2, -1)  # unit factors: norms <= 1
    coef, sv, square = np.linalg.svd(products)
    form = (coef[:, 0] * sv[0]).reshape(size - 1, size - 1)  # N² = ⟨s⟩, s the first row of square
    if _rank(sv, 1.0) != 1 or _rank(np.linalg.svd(form, compute_uv=False)) != size - 2:
        return None
    c = _normals(rng, size - 2, size - 1)
    for j in range(size - 2):  # Gram-Schmidt under B
        c[j] /= np.sqrt(c[j] @ form @ c[j])
        c[j + 1 :] -= np.outer(c[j + 1 :] @ form @ c[j], c[j])
    elems = np.concatenate([np.eye(size)[None], np.tensordot(c, basis, 1), square[:1].reshape(1, size, size)])
    w = _normals(rng, size)
    phi = (elems @ w).T  # column l is Eₗw, so Z has the coordinates Φ⁻¹(Zw)
    # term t: fₜ(coordinates of Mᵢ) times the column Wₜw and the row fₜ∘Φ⁻¹
    points = np.array([0, 1, 1j, -1, -1j])[:, None] ** np.arange(5)
    f, out = np.zeros((2 * size - 1, size), complex), np.zeros((size, 2 * size - 1), complex)
    f[:5, [0, 1, -1]], out[[0, 1, -1], :5] = points[:, :3], np.linalg.inv(points)[:3]
    for j in range(2, size - 1):
        f[2 * j + 1, [0, j]] = f[2 * j + 2, j] = 1
        out[j, [0, 2 * j + 1, 2 * j + 2]], out[-1, 2 * j + 2] = (-1, 1, -1), 1
    inv = np.linalg.pinv(phi)  # a w that is not cyclic leaves a residual, not an error
    return phi @ out @ ((f @ inv @ (b @ w).T).T[:, :, None] * (f @ inv))


def _exact_fit(t: PartyTensor, rank: int, analysis: tuple) -> RankProbeResult | None:
    """The ``"exact"`` entry for ``rank`` from the slice analysis a bound rule
    proved it with: the decomposition read off the generalized eigenspaces of
    its g, each block ``_local_algebra_fit``'s where that applies, else a
    scalar (its size in terms) plus a nilpotent part (the ranks of its
    principal components); None where that has other than ``rank`` terms or
    fits no better than ``FIT_TOL``.  It meets the bound on unit tensors,
    pencils with one defective eigenvalue and Jordan blocks at most 2 long,
    and algebras whose local factors have dimension 1 or 2 or a radical N
    with N³ = 0 and N² = ⟨s⟩ (as W⊗W's), so no bundled count runs ALS."""
    start = time.perf_counter()
    axis, x, ms, g, rng, structure = analysis
    sizes = [size for _, size, _ in structure]
    powers = [np.linalg.matrix_power(g - lam * np.eye(len(g)), size) for lam, size, _ in structure]
    u = np.hstack([np.linalg.svd(a)[2][len(a) - size :].conj().T for a, size in zip(powers, sizes)])
    blocks = np.linalg.solve(u, ms @ u)
    fit = np.zeros_like(blocks)
    terms = 0
    for first, size in zip(np.cumsum([0, *sizes]), sizes):
        part = np.s_[:, first : first + size, first : first + size]
        if (local := _local_algebra_fit(blocks[part], rng)) is not None:
            fit[part], terms = local, terms + 2 * size - 1
            continue
        fit[part] = np.trace(blocks[part], axis1=1, axis2=2)[:, None, None] / size * np.eye(size)
        terms += size  # the scalar part
        nilpotent = (blocks[part] - fit[part]).reshape(len(ms), -1)
        coef, sv, mats = np.linalg.svd(nilpotent, full_matrices=False)
        for q in range(_rank(sv, np.linalg.norm(blocks))):
            left, s, right = np.linalg.svd(mats[q].reshape(size, size))
            k = _rank(s)
            fit[part] += sv[q] * coef[:, q, None, None] * ((left[:, :k] * s[:k]) @ right[:k])
            terms += k
    residual = float(np.linalg.norm(np.moveaxis(t.data, axis, 0) - x @ u @ fit @ np.linalg.inv(u)))
    if terms != rank or not residual < FIT_TOL:
        return None
    return RankProbeResult(rank, residual, True, None, "exact", 0, time.perf_counter() - start)


def product_term_estimate(t: PartyTensor, config: ProbeConfig | None = None) -> ProductTermEstimate:
    """Scan ranks upward from ``proven_lower_bound`` until a fit converges.

    Ranks from the flattening bound up to below it get ``"excluded"`` entries
    and no fit; at the bound, ``_exact_fit``'s entry, read from the slice
    analysis that proved the bound, replaces ALS where it fits.  A count above
    the bound rests on failed probes, which prove nothing, so it is heuristic.
    Raises CapExceeded when no rank up to ``t.size`` converges.
    """
    lower, rule, analysis = _proof(t)
    flat = max(t.ranks)
    probes = [RankProbeResult(r, np.inf, False, None, "excluded", 0, 0.0) for r in range(flat, lower)]
    exact = rule != "flattening" and _exact_fit(t, lower, analysis)
    for r in range(lower, t.size + 1):
        probes.append(exact if r == lower and exact else cp_rank_probe(t, r, config))
        if probes[-1].converged:
            return ProductTermEstimate(r, r > lower, flat, tuple(probes), lower, rule)
    raise CapExceeded(f"no converged CP fit up to rank {t.size} (lower bound {lower}, {rule})")
