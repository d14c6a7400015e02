"""Single-copy conversion probabilities and catalysis impossibility verdicts.

The bipartite machinery is the standard optimal-protocol formula for pure
states (minimum over tail-sum ratios of the two Schmidt spectra).  For the
multiparty case every bipartite splitting of the parties gives an upper
bound, and the minimum over splittings bounds any collective protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CapExceeded, NotAProbabilityVector, RegisterMismatch, WrongArity
from .invariants import PartyTensor, ProbeConfig, product_term_estimate
from .states import PureState, _cut, _Report

ZERO_TAIL = 1e-12

IMPOSSIBLE = "impossible"
UNDETERMINED = "undetermined"
_FIT_NOTE = (
    "product-term counts rest on a converged-fit search; failures below the found rank are evidence, not proof"
)


def _as_spectrum(x, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.size == 0:
        raise NotAProbabilityVector(f"{name} is empty")
    # one spectrum per row along the last axis, each checked; written so that
    # NaN entries fail the checks too
    if not (v.min(axis=-1) >= -1e-12).all():
        raise NotAProbabilityVector(f"{name} has a negative or NaN entry ({v.min()!r})")
    total = v.sum(axis=-1, keepdims=True)
    off = ~(abs(total - 1.0) <= 1e-9)
    if off.any():
        raise NotAProbabilityVector(f"{name} sums to {total[off][0]!r}, not 1")
    return np.maximum(v, 0.0)


def vidal_probability(alpha, beta) -> float | np.ndarray:
    """Optimal probability of converting spectrum ``alpha`` into ``beta``.

    ``P = min_l  sum_{i>=l} alpha_i / sum_{i>=l} beta_i`` over tail starts l,
    after padding to a common length and sorting nonincreasing.  Tail starts
    where ``beta``'s tail vanishes are skipped (their ratio is +inf or 0/0).
    The result is clamped to [0, 1].  Two spectra give a float; spectra
    stacked along the last axis give an array with one probability per row.
    """
    a = _as_spectrum(alpha, "alpha")
    b = _as_spectrum(beta, "beta")
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (max(a.shape[-1], b.shape[-1]),)
    tails = np.zeros((2, *shape))  # both spectra, sorted and zero-filled
    for t, v in zip(tails, (a, b)):
        t[..., : v.shape[-1]] = np.sort(v, axis=-1)[..., ::-1]
    tails_a, tails_b = np.cumsum(tails[..., ::-1], axis=-1)[..., ::-1]
    live = tails_b >= ZERO_TAIL  # never empty: the first tail is 1
    best = np.min(tails_a / np.where(live, tails_b, 1.0), axis=-1, where=live, initial=np.inf)
    p = np.clip(best, 0.0, 1.0)
    return float(p) if p.ndim == 0 else p


@dataclass(frozen=True)
class ConversionBound(_Report):
    """Upper bound on the collective conversion probability, cut by cut."""

    per_cut: dict[str, float]
    bound: float


def _compatible_registers(source: PureState, target: PureState) -> tuple[str, ...]:
    ps = source.register.party_labels()
    pt = target.register.party_labels()
    if ps != pt:
        raise RegisterMismatch(f"party sets differ: {ps} vs {pt}")
    if len(ps) < 2:
        raise WrongArity(f"a conversion between parties needs two or more of them, got {ps}")
    for p in ps:
        if len(source.register.sites_of([p])) != len(target.register.sites_of([p])):
            raise RegisterMismatch(f"party {p} holds different site counts")
    return ps


def splitting_cuts(parties: Sequence[str]) -> list[tuple[tuple[str, ...], str]]:
    """Canonical bipartitions: one per complement pair, anchored on the
    lexicographically smallest party."""
    parties = tuple(sorted(parties))
    anchor, rest = parties[0], parties[1:]
    cuts = []
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            left = (anchor,) + extra
            right = tuple(p for p in parties if p not in left)
            if not right:
                continue
            cuts.append((left, "".join(left) + "|" + "".join(right)))
    return cuts


def splitting_bound(source: PureState, target: PureState) -> ConversionBound:
    """Minimum over party bipartitions of the bipartite conversion probability.

    Both states must carry the same parties with the same per-party site
    counts.  Every cut upper-bounds any collective local protocol, so the
    minimum does too.
    """
    parties = _compatible_registers(source, target)
    cuts, n = splitting_cuts(parties), source.n_sites
    # a cut's spectrum is read from its smaller side (the singular values are
    # the same either way), so the cuts with as many row sites share one SVD
    groups: dict[int, list[tuple[str, tuple[str, ...]]]] = {}
    for left, key in cuts:
        k = len(source.register.sites_of(left))
        rows = left if 2 * k <= n else tuple(p for p in parties if p not in left)
        groups.setdefault(min(k, n - k), []).append((key, rows))
    per_cut: dict[str, float] = dict.fromkeys(key for _, key in cuts)
    for group in groups.values():
        mats = [_cut(s, s.register.sites_of(rows)) for _, rows in group for s in (source, target)]
        spectra = np.linalg.svd(np.stack(mats), compute_uv=False) ** 2
        per_cut.update(zip((key for key, _ in group), vidal_probability(spectra[0::2], spectra[1::2]).tolist()))
    return ConversionBound(per_cut, min(per_cut.values()))


# ---------------------------------------------------------------------------
# catalysis verdicts


class PartyRank(NamedTuple):
    """One party's rank on each side; a report writes it as an object."""

    party: str
    source_rank: int
    target_rank: int


@dataclass(frozen=True)
class RankObstruction(_Report):
    """What the per-party ranks exclude: either the whole transformation
    (a target rank exceeds the source rank) or every non-invertible local
    operator (all ranks equal)."""

    kind: str  # "target_rank_exceeds_source" | "equal_ranks_exclude_noninvertible"
    triples: tuple[PartyRank, ...]


@dataclass(frozen=True)
class ProductTermObstruction(_Report):
    """Converged product-term counts that differ, excluding invertible operators."""

    source_terms: int
    target_terms: int
    heuristic: bool


@dataclass(frozen=True)
class CatalysisVerdict(_Report):
    feasible: str  # IMPOSSIBLE | UNDETERMINED
    party_ranks: tuple[PartyRank, ...]
    rank_obstruction: RankObstruction | None = None
    product_term_obstruction: ProductTermObstruction | None = None
    notes: tuple[str, ...] = field(default=())


def catalysis_verdict(
    source: PureState,
    target: PureState,
    config: ProbeConfig | None = None,
) -> CatalysisVerdict:
    """Decide whether ``source -> target`` under one local operator per party
    is excluded, with the resource state already folded into both sides.

    Rank monotonicity kills any transformation whose target rank exceeds the
    source rank somewhere.  When all per-party ranks agree, non-invertible
    operators are excluded; if on top of that the product-term counts differ
    (each met by an exact decomposition or a converged probe), invertible
    operators are excluded too and the verdict is impossible.  Anything else
    stays undetermined, with the evidence gathered so far attached.

    Each side becomes one ``PartyTensor``, whose ranks give the per-party
    ranks and which ``product_term_estimate`` scans with ``config`` (the
    default ``ProbeConfig()`` when None); ``--seed N`` on the command line
    passes ``ProbeConfig(seed=N)``.
    """
    parties = _compatible_registers(source, target)
    tensors = [PartyTensor.from_state(s) for s in (source, target)]
    triples = tuple(map(PartyRank, parties, *(t.ranks for t in tensors)))

    exceeding = tuple(t for t in triples if t.target_rank > t.source_rank)
    if exceeding:
        return CatalysisVerdict(
            feasible=IMPOSSIBLE,
            party_ranks=triples,
            rank_obstruction=RankObstruction("target_rank_exceeds_source", exceeding),
        )

    if any(t.source_rank != t.target_rank for t in triples):
        return CatalysisVerdict(
            feasible=UNDETERMINED,
            party_ranks=triples,
            notes=("rank profiles differ but never increase; ranks alone decide nothing",),
        )

    # equal ranks everywhere: non-invertible local operators are excluded
    try:
        est_src, est_tgt = (product_term_estimate(t, config) for t in tensors)
    except CapExceeded as exc:
        return CatalysisVerdict(
            feasible=UNDETERMINED,
            party_ranks=triples,
            notes=(f"product-term probe inconclusive: {exc}",),
        )

    if est_src.terms != est_tgt.terms:
        heuristic = est_src.heuristic or est_tgt.heuristic
        return CatalysisVerdict(
            feasible=IMPOSSIBLE,
            party_ranks=triples,
            rank_obstruction=RankObstruction("equal_ranks_exclude_noninvertible", triples),
            product_term_obstruction=ProductTermObstruction(
                source_terms=est_src.terms,
                target_terms=est_tgt.terms,
                heuristic=heuristic,
            ),
            notes=(_FIT_NOTE,) if heuristic else (),
        )

    return CatalysisVerdict(
        feasible=UNDETERMINED,
        party_ranks=triples,
        notes=(
            f"equal ranks and equal product-term estimates "
            f"({est_src.terms} vs {est_tgt.terms}); nothing excluded",
        ),
    )
