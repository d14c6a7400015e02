"""Single-copy conversion probabilities and catalysis impossibility verdicts.

The bipartite machinery is the standard optimal-protocol formula for pure
states (minimum over tail-sum ratios of the two Schmidt spectra).  For the
multiparty case every bipartite splitting of the parties gives an upper
bound, and the minimum over splittings bounds any collective protocol.
Cut layouts are memoized by party layout (the last 64), so a repeated bound
is one gather, one SVD and one tail-ratio kernel per cut shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CapExceeded, NotAProbabilityVector, RegisterMismatch, WrongArity
from .invariants import PartyTensor, ProbeConfig, product_term_estimate
from .states import PureState, _Report

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
        raise NotAProbabilityVector(f"{name} has a negative or NaN entry ({float(v.min())!r})")
    total = v.sum(axis=-1, keepdims=True)
    off = ~(abs(total - 1.0) <= 1e-9)
    if off.any():
        raise NotAProbabilityVector(f"{name} sums to {float(total[off][0])!r}, not 1")
    return np.maximum(v, 0.0)


def _tail_ratio(pair: np.ndarray) -> np.ndarray:
    """Vidal's formula on ``pair = (alpha, beta)``, two stacks of nonincreasing
    spectra of equal length along the last axis, each spectrum taken relative
    to its total: ``min_l sum_{i>=l} alpha_i / sum_{i>=l} beta_i`` over tail
    starts l, capped at 1, one value per row.  Tail starts where ``beta``'s
    tail vanishes are skipped (their ratio is +inf or 0/0)."""
    tails = pair[..., ::-1].cumsum(axis=-1)[..., ::-1]
    tails_a, tails_b = tails / tails[..., :1]
    live = tails_b >= ZERO_TAIL  # never empty: the first tail is 1
    ratios = np.where(live, tails_a, np.inf) / np.where(live, tails_b, 1.0)
    return np.minimum(ratios.min(axis=-1), 1.0)


def vidal_probability(alpha, beta) -> float | np.ndarray:
    """Optimal probability of converting spectrum ``alpha`` into ``beta``:
    the smallest tail-sum ratio ``sum_{i>=l} alpha_i / sum_{i>=l} beta_i``,
    capped at 1 (``_tail_ratio``), after padding both to a common length and
    sorting them nonincreasing.  Two spectra give a float; spectra stacked
    along the last axis give an array with one probability per row.
    """
    a = _as_spectrum(alpha, "alpha")
    b = _as_spectrum(beta, "beta")
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (max(a.shape[-1], b.shape[-1]),)
    pair = np.zeros((2, *shape))  # both spectra, sorted and zero-filled
    for t, v in zip(pair, (a, b)):
        t[..., : v.shape[-1]] = np.sort(v, axis=-1)[..., ::-1]
    p = _tail_ratio(pair)
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
        if source.register.parties.count(p) != target.register.parties.count(p):
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


@lru_cache(maxsize=64)
def _cut_plan(source: tuple[str, ...], target: tuple[str, ...]) -> tuple[tuple[str, ...], tuple]:
    """The cut keys of two compatible party layouts (their registers' ``parties``)
    and, per cut shape, the keys of its cuts with one read-only index array that
    gathers all their matrices, source then target, from both states' amplitudes."""
    labels, size = tuple(sorted(set(source))), 2 ** len(source)
    cuts, groups = splitting_cuts(labels), {}
    # a cut's spectrum is read from its smaller side (the singular values are
    # the same either way), so the cuts with as many rows share one SVD
    for left, key in cuts:
        right, dim = tuple(p for p in labels if p not in left), 2 ** sum(p in left for p in source)
        if dim**2 > size:
            left, right, dim = right, left, size // dim
        groups.setdefault(dim, []).append((key, left + right))
    plan = []
    for dim, group in groups.items():
        # sites by their party's place in the rows then the columns, in register order within a party
        sites = [sorted(range(len(ps)), key=lambda i: cut.index(ps[i])) for ps in (source, target) for _, cut in group]
        index = np.stack([np.arange(size).reshape((2,) * len(s)).transpose(s).reshape(dim, -1) for s in sites])
        index[len(group) :] += size
        index.setflags(write=False)
        plan.append((tuple(key for key, _ in group), index))
    return tuple(key for _, key in cuts), tuple(plan)


def splitting_bound(source: PureState, target: PureState) -> ConversionBound:
    """Minimum over party bipartitions of the bipartite conversion probability.

    Both states must carry the same parties with the same per-party site
    counts.  Every cut upper-bounds any collective local protocol, so the
    minimum does too.
    """
    _compatible_registers(source, target)
    keys, plan = _cut_plan(source.register.parties, target.register.parties)
    amps = np.concatenate((source.amplitudes, target.amplitudes))
    per_cut: dict[str, float] = dict.fromkeys(keys)
    for group, index in plan:
        # squared singular values come nonincreasing, as the kernel takes them
        spectra = np.linalg.svd(amps[index], compute_uv=False) ** 2
        per_cut.update(zip(group, _tail_ratio(spectra.reshape(2, len(group), -1)).tolist()))
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
