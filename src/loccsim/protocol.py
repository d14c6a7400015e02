"""Branching simulator for local protocols: measurements, local unitaries,
and teleportation over shared maximally entangled pairs.

Measured qubits leave the register, so post-measurement states live on the
remaining sites.  Teleportation is collapsed to its deterministic net effect
(the far site takes over the source qubit's role).  Every step is plain
data, checked with ``_check_step`` and planned on its register before any
branch runs; the last ``PLAN_MEMO_SIZE`` plans that passed are kept by the
value of every field the check reads, so the same steps on the same register
are checked once.  Branches run array kernels, which the primitives
(``measure``, ``apply_unitary``, ``teleport``) call after the same check;
per branch only a teleport's test that its pair holds the resource state
runs, as that depends on the branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    MalformedProtocol,
    NotAnEprResource,
    NotUnitary,
    SiteOwnership,
)
from .invariants import _tangle, _unfold
from .states import PureState, Register, _cut, _doc, _Report

BRANCH_DROP = 1e-14
UNITARY_TOL = 1e-10
EPR_TOL = 1e-9
SUCCESS_TOL = 1e-9
PLAN_MEMO_SIZE = 64  # plans kept, first in first out

_SQ2 = np.sqrt(2.0)

BASIS_Z = np.eye(2, dtype=np.complex128)
BASIS_X = np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQ2
_NAMED_BASES = {"Z": BASIS_Z, "X": BASIS_X}

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


# ---------------------------------------------------------------------------
# steps


@dataclass(frozen=True)
class Measure:
    """Single-site projective measurement; rows of ``basis`` are the outcome bras.

    ``accept`` filters branches: outcomes other than the accepted one end
    there as failure leaves.
    """

    party: str
    site: int
    basis: str | np.ndarray = "Z"
    accept: str = "*"  # "0" | "1" | "*"


@dataclass(frozen=True)
class Unitary:
    """Local unitary on sites owned by one party.

    Each branch carries an outcome record: one character, ``0`` or ``1``,
    per ``Measure`` step it has passed, in step order.  ``when`` is None for
    a unitary that always applies.  Otherwise it is a pattern with one
    character per measurement before this step, each ``0``, ``1`` or ``*``;
    the unitary applies on a branch whose record equals the pattern at every
    position that is not ``*``.  This is how corrections conditioned on
    announced outcomes are written.
    """

    party: str
    sites: tuple[int, ...]
    matrix: np.ndarray
    when: str | None = None


@dataclass(frozen=True)
class Teleport:
    """Send the qubit at ``source`` through the pair (``near``, ``far``)."""

    source: int
    near: int
    far: int


Step = Measure | Unitary | Teleport


@dataclass(frozen=True)
class Target:
    """Success test for protocol leaves.

    ``exact``: modulus of the overlap with ``state`` exceeds 1 - 1e-9.
    ``ghz-lu``: the three designated sites are locally unitary equivalent to
    the maximally entangled triple (flat single-site spectra, tangle 1) and
    any leftover sites factor out.
    """

    mode: str  # "exact" | "ghz-lu"
    state: PureState | None = None
    sites: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class Protocol:
    steps: tuple[Step, ...]
    target: Target
    name: str = ""


class PreparedProtocol(NamedTuple):
    """A protocol together with the input state it is meant to run on."""

    state: PureState
    protocol: Protocol

    def run(self) -> BranchNode:
        return run_protocol(self.state, self.protocol)


# ---------------------------------------------------------------------------
# primitive operations


def _checked_unitary(matrix, k: int, step, what: str = "matrix") -> np.ndarray:
    """``matrix`` as a complex array of its own, checked to be a unitary on
    ``k`` qubits; ``step`` goes into the NotUnitary raised otherwise."""
    try:
        u = np.array(matrix, dtype=np.complex128)
    except (TypeError, ValueError):
        raise NotUnitary(f"{what} does not convert to complex values", step=step) from None
    if u.shape != (2**k, 2**k):
        raise NotUnitary(f"{what} shape {u.shape} does not act on {k} qubits", step=step)
    # written so that a NaN entry fails the check
    if not np.abs(u @ u.conj().T - np.eye(2**k)).max() <= UNITARY_TOL:
        raise NotUnitary(f"{what} is not unitary within 1e-10", step=step)
    return u


def _resolve_basis(basis, step) -> np.ndarray:
    """The outcome bras of a basis name (Z or X) or a 2x2 unitary."""
    if not isinstance(basis, str):
        return _checked_unitary(basis, 1, step, "measurement basis")
    if basis.upper() not in _NAMED_BASES:
        raise NotUnitary(f"unknown basis name {basis!r}", step=step)
    return _NAMED_BASES[basis.upper()]


def _check_step(step: Step, reg: Register, live: tuple[int, ...], measured: int, i=None):
    """Check one step against register ``reg``, of which the sites ``live``
    are still live, on branches whose outcome records have length
    ``measured``; returns a measurement's basis rows or a unitary's matrix.

    This is the one check of which sites are live and who holds them, and
    of what a step carries (bases, matrices, accept tokens and ``when``
    patterns).  Its errors carry ``i``, the step's index in a protocol, or
    None when a primitive operation checks its own arguments.
    """
    if isinstance(step, Teleport):
        # the near pair site sits with the party sending the source
        sites, held = (step.source, step.near, step.far), (step.near,)
    elif isinstance(step, (Measure, Unitary)):
        if step.party not in reg.parties:
            raise MalformedProtocol(f"unknown party {step.party!r}", step=i)
        # a measurement or unitary acts only on sites of its own party
        try:
            sites = held = (step.site,) if isinstance(step, Measure) else tuple(step.sites)
        except TypeError:
            raise MalformedProtocol(f"sites must be a sequence, got {step.sites!r}", step=i) from None
    else:
        raise MalformedProtocol(f"unknown step {step!r}", step=i)
    for x in sites:
        if x not in live:
            why = "was already consumed" if x in reg.sites else "is not in the register"
            raise MalformedProtocol(f"site {x} {why}", step=i)
    if len(set(sites)) != len(sites):
        raise MalformedProtocol(f"a step's sites must differ, got {sites}", step=i)
    party = reg.party_of(step.source) if isinstance(step, Teleport) else step.party
    for x in held:
        if reg.party_of(x) != party:
            raise SiteOwnership(
                f"site {x} belongs to {reg.party_of(x)!r}, not to the acting party {party!r}", step=i
            )
    if isinstance(step, Measure):
        if live == (step.site,):
            raise MalformedProtocol(f"measuring site {step.site} would leave no site to hold the state", step=i)
        rows = _resolve_basis(step.basis, i)
        if step.accept not in ("0", "1", "*"):
            raise MalformedProtocol(f"bad accept token {step.accept!r}", step=i)
        return rows
    if isinstance(step, Unitary):
        u = _checked_unitary(step.matrix, len(sites), i)
        when = step.when
        if when is not None and not (isinstance(when, str) and len(when) == measured and set(when) <= set("01*")):
            raise MalformedProtocol(f"when must be a pattern of {measured} characters 0, 1 or *, got {when!r}", step=i)
        return u


def _resolve(step: Step, reg: Register, checked) -> tuple[tuple, tuple[int, ...]]:
    """The kernel arguments of ``step`` on register ``reg``, given what
    ``_check_step`` returned for it, and the sites the step consumes."""
    if isinstance(step, Measure):
        ax = reg.axis_of(step.site)
        return ((2**ax, 2, 2 ** (reg.n_sites - ax - 1)), checked), (step.site,)

    def front(*sites: int) -> tuple[int, ...]:
        axes = tuple(reg.axis_of(x) for x in sites)
        return axes + tuple(a for a in range(reg.n_sites) if a not in axes)

    shape = (2,) * reg.n_sites
    if isinstance(step, Unitary):
        order = front(*step.sites)
        return (checked, shape, order, tuple(np.argsort(order).tolist())), ()
    return (shape, front(step.near, step.far), front(step.source, step.near)), (step.source, step.near)


def _measure(s: PureState, args, reg: Register) -> list[tuple[str, float, PureState]]:
    """Both outcomes at once: the outcome bras times the amplitudes as an
    ``(L, 2, R)`` array around the measured axis; post-states live on ``reg``."""
    shape, rows = args
    out = rows @ s.amplitudes.reshape(shape)
    probs = np.einsum("ikj,ikj->k", out, out.conj()).real.tolist()
    kept = [(k, p) for k, p in enumerate(probs) if p >= BRANCH_DROP]
    return [(str(k), p, PureState(reg, out[:, k].reshape(-1) / np.sqrt(p))) for k, p in kept]


def _unitary(s: PureState, args) -> PureState:
    """``u`` times the amplitudes with the unitary's sites brought to the front."""
    u, shape, order, inverse = args
    t = s.amplitudes.reshape(shape).transpose(order).reshape(len(u), -1)
    return PureState(s.register, (u @ t).reshape(shape).transpose(inverse).reshape(-1))


_EPR_PROJECTOR = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2


def _teleport(s: PureState, args, reg: Register) -> PureState:
    """Test that the pair holds the resource state on this ``s``, then take
    the teleport's net effect; the result lives on ``reg``."""
    shape, pair, through = args
    t = s.amplitudes.reshape(shape)
    m = t.transpose(pair).reshape(4, -1)
    # the projector is symmetric under swapping the pair, so site order is moot
    if not np.abs(m @ m.conj().T - _EPR_PROJECTOR).max() <= EPR_TOL:
        sites = (s.register.sites[pair[0]], s.register.sites[pair[1]])
        raise NotAnEprResource(f"sites {sites} are not in the maximally entangled pair state")
    # project (source, near) onto the maximally entangled bra and rescale:
    # for a resource pair this is exactly the identity channel onto far
    m = t.transpose(through).reshape(4, -1)
    v = (m[0] + m[3]) * _SQ2
    return PureState(reg, v / np.sqrt(np.vdot(v, v).real))


def measure(
    s: PureState, party: str, site: int, basis="Z"
) -> list[tuple[str, float, PureState]]:
    """Measure one site; returns (outcome, probability, post-state) branches.

    The measured site is removed from the register.  Branches below the
    probability floor are dropped; outcome "0" is listed first.
    """
    step = Measure(party, site, basis)
    args, gone = _resolve(step, s.register, _check_step(step, s.register, s.register.sites, 0))
    return _measure(s, args, s.register.without(gone))


def apply_unitary(
    s: PureState, party: str, sites: Sequence[int], matrix: np.ndarray
) -> PureState:
    """Apply a ``2^k x 2^k`` unitary to ``sites`` (first listed site is the
    most significant index of the matrix)."""
    step = Unitary(party, sites, matrix)
    return _unitary(s, _resolve(step, s.register, _check_step(step, s.register, s.register.sites, 0))[0])


def teleport(s: PureState, source: int, epr_sites: tuple[int, int]) -> PureState:
    """Deterministic net effect of teleporting ``source`` through the pair.

    ``epr_sites = (near, far)``: the near site sits with the sending party,
    the far site ends up carrying the source qubit's role.  Source and near
    leave the register.
    """
    try:
        near, far = epr_sites
    except (TypeError, ValueError):
        raise MalformedProtocol(f"epr_sites must be a (near, far) pair, got {epr_sites!r}") from None
    step = Teleport(source, near, far)
    args, gone = _resolve(step, s.register, _check_step(step, s.register, s.register.sites, 0))
    return _teleport(s, args, s.register.without(gone))


# ---------------------------------------------------------------------------
# protocol runner


@dataclass(frozen=True)
class BranchNode(_Report):
    """One node of a protocol's branch tree; ``run_protocol`` returns the root."""

    record: str
    prob: float
    state: PureState | None
    status: str  # "internal" | "success" | "failure"
    children: tuple["BranchNode", ...] = ()

    def to_dict(self) -> dict:
        # a report derives success from the status and leaves out the state
        success = None if self.status == "internal" else self.status == "success"
        return _doc({"record": self.record, "prob": self.prob, "success": success, "children": self.children})

    def leaves(self) -> list["BranchNode"]:
        return [leaf for c in self.children for leaf in c.leaves()] if self.children else [self]

    @property
    def success_probability(self) -> float:
        """The summed probability of the success leaves under this node."""
        return float(sum(leaf.prob for leaf in self.leaves() if leaf.status == "success"))


_PLANS: dict = {}  # plan key -> (plan, surviving sites), at most PLAN_MEMO_SIZE


def _plan_key(reg: Register, steps: Sequence[Step]) -> tuple | None:
    """The register and, per step, every field ``_check_step`` and ``_resolve``
    read, in the form they read it (a matrix as its complex128 values); None
    when a field does not fit a key, so that planning raises as unkept."""

    def values(m) -> tuple:
        a = np.asarray(m, dtype=np.complex128)
        return a.shape, a.tobytes()

    try:
        key = [reg]
        for step in steps:
            if isinstance(step, Measure):
                basis = step.basis if type(step.basis) is str else values(step.basis)
                key.append((type(step), step.party, step.site, basis, step.accept))
            elif isinstance(step, Unitary):
                key.append((type(step), step.party, tuple(step.sites), values(step.matrix), step.when))
            else:
                key.append((type(step), step.source, step.near, step.far))
        hash(key := tuple(key))
        return key
    except Exception:  # whatever fails here fails the check too, with its step
        return None


def _plan(s: PureState, steps: Sequence[Step]) -> tuple[tuple, tuple[int, ...]]:
    """Check the steps in order against the register of ``s`` and resolve
    each on the register it meets; returns one (step, kernel arguments,
    register after the step) entry per step, the same on every branch, and
    the sites that survive the steps, in register order.

    Each step goes through ``_check_step``, the check the primitive
    operations also run, whether or not a branch reaches the step; this is
    the protocol check of ``run_protocol`` and the protocol file parser,
    made once per ``_plan_key``.
    """
    key = _plan_key(s.register, steps)
    kept = _PLANS.get(key)  # one lookup, so a plan another thread drops is no KeyError
    if kept is not None:
        return kept
    plan, reg, live, measured = [], s.register, s.register.sites, 0
    for i, step in enumerate(steps):
        args, gone = _resolve(step, reg, _check_step(step, s.register, live, measured, i))
        live = tuple(x for x in live if x not in gone)
        if gone:
            reg = reg.without(gone)
        plan.append((step, args, reg))
        measured += isinstance(step, Measure)
    planned = tuple(plan), live
    if key is not None:
        _PLANS[key] = planned
        for old in list(_PLANS)[:-PLAN_MEMO_SIZE]:  # the oldest go first
            _PLANS.pop(old, None)
    return planned


def _check_target(s: PureState, tgt: Target, final: tuple[int, ...]) -> None:
    """Check the target against the sites ``final`` that survive the steps."""
    bad = partial(MalformedProtocol, step="target")
    if tgt.mode == "exact":
        if tgt.state is None:
            raise bad("exact target needs a state")
        want = tgt.state.register
        got_parties = tuple(s.register.party_of(x) for x in final)
        if want.sites != final or want.parties != got_parties:
            raise bad(
                f"exact target register {want.sites}/{want.parties} does not match "
                f"surviving sites {final}/{got_parties}"
            )
    elif tgt.mode == "ghz-lu":
        if tgt.sites is None or len(set(tgt.sites)) != 3:
            raise bad("ghz-lu target needs three distinct sites")
        for x in tgt.sites:
            if x not in final:
                raise bad(f"ghz-lu site {x} does not survive the protocol")
    else:
        raise bad(f"unknown target mode {tgt.mode!r}")


# the single-site unfoldings of a 2x2x2 array, as indices into its 8 entries
_UNFOLD3 = np.stack([_unfold(np.arange(8).reshape(2, 2, 2), k) for k in range(3)])


def _ghz_lu_success(leaf: PureState, sites: tuple[int, int, int]) -> bool:
    triple = leaf.amplitudes  # when the three sites are the whole register
    if leaf.n_sites > 3:
        kept = tuple(x for x in leaf.register.sites if x in set(sites))
        u, sv, _ = np.linalg.svd(_cut(leaf, kept), full_matrices=False)
        # the rest factors out when the purity of its reduced state is 1
        if np.sum(sv**4) < 1.0 - SUCCESS_TOL:
            return False
        triple = u[:, 0]
    # each single-site density must be flat: a unit-trace 2x2 density r has
    # its eigenvalues at 1/2 +- sqrt(((r00 - r11)/2)^2 + |r01|^2)
    m = triple[_UNFOLD3]
    r = m @ m.conj().transpose(0, 2, 1)
    if np.max(np.hypot((r[:, 0, 0] - r[:, 1, 1]).real / 2, np.abs(r[:, 0, 1]))) > SUCCESS_TOL:
        return False
    return abs(_tangle(triple) - 1.0) <= SUCCESS_TOL


def _leaf_success(leaf: PureState, target: Target) -> bool:
    if target.mode == "exact":
        return abs(leaf.overlap(target.state)) > 1.0 - SUCCESS_TOL
    return _ghz_lu_success(leaf, target.sites)


def run_protocol(s: PureState, p: Protocol) -> BranchNode:
    """Execute all branches and grade the surviving leaves against the target;
    returns the root of the branch tree.

    Branches a measurement does not accept stay in the tree as failure
    leaves and contribute zero success probability; children probabilities
    always sum to their parent's.
    Every step and the target are checked before any branch runs, so a bad
    step raises MalformedProtocol, SiteOwnership or NotUnitary even where no
    branch reaches it.
    """
    plan, final = _plan(s, p.steps)
    _check_target(s, p.target, final)

    def expand(state: PureState, record: str, prob: float, idx: int) -> BranchNode:
        while idx < len(plan):
            step, args, reg = plan[idx]
            idx += 1
            if isinstance(step, Measure):
                children = tuple(
                    expand(post, record + k, prob * pk, idx) if step.accept in ("*", k)
                    else BranchNode(record + k, prob * pk, post, "failure")
                    for k, pk, post in _measure(state, args, reg)
                )
                return BranchNode(record, prob, state, "internal", children)
            if isinstance(step, Teleport):
                state = _teleport(state, args, reg)
            elif step.when is None or all(want in ("*", got) for want, got in zip(step.when, record)):
                state = _unitary(state, args)
        return BranchNode(record, prob, state, "success" if _leaf_success(state, p.target) else "failure")

    return expand(s, "", 1.0, 0)
