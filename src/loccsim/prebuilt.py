"""Canonical input states and the built-in protocols.

The conversions bundled here come in matched (input state, protocol) pairs,
since the step sequences act on fixed registers.  Catalysis instances are
exposed as (source, target) pairs ready for ``catalysis_verdict``.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterOutOfRange, WrongArity
from .protocol import (
    CNOT,
    PAULI_X,
    PAULI_Z,
    Measure,
    PreparedProtocol,
    Protocol,
    Target,
    Teleport,
    Unitary,
)
from .states import _SQRT_HALF, PureState, Register, _basis_state, epr, ghz, tensor, w_family, w_state

# sites 1-3, one per party, where every bundled input keeps its triple
_ABC = Register.for_parties("A", "B", "C")

# weight domain of the one-parameter conversion family
_WEIGHT_LO = 1 / 3
_WEIGHT_HI = 1 / 2
_WEIGHT_SLACK = 1e-12


def _check_weight(x: float, name: str) -> float:
    x = float(x)
    if not (_WEIGHT_LO - _WEIGHT_SLACK <= x < _WEIGHT_HI):
        raise ParameterOutOfRange(f"{name} must lie in [1/3, 1/2), got {x!r}")
    return x


# ---------------------------------------------------------------------------
# catalysis instances


def bipartite_catalysis_pair(
    a: float = 1 / 3,
    b: float = 1 / 3,
    c: float = 1 / 3,
    alpha: float = 0.5,
    beta: float = 0.5,
) -> tuple[PureState, PureState]:
    """(source, target) for the pair-catalyst question.

    Source is the three-party state with weights (a, b, c) together with a
    pair ``sqrt(alpha)|00> + sqrt(beta)|11>`` held by B and C (sites 4, 5);
    the target carries the maximally entangled triple instead, same pair.
    """
    cat = _basis_state(Register.of([(4, "B"), (5, "C")]), {0b00: np.sqrt(alpha), 0b11: np.sqrt(beta)})
    return (
        tensor(w_family(a, b, c, 0.0, _ABC), cat),
        tensor(ghz(_ABC), cat),
    )


def tripartite_catalysis_pair(catalyst: str = "w") -> tuple[PureState, PureState]:
    """(source, target) for the triple-catalyst question.

    Sites 1-3 hold the state to convert, sites 4-6 the catalyst; both
    registers are split over A, B, C in order.
    """
    reg_cat = Register.of([(4, "A"), (5, "B"), (6, "C")])
    if catalyst == "w":
        cat = w_state(reg_cat)
    elif catalyst == "ghz":
        cat = ghz(reg_cat)
    else:
        raise ParameterOutOfRange(f"catalyst must be 'w' or 'ghz', got {catalyst!r}")
    return (
        tensor(w_state(_ABC), cat),
        tensor(ghz(_ABC), cat),
    )


# ---------------------------------------------------------------------------
# the one-EPR conversion protocol and its role-swapped variants


# each party's site among 1-3; the holder of the near pair site 4 per placement
_SITE = {"A": 1, "B": 2, "C": 3}
_NEAR_PARTY = {"BC": "B", "AC": "A"}


def _near_party(placement: str) -> str:
    if placement not in _NEAR_PARTY:
        raise ParameterOutOfRange(f"placement must be 'BC' or 'AC', got {placement!r}")
    return _NEAR_PARTY[placement]


def _pair_input(x: float, measurer: str, near: str) -> PureState:
    """Weight 1-2x on the measurer's site and x on the other two of sites
    1-3, plus an EPR pair: site 4 with ``near``, site 5 with the measurer."""
    weights = [1 - 2 * x if party == measurer else x for party in _ABC.parties]
    return tensor(w_family(*weights, 0.0, _ABC), epr(Register.of([(4, near), (5, measurer)])))


def _pair_conversion(x: float, measurer: str, near: str, name: str) -> PreparedProtocol:
    """The one-pair conversion on ``_pair_input(x, measurer, near)``.

    The measurer measures its site of 1-3 (only outcome 0 continues); the
    near party copies its own site onto the near pair site with a CNOT and
    measures it; both outcomes succeed.  Success probability 2x.
    """
    measured = _SITE[measurer]
    steps = (
        Measure(measurer, measured, "Z", accept="0"),
        Unitary(near, (_SITE[near], 4), CNOT),
        Measure(near, 4, "Z", accept="*"),
    )
    kept = tuple(site for site in _SITE.values() if site != measured) + (5,)
    target = Target("ghz-lu", sites=kept)
    return PreparedProtocol(_pair_input(x, measurer, near), Protocol(steps, target, name=name))


def prop3_input(a: float, placement: str = "BC") -> PureState:
    """Weights (a, a, 1-2a) on sites 1-3 plus an EPR pair on sites 4, 5.

    ``placement`` names the parties holding the pair: "BC" (site 4 with B)
    or "AC" (site 4 with A); the far half (site 5) is Charlie's either way.
    """
    return _pair_input(_check_weight(a, "a"), "C", _near_party(placement))


def prop3_target(placement: str = "BC") -> PureState:
    """The exact final state: maximally entangled triple on sites (1, 2, 5),
    measured-out sites 3 and 4 left in |00>."""
    reg = Register(tuple(range(1, 6)), ("A", "B", "C", _near_party(placement), "C"))
    return _basis_state(reg, dict.fromkeys((0b00000, 0b11001), _SQRT_HALF))


def prop3(a: float, placement: str = "BC") -> PreparedProtocol:
    """Convert weights (a, a, 1-2a) plus one EPR pair into the GHZ state.

    Charlie measures site 3 (only outcome 0 continues), the party holding
    the near pair half copies its remaining qubit onto it with a CNOT and
    measures it; both outcomes succeed.  Success probability 2a.
    """
    return _pair_conversion(_check_weight(a, "a"), "C", _near_party(placement), f"prop3[{placement}]")


def prop3_b(b: float) -> PreparedProtocol:
    """Same conversion for weights (1-2b, b, b): Alice measures site 1,
    Bob runs the CNOT side.  Pair on sites 4 (B) and 5 (A)."""
    return _pair_conversion(_check_weight(b, "b"), "A", "B", "prop3_b")


def prop3_c(c: float) -> PreparedProtocol:
    """Same conversion for weights (c, 1-2c, c): Bob measures site 2,
    Charlie runs the CNOT side.  Pair on sites 4 (C) and 5 (B)."""
    return _pair_conversion(_check_weight(c, "c"), "B", "C", "prop3_c")


# ---------------------------------------------------------------------------
# teleportation-based conversions


def _rebuild(s: PureState, sites: tuple[int, ...], parties: tuple[str, ...]) -> PureState:
    return PureState(Register(sites, parties), s.amplitudes)


def intro_teleport() -> PreparedProtocol:
    """W-type sharing plus one EPR pair (A, B) into a shared GHZ, p = 2/3.

    Alice measures her site; on outcome 0 the leftover (2, 3) pair is one X
    away from maximally entangled.  Bob, holding a locally prepared GHZ on
    sites 6-8, teleports site 6 to Alice through (5, 4) and site 7 to
    Charlie through (2, 3).  The ancilla triple is part of the input
    register from the start; "prepared locally" means it costs nothing.
    """
    pair = Register.of([(4, "A"), (5, "B")])
    local = Register.of([(6, "B"), (7, "B"), (8, "B")])
    state = tensor(tensor(w_state(_ABC), epr(pair)), ghz(local))
    steps = (
        Measure("A", 1, "Z", accept="0"),
        Unitary("B", (2,), PAULI_X),
        Teleport(6, 5, 4),
        Teleport(7, 2, 3),
    )
    target = Target("exact", state=ghz(Register.of([(3, "C"), (4, "A"), (8, "B")])))
    return PreparedProtocol(state, Protocol(steps, target, name="intro_teleport"))


def ghz_to_epr() -> PreparedProtocol:
    """Shared GHZ into a maximally entangled (B, C) pair with certainty.

    Alice measures in the X basis; outcome 1 leaves a sign Bob removes
    with Z.  Both branches succeed.
    """
    state = ghz(_ABC)
    steps = (
        Measure("A", 1, "X", accept="*"),
        Unitary("B", (2,), PAULI_Z, when="1"),
    )
    target = Target("exact", state=epr(Register.of([(2, "B"), (3, "C")])))
    return PreparedProtocol(state, Protocol(steps, target, name="ghz_to_epr"))


def ghz_plus_epr_to_any(chi: PureState | None = None) -> PreparedProtocol:
    """Shared GHZ plus an EPR pair (A, B) into any three-qubit state, p = 1.

    Running the pair-extraction backwards: Alice's X measurement turns the
    GHZ into a (B, C) pair, after which Bob holds one half of two pairs and
    teleports two qubits of a locally prepared copy of ``chi`` outward.  The
    copy lives on sites 6-8; qubit 6 goes to Alice, qubit 7 to Charlie,
    qubit 8 stays.  Defaults to the symmetric W state.
    """
    source = Register.of([(6, "B"), (7, "B"), (8, "B")])
    if chi is None:
        chi = w_state(source)
    if chi.n_sites != 3:
        raise WrongArity(f"chi must be a three-qubit state, got {chi.n_sites} sites")
    chi = _rebuild(chi, (6, 7, 8), ("B", "B", "B"))
    pair = Register.of([(4, "A"), (5, "B")])
    state = tensor(tensor(ghz(_ABC), epr(pair)), chi)
    steps = (
        Measure("A", 1, "X", accept="*"),
        Unitary("B", (2,), PAULI_Z, when="1"),
        Teleport(6, 5, 4),
        Teleport(7, 2, 3),
    )
    # survivors (3, 4, 8) carry chi's qubits 7, 6, 8 respectively
    final = _rebuild(chi.permuted((7, 6, 8)), (3, 4, 8), ("C", "A", "B"))
    return PreparedProtocol(
        state, Protocol(steps, Target("exact", state=final), name="ghz_plus_epr_to_any")
    )
