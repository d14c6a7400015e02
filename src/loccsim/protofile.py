"""Line-oriented protocol files.

One directive per line, ``#`` starts a comment.  A document declares the
register (one ``state`` line, then any number of ``attach`` lines extending
it with fresh sites), the steps, and finally the success target:

    state w 0.4 0.4 0.2 0 parties A B C
    attach epr parties B C
    step measure party C site 3 basis Z accept 0
    step cnot party B control 2 target 4
    step measure party B site 4 basis Z accept *
    target ghz-lu sites 1 2 5

Sites are numbered in order of declaration starting from 1.  Numeric fields
accept fractions (``1/3``); each number becomes the float nearest its exact
value.
Structural problems raise ParseError (line, column); a document that parses
but violates ownership, normalization, or arity raises SemanticError (line).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import (
    ConstraintViolation,
    DegenerateState,
    ParseError,
    SemanticError,
    _StepError,
)
from .protocol import (
    CNOT,
    Measure,
    PreparedProtocol,
    Protocol,
    Step,
    Target,
    Teleport,
    Unitary,
    _check_target,
    _plan,
)
from .states import PureState, Register, epr, ghz, ghz_class, tensor, w_family

# the most sites a protocol file may declare: an amplitude vector holds 2**n
# complex numbers, 16 MiB at 20 sites but 16 GiB at 30, which a few attach
# lines reach; the largest bundled register has 8 sites
MAX_SITES = 20

# family name -> (constructor, numeric parameter count, site count)
_FAMILIES = {"w": (w_family, 4, 3), "ghz": (ghz, 0, 3), "epr": (epr, 0, 2), "ghzclass": (ghz_class, 5, 3)}


def _tokenize(line: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs; comments already stripped."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _to_float(text: str) -> float:
    """A fraction ``p/q`` or a decimal as the float nearest its exact value;
    ValueError for anything else, a zero denominator or a value beyond the
    float range included."""
    # float() rounds correctly and stays fast on any exponent, where
    # Fraction("1e999999999") builds 10**999999999; the fraction grammar has
    # no exponent, and + 0.0 turns -0 into 0
    try:
        value = float(Fraction(text)) if "/" in text else float(text) + 0.0
    except (ZeroDivisionError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"not a number: {text!r}")
    return value


class _Cursor:
    """Token stream for one line with positioned errors."""

    def __init__(self, tokens: list[tuple[str, int]], line_no: int):
        self.tokens = tokens
        self.line_no = line_no
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def fail(self, message: str, col: int | None = None) -> "ParseError":
        if col is None:
            col = self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens else 1
        return ParseError(message, line=self.line_no, column=col)

    def take(self, what: str) -> tuple[str, int]:
        if self.done():
            raise self.fail(f"expected {what}, line ended")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def keyword(self, word: str) -> None:
        tok, col = self.take(f"keyword {word!r}")
        if tok != word:
            raise self.fail(f"expected {word!r}, got {tok!r}", col)

    def number(self, what: str) -> float:
        tok, col = self.take(what)
        try:
            return _to_float(tok)
        except ValueError:
            raise self.fail(f"bad number {tok!r} for {what}", col) from None

    def site(self, what: str) -> int:
        tok, col = self.take(what)
        try:
            return int(tok)
        except ValueError:
            raise self.fail(f"bad site label {tok!r} for {what}", col) from None

    def end(self) -> None:
        if not self.done():
            tok, col = self.tokens[self.pos]
            raise self.fail(f"unexpected trailing token {tok!r}", col)


def _parse_state_clause(cur: _Cursor) -> tuple[str, list[float], list[str]]:
    kind, col = cur.take("state family")
    if kind not in _FAMILIES:
        raise cur.fail(f"unknown state family {kind!r} (choose from {sorted(_FAMILIES)})", col)
    _, n_params, n_sites = _FAMILIES[kind]
    params = [cur.number(f"{kind} parameter {i + 1}") for i in range(n_params)]
    cur.keyword("parties")
    parties = [cur.take(f"party label {i + 1}")[0] for i in range(n_sites)]
    cur.end()
    return kind, params, parties


def _family_state(kind: str, params: list[float], reg: Register, line_no: int) -> PureState:
    # sites are numbered in declaration order, so the largest is the register size
    if max(reg.sites) > MAX_SITES:
        raise SemanticError(
            f"the register would hold {max(reg.sites)} sites, more than the "
            f"{MAX_SITES} a protocol file may declare",
            line=line_no,
        )
    try:
        return _FAMILIES[kind][0](*params, reg)
    except (ConstraintViolation, DegenerateState) as exc:
        raise SemanticError(str(exc), line=line_no) from exc


def parse_protocol_file(text: str, name: str = "protocol-file") -> PreparedProtocol:
    """Parse a protocol document into its input state and protocol.

    The steps and the target are checked by the protocol validator when the
    target line is reached; its errors become SemanticError at the line of
    the failing step, or of the target.
    """
    state: PureState | None = None
    steps: list[Step] = []
    step_lines: list[int] = []
    target: Target | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = _tokenize(line)
        if not tokens:
            continue
        cur = _Cursor(tokens, line_no)
        if target is not None:
            raise cur.fail("directives after target", tokens[0][1])
        directive, col = cur.take("directive")
        if directive in ("attach", "step", "target") and state is None:
            raise cur.fail(f"{directive} before state", col)

        if directive == "state":
            if state is not None:
                raise cur.fail("state already declared (use attach to extend)", col)
            kind, params, parties = _parse_state_clause(cur)
            state = _family_state(kind, params, Register.for_parties(*parties), line_no)

        elif directive == "attach":
            if steps:
                raise cur.fail("attach must precede steps", col)
            kind, params, parties = _parse_state_clause(cur)
            reg = Register.for_parties(*parties, start=state.n_sites + 1)
            state = tensor(state, _family_state(kind, params, reg, line_no))

        elif directive == "step":
            steps.append(_parse_step(cur))
            step_lines.append(line_no)

        elif directive == "target":
            try:
                survivors = _plan(state, steps)[1]
                target = _parse_target(cur, survivors)
                _check_target(state, target, survivors)
            except _StepError as exc:
                at = line_no if exc.step == "target" else step_lines[exc.step]
                raise SemanticError(exc.reason, line=at) from exc

        else:
            raise cur.fail(f"unknown directive {directive!r}", col)

    if state is None:
        raise ParseError("missing state")
    if target is None:
        raise ParseError("missing target")
    return PreparedProtocol(state, Protocol(tuple(steps), target, name=name))


def _parse_step(cur: _Cursor) -> Step:
    kind, kcol = cur.take("step kind")
    if kind == "measure":
        cur.keyword("party")
        party = cur.take("party label")[0]
        cur.keyword("site")
        site = cur.site("measured site")
        cur.keyword("basis")
        basis, bcol = cur.take("basis name")
        if basis not in ("Z", "X"):
            raise cur.fail(f"basis must be Z or X, got {basis!r}", bcol)
        accept = "*"
        if not cur.done():
            cur.keyword("accept")
            accept, acol = cur.take("accept token")
            if accept not in ("0", "1", "*"):
                raise cur.fail(f"accept must be 0, 1 or *, got {accept!r}", acol)
        cur.end()
        return Measure(party, site, basis, accept)
    if kind == "cnot":
        cur.keyword("party")
        party = cur.take("party label")[0]
        cur.keyword("control")
        control = cur.site("control site")
        cur.keyword("target")
        tgt = cur.site("target site")
        cur.end()
        return Unitary(party, (control, tgt), CNOT)
    if kind == "teleport":
        cur.keyword("source")
        source = cur.site("source site")
        cur.keyword("via")
        near = cur.site("near pair site")
        far = cur.site("far pair site")
        cur.end()
        return Teleport(source, near, far)
    raise cur.fail(f"unknown step kind {kind!r} (measure, cnot or teleport)", kcol)


def _parse_target(cur: _Cursor, survivors: tuple[int, ...]) -> Target:
    """The target on this line; an exact target's family state is built on
    the ``survivors`` of the steps, with the parties the line names."""
    mode, mcol = cur.take("target mode")
    if mode == "ghz-lu":
        cur.keyword("sites")
        trio = tuple(cur.site(f"target site {i + 1}") for i in range(3))
        cur.end()
        return Target("ghz-lu", sites=trio)
    if mode == "exact":
        kind, params, parties = _parse_state_clause(cur)
        n_sites = _FAMILIES[kind][2]
        if len(survivors) != n_sites:
            raise SemanticError(
                f"exact {kind} target needs {n_sites} sites but the steps "
                f"leave {len(survivors)}",
                line=cur.line_no,
            )
        reg = Register(survivors, tuple(parties))
        return Target("exact", state=_family_state(kind, params, reg, cur.line_no))
    raise cur.fail(f"unknown target mode {mode!r} (ghz-lu or exact)", mcol)
