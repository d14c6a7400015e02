import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loccsim.errors import ParseError, SemanticError
from loccsim.prebuilt import prop3_input
from loccsim.protocol import run_protocol
from loccsim.protofile import MAX_SITES, _to_float, parse_protocol_file

PROP3_TEXT = """
# pair-assisted conversion, weight 2/5
state w 2/5 2/5 1/5 0 parties A B C
attach epr parties B C

step measure party C site 3 basis Z accept 0
step cnot party B control 2 target 4
step measure party B site 4 basis Z accept *

target ghz-lu sites 1 2 5
"""

TELEPORT_TEXT = """
state ghz parties A B B
attach epr parties B C
step teleport source 3 via 4 5
target exact ghz parties A B C
"""


def run_text(text):
    state, protocol = parse_protocol_file(text)
    return run_protocol(state, protocol)


# ---------------------------------------------------------------------------
# happy paths


def test_prop3_file_round_trip():
    state, protocol = parse_protocol_file(PROP3_TEXT, name="prop3-file")
    assert state.is_close(prop3_input(0.4))
    assert protocol.name == "prop3-file"
    result = run_protocol(state, protocol)
    assert result.success_probability == pytest.approx(0.8, abs=1e-12)


def test_comments_and_blank_lines_ignored():
    noisy = "# heading\n\n  # indented comment\n" + PROP3_TEXT + "\n\n"
    state, _ = parse_protocol_file(noisy)
    assert state.is_close(prop3_input(0.4))


def test_fraction_weights_are_exact():
    text = "state w 1/3 1/3 1/3 0 parties A B C\ntarget ghz-lu sites 1 2 3\n"
    state, _ = parse_protocol_file(text)
    assert state.amplitudes[0b100] == pytest.approx(np.sqrt(1 / 3), abs=1e-15)


def test_teleport_protocol_file():
    result = run_text(TELEPORT_TEXT)
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)


def test_ghzclass_family_and_phase():
    # five angles: superposition weight, phase, and three local rotations
    text = (
        "state ghzclass 0.7 0.3 0.4 0.5 0.6 parties A B C\n"
        "target ghz-lu sites 1 2 3\n"
    )
    state, _ = parse_protocol_file(text)
    assert state.register.parties == ("A", "B", "C")
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_sites_numbered_across_attachments():
    state, protocol = parse_protocol_file(TELEPORT_TEXT)
    assert state.register.sites == (1, 2, 3, 4, 5)
    assert state.register.parties == ("A", "B", "B", "B", "C")


# ---------------------------------------------------------------------------
# parse errors (line/column carried on the exception)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "state"),
        ("target ghz-lu sites 1 2 3\n", "state"),
        ("state w 1/3 1/3 1/3 0 parties A B C\n", "target"),
        ("state pair parties A B\ntarget ghz-lu sites 1 2 3\n", "family"),
        ("state w 1/3 1/3 1/3 0 parties A B C\nfrobnicate\n", "directive"),
        (
            "state w 1/3 1/3 1/3 0 parties A B C\n"
            "step polish party A site 1\n"
            "target ghz-lu sites 1 2 3\n",
            "step",
        ),
        (
            "state w 1/3 1/3 1/3 0 parties A B C\ntarget approximately sites 1 2 3\n",
            "target",
        ),
        (
            "state w 1/3 x 1/3 0 parties A B C\ntarget ghz-lu sites 1 2 3\n",
            "number",
        ),
        (
            "state w 1/3 1/3 1/3 0 parties A B C extra\ntarget ghz-lu sites 1 2 3\n",
            "",
        ),
        (
            "state w 1/3 1/3 1/3 0 parties A B C\n"
            "target ghz-lu sites 1 2 3\n"
            "step measure party A site 1 basis Z\n",
            "target",
        ),
        (
            "state ghz parties A B C\n"
            "step measure party A site 1 basis Z\n"
            "attach epr parties B C\n"
            "target ghz-lu sites 2 3 4\n",
            "attach",
        ),
        (
            "state ghz parties A B C\n"
            "step measure party A site 1 basis Y\n"
            "target ghz-lu sites 1 2 3\n",
            "basis",
        ),
        (
            "state ghz parties A B C\n"
            "step measure party A site 1 basis Z accept 2\n"
            "target ghz-lu sites 1 2 3\n",
            "accept",
        ),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_protocol_file(text)
    assert fragment.lower() in str(exc.value).lower()
    assert exc.value.line is None or exc.value.line >= 1


def test_parse_error_reports_position():
    for state_line, column in (
        ("state w 1/3 oops 1/3 0 parties A B C", 13),
        # a tab and a run of blanks each count one column per character
        ("state\tw  1/3\t\t oops 1/3 0 parties A B C", 16),
    ):
        with pytest.raises(ParseError) as exc:
            parse_protocol_file(state_line + "\ntarget ghz-lu sites 1 2 3\n")
        assert exc.value.line == 1
        assert exc.value.column == column


# ---------------------------------------------------------------------------
# semantic errors


@pytest.mark.parametrize(
    "text, fragment, line",
    [
        # weights don't normalize
        ("state w 0.5 0.4 0.3 0 parties A B C\ntarget ghz-lu sites 1 2 3\n", "", 1),
        # party unknown to the register
        (
            "state ghz parties A B C\n"
            "step measure party D site 1 basis Z\n"
            "target ghz-lu sites 1 2 3\n",
            "party",
            2,
        ),
        # site never declared
        (
            "state ghz parties A B C\n"
            "step measure party A site 9 basis Z\n"
            "target ghz-lu sites 1 2 3\n",
            "site",
            2,
        ),
        # site already consumed
        (
            "state ghz parties A B C\nattach epr parties B C\n"
            "step measure party A site 1 basis Z\n"
            "step measure party A site 1 basis Z\n"
            "target ghz-lu sites 2 3 4\n",
            "site",
            4,
        ),
        # site held by a different party
        (
            "state ghz parties A B C\n"
            "step measure party A site 2 basis Z\n"
            "target ghz-lu sites 1 2 3\n",
            "",
            2,
        ),
        # cnot needs two distinct sites
        (
            "state ghz parties A B C\n"
            "step cnot party A control 1 target 1\n"
            "target ghz-lu sites 1 2 3\n",
            "differ",
            2,
        ),
        # teleport: source and near half must share a party
        (
            "state ghz parties A B B\nattach epr parties B C\n"
            "step teleport source 1 via 4 5\n"
            "target exact ghz parties A B C\n",
            "",
            3,
        ),
        # exact target arity mismatch
        (
            "state ghz parties A B C\n"
            "step measure party A site 1 basis Z accept 0\n"
            "target exact ghz parties A B C\n",
            "",
            3,
        ),
        # ghz-lu target references a consumed site
        (
            "state ghz parties A B C\nattach epr parties B C\n"
            "step measure party A site 1 basis Z\n"
            "target ghz-lu sites 1 2 3\n",
            "site",
            4,
        ),
        # the sixth attach takes the register to 21 sites
        (
            "state ghz parties A B C\n" + "attach ghz parties A B C\n" * 6 + "target ghz-lu sites 1 2 3\n",
            "21 sites",
            7,
        ),
    ],
)
def test_semantic_errors(text, fragment, line):
    with pytest.raises(SemanticError) as exc:
        parse_protocol_file(text)
    assert fragment.lower() in str(exc.value).lower()
    assert exc.value.line == line


def test_a_register_may_reach_the_site_limit():
    text = "state ghz parties A B C\n" + "attach ghz parties A B C\n" * 5 + "attach epr parties A B\n"
    state, _ = parse_protocol_file(text + "target ghz-lu sites 1 2 3\n")
    assert state.n_sites == MAX_SITES == 20


# ---------------------------------------------------------------------------
# numbers

DIGITS = "0123456789"
DECIMALS = st.builds(
    "{}{}.{}e{}".format,
    st.sampled_from(["", "-", "+"]),
    st.text(DIGITS, min_size=1, max_size=20),
    st.text(DIGITS, max_size=20),
    st.integers(-340, 280),  # within the float range, subnormals included
)
FRACTIONS = st.builds("{}/{}".format, st.integers(-10**30, 10**30), st.integers(1, 10**30))


@given(st.one_of(DECIMALS, FRACTIONS))
def test_number_is_the_float_nearest_its_exact_value(text):
    assert _to_float(text) == float(Fraction(text))


def test_huge_exponents_parse_at_once():
    start = time.perf_counter()
    assert _to_float("1e-3000000") == 0.0
    with pytest.raises(ValueError):
        _to_float("1e3000000")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "1/0", "abc"])
def test_non_finite_and_non_numbers_are_rejected(text):
    with pytest.raises(ValueError):
        _to_float(text)


def test_negative_zero_parses_as_zero():
    assert math.copysign(1.0, _to_float("-0")) == 1.0
