import numpy as np
import pytest

from loccsim.errors import ConstraintViolation, ParameterOutOfRange, WrongArity
from loccsim.prebuilt import (
    bipartite_catalysis_pair,
    ghz_plus_epr_to_any,
    ghz_to_epr,
    intro_teleport,
    prop3,
    prop3_b,
    prop3_c,
    prop3_input,
    prop3_target,
    tripartite_catalysis_pair,
)
from loccsim.states import Register, _rank, ghz, schmidt, w_state

# ---------------------------------------------------------------------------
# parameter domain


@pytest.mark.parametrize("bad", [0.2, 0.5, 0.6, -0.1, 1 / 3 - 1e-6])
def test_weight_domain_rejected(bad):
    with pytest.raises(ParameterOutOfRange):
        prop3_input(bad)
    with pytest.raises(ParameterOutOfRange):
        prop3(bad)


def test_weight_domain_endpoints():
    prop3_input(1 / 3)  # closed at the lower end
    prop3_input(0.499999999)
    with pytest.raises(ParameterOutOfRange):
        prop3_input(0.5)


# ---------------------------------------------------------------------------
# catalysis input pairs


def test_bipartite_pair_layout():
    src, dst = bipartite_catalysis_pair()
    for s in (src, dst):
        assert s.register.sites == (1, 2, 3, 4, 5)
        assert s.register.parties == ("A", "B", "C", "B", "C")
    # default catalyst is a balanced pair shared between B and C
    assert _rank(np.sqrt(schmidt(src, ["A"]))) == 2
    assert _rank(np.sqrt(schmidt(dst, ["A"]))) == 2


def test_bipartite_pair_weights():
    src, _dst = bipartite_catalysis_pair(a=0.5, b=0.25, c=0.25, alpha=0.6, beta=0.4)
    # source amplitudes: sqrt(w) on the three one-hot patterns, times catalyst
    idx = lambda bits: int(bits, 2)
    amp = src.amplitudes
    assert amp[idx("10000")] == pytest.approx(np.sqrt(0.5 * 0.6), abs=1e-12)
    assert amp[idx("10011")] == pytest.approx(np.sqrt(0.5 * 0.4), abs=1e-12)
    assert amp[idx("01000")] == pytest.approx(np.sqrt(0.25 * 0.6), abs=1e-12)


def test_bipartite_pair_validation():
    with pytest.raises(ConstraintViolation):
        bipartite_catalysis_pair(a=0.5, b=0.6, c=-0.1)  # negative weight
    with pytest.raises(ConstraintViolation):
        bipartite_catalysis_pair(alpha=0.3, beta=0.3)  # pair not normalized


def test_tripartite_pair_layout():
    for catalyst in ("w", "ghz"):
        src, dst = tripartite_catalysis_pair(catalyst)
        for s in (src, dst):
            assert s.register.sites == (1, 2, 3, 4, 5, 6)
            assert s.register.parties == ("A", "B", "C", "A", "B", "C")
    with pytest.raises(ParameterOutOfRange):
        tripartite_catalysis_pair("epr")


# ---------------------------------------------------------------------------
# the pair-assisted conversion and its variants


def test_prop3_target_amplitudes():
    t = prop3_target()
    assert t.register.sites == (1, 2, 3, 4, 5)
    amp = t.amplitudes
    assert amp[0b00000] == pytest.approx(1 / np.sqrt(2))
    assert amp[0b11001] == pytest.approx(1 / np.sqrt(2))
    assert np.count_nonzero(np.abs(amp) > 1e-12) == 2


def test_prop3_probability_and_placement():
    for a in (1 / 3, 0.4, 0.45):
        assert prop3(a).run().success_probability == pytest.approx(2 * a, abs=1e-12)
    # the helper pair may sit between A and C instead of B and C
    r = prop3(0.4, placement="AC")
    assert r.state.register.parties == ("A", "B", "C", "A", "C")
    assert r.run().success_probability == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ParameterOutOfRange):
        prop3(0.4, placement="AB")
    with pytest.raises(ParameterOutOfRange):
        prop3_target("AB")

    bc = prop3(0.4).protocol
    assert (bc.name, bc.target.sites) == ("prop3[BC]", (1, 2, 5))
    ac = r.protocol
    assert (ac.name, ac.target.sites) == ("prop3[AC]", (1, 2, 5))


def test_prop3_role_variants():
    rb = prop3_b(0.42)
    assert rb.state.register.parties == ("A", "B", "C", "B", "A")
    assert rb.run().success_probability == pytest.approx(0.84, abs=1e-12)

    rc = prop3_c(0.45)
    assert rc.state.register.parties == ("A", "B", "C", "C", "B")
    assert rc.run().success_probability == pytest.approx(0.90, abs=1e-12)

    assert (rb.protocol.name, rb.protocol.target.sites) == ("prop3_b", (2, 3, 5))
    assert (rc.protocol.name, rc.protocol.target.sites) == ("prop3_c", (1, 3, 5))


# ---------------------------------------------------------------------------
# teleportation showcases


def test_intro_teleport_probability():
    result = intro_teleport().run()
    assert result.success_probability == pytest.approx(2 / 3, abs=1e-12)
    success = [l for l in result.leaves() if l.status == "success"]
    assert success, "expected a successful leaf"
    reg = success[0].state.register
    assert set(zip(reg.sites, reg.parties)) == {(3, "C"), (4, "A"), (8, "B")}


def test_ghz_to_epr_all_outcomes():
    result = ghz_to_epr().run()
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)
    leaves = result.leaves()
    assert len(leaves) == 2
    for leaf in leaves:
        assert leaf.status == "success"
        coeffs = schmidt(leaf.state, ["B"])
        assert np.allclose(coeffs, [0.5, 0.5], atol=1e-12)


def test_ghz_plus_epr_defaults_to_w():
    result = ghz_plus_epr_to_any().run()
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)
    leaf = [l for l in result.leaves() if l.status == "success"][0]
    # the delivered state is the requested triple on (3:C, 4:A, 8:B)
    reg = leaf.state.register
    assert set(zip(reg.sites, reg.parties)) == {(3, "C"), (4, "A"), (8, "B")}


def test_ghz_plus_epr_accepts_custom_payload():
    chi = ghz(Register.of([(1, "A"), (2, "B"), (3, "C")]))
    result = ghz_plus_epr_to_any(chi).run()
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)


def test_ghz_plus_epr_rejects_wrong_arity():
    ok = ghz_plus_epr_to_any(w_state(Register.for_parties("A", "B", "C")))
    assert ok is not None  # three sites: fine
    from loccsim.states import epr

    with pytest.raises(WrongArity):
        ghz_plus_epr_to_any(epr(Register.of([(1, "A"), (2, "B")])))
