import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccsim import states
from loccsim.errors import (
    ConstraintViolation,
    DegenerateState,
    EmptySubset,
    LabelCollision,
    RegisterMismatch,
    WrongArity,
)
from loccsim.states import (
    RANK_TOL,
    DensityMatrix,
    PureState,
    Register,
    _rank,
    apply_site_ops,
    computational,
    epr,
    ghz,
    ghz_class,
    load_state,
    reduced_density_sites,
    save_state,
    schmidt,
    state_from_dict,
    state_to_dict,
    tensor,
    w_family,
    w_state,
)

ABC = Register.of([(1, "A"), (2, "B"), (3, "C")])


def random_state(rng, register):
    v = rng.normal(size=register.dim) + 1j * rng.normal(size=register.dim)
    return PureState(register, v / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# registers


def test_register_basics():
    assert ABC.n_sites == 3
    assert ABC.dim == 8
    assert ABC.axis_of(2) == 1
    assert ABC.party_of(3) == "C"
    assert ABC.party_labels() == ("A", "B", "C")
    assert ABC.sites_of(["B", "C"]) == (2, 3)
    assert ABC.without([2]).sites == (1, 3)


def test_register_for_parties():
    reg = Register.for_parties("A", "B", "C", start=4)
    assert reg.sites == (4, 5, 6)
    assert reg.parties == ("A", "B", "C")


@pytest.mark.parametrize(
    "sites, parties",
    [((1.7, 2), ("A", "B")), ((True, 2), ("A", "B")), ((1, 2), ("A", 3))],
    ids=["float-site", "bool-site", "int-party"],
)
def test_register_rejects_what_it_would_coerce(sites, parties):
    # not read as int(site) or str(party)
    with pytest.raises(ConstraintViolation, match="must be an integer and a string"):
        Register(sites, parties)


def test_register_reads_numpy_integers_as_ints():
    reg = Register(tuple(np.arange(1, 3)), ("A", "B"))
    assert reg.sites == (1, 2) and all(type(site) is int for site in reg.sites)


def test_register_validation():
    with pytest.raises(ConstraintViolation):
        Register((), ())
    with pytest.raises(ConstraintViolation):
        Register((1, 2), ("A",))
    with pytest.raises(LabelCollision):
        Register((1, 1), ("A", "B"))
    with pytest.raises(RegisterMismatch):
        ABC.axis_of(9)
    with pytest.raises(RegisterMismatch):
        ABC.sites_of(["Z"])
    with pytest.raises(RegisterMismatch):
        ABC.without([9])


# ---------------------------------------------------------------------------
# pure states


def test_purestate_validation():
    with pytest.raises(ConstraintViolation):
        PureState(ABC, np.zeros(4))
    with pytest.raises(ConstraintViolation):
        PureState(ABC, np.full(8, 0.5))  # norm sqrt(2)


def test_purestate_rejects_nan():
    amps = np.zeros(8, dtype=complex)
    amps[0] = np.nan
    with pytest.raises(ConstraintViolation):
        PureState(ABC, amps)


def test_density_matrix_rejects_nan():
    with pytest.raises(ConstraintViolation):
        DensityMatrix(("A",), np.diag([np.nan, 0.5]))


def test_amplitudes_frozen():
    s = ghz(ABC)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_overlap_and_phase_blind_compare():
    s = ghz(ABC)
    t = PureState(ABC, np.exp(1j * 0.7) * s.amplitudes)
    assert abs(s.overlap(t)) == pytest.approx(1.0, abs=1e-12)
    assert s.is_close(t)
    with pytest.raises(RegisterMismatch):
        s.overlap(epr(Register.of([(1, "A"), (2, "B")])))


@pytest.mark.parametrize("part", [-0.0, 1e-13, -1e-13])
def test_a_signed_zero_leaves_the_fingerprint_as_it_was(part):
    # a part that rounds to zero, of either sign, is zero to the fingerprint
    base = ghz(ABC)
    for k in (0, 5, 7):
        amps = base.amplitudes.copy()
        amps[k] = complex(amps[k].real, part)
        assert PureState(ABC, amps).fingerprint() == base.fingerprint()
    amps = base.amplitudes.copy()
    amps[3] = complex(part, 0.0)
    assert PureState(ABC, amps).fingerprint() == base.fingerprint()
    assert ghz(ABC).fingerprint() != w_state(ABC).fingerprint()


def test_permuted_roundtrip():
    rng = np.random.default_rng(3)
    s = random_state(rng, ABC)
    p = s.permuted((3, 1, 2))
    assert p.register.sites == (3, 1, 2)
    assert p.register.parties == ("C", "A", "B")
    back = p.permuted((1, 2, 3))
    assert np.allclose(back.amplitudes, s.amplitudes)
    with pytest.raises(RegisterMismatch):
        s.permuted((1, 2, 4))


def test_permuted_moves_amplitudes():
    # |100> with site 1 most significant becomes |001> when site 1 is listed last
    s = computational(ABC, "100")
    p = s.permuted((2, 3, 1))
    assert p.amplitudes[0b001] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# named families


def test_w_state_amplitudes():
    s = w_state(ABC)
    expect = np.zeros(8)
    expect[[0b001, 0b010, 0b100]] = 1 / np.sqrt(3)
    assert np.allclose(s.amplitudes, expect)


def test_ghz_epr_amplitudes():
    g = ghz(ABC)
    assert g.amplitudes[0] == pytest.approx(1 / np.sqrt(2))
    assert g.amplitudes[7] == pytest.approx(1 / np.sqrt(2))
    e = epr(Register.of([(1, "A"), (2, "B")]))
    assert e.amplitudes[0b00] == pytest.approx(1 / np.sqrt(2))
    assert e.amplitudes[0b11] == pytest.approx(1 / np.sqrt(2))


def test_w_family_with_offset():
    s = w_family(0.3, 0.3, 0.2, 0.2, ABC)
    assert s.amplitudes[0b000] == pytest.approx(np.sqrt(0.2))
    assert s.amplitudes[0b100] == pytest.approx(np.sqrt(0.3))


def test_w_family_constraints():
    with pytest.raises(ConstraintViolation):
        w_family(0.4, 0.4, 0.3, 0.0, ABC)  # sums to 1.1
    with pytest.raises(ConstraintViolation):
        w_family(0.0, 0.5, 0.5, 0.0, ABC)  # a must be positive
    with pytest.raises(ConstraintViolation):
        w_family(0.5, 0.4, 0.2, -0.1, ABC)
    with pytest.raises(WrongArity):
        w_family(1 / 3, 1 / 3, 1 / 3, 0.0, Register.of([(1, "A"), (2, "B")]))


def test_computational_indexing():
    s = computational(ABC, "101")
    assert s.amplitudes[0b101] == pytest.approx(1.0)
    with pytest.raises(ConstraintViolation):
        computational(ABC, "10")


def test_ghz_class_reduces_to_ghz():
    s = ghz_class(np.pi / 4, 0.0, np.pi / 2, np.pi / 2, np.pi / 2, ABC)
    assert s.is_close(ghz(ABC))


def test_ghz_class_normalizes_overlapping_terms():
    # product factors close to |000> overlap with the first term
    s = ghz_class(0.3, 0.5, 0.1, 0.2, 0.3, ABC)
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0)


def test_ghz_class_degenerate():
    with pytest.raises(DegenerateState):
        ghz_class(np.pi / 4, np.pi, 0.0, 0.0, 0.0, ABC)


# ---------------------------------------------------------------------------
# composition and reduction


def test_tensor_orders_sites():
    left = computational(Register.of([(1, "A")]), "1")
    right = computational(Register.of([(2, "B")]), "0")
    s = tensor(left, right)
    assert s.register.sites == (1, 2)
    assert s.amplitudes[0b10] == pytest.approx(1.0)


def test_tensor_label_collision():
    with pytest.raises(LabelCollision):
        tensor(ghz(ABC), epr(Register.of([(3, "B"), (4, "C")])))


@pytest.mark.parametrize("seed", range(5))
def test_products_equal_the_kron_forms_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    left = random_state(rng, Register.of([(1, "A"), (2, "B")]))
    right = random_state(rng, Register.of([(3, "C")]))
    assert np.array_equal(tensor(left, right).amplitudes, np.kron(left.amplitudes, right.amplitudes))
    delta, phi, *angles = rng.uniform(0.1, 1.4, size=5)
    one = lambda t: np.array([np.cos(t), np.sin(t)], dtype=np.complex128)
    v = np.sin(delta) * np.exp(1j * phi) * np.kron(np.kron(*map(one, angles[:2])), one(angles[2]))
    v[0] += np.cos(delta)
    assert np.array_equal(ghz_class(delta, phi, *angles, ABC).amplitudes, v / np.linalg.norm(v))


def test_reduced_density_w_marginals():
    # each single-site reduction of the symmetric state has spectrum {2/3, 1/3}
    s = w_state(ABC)
    for site in s.register.sites:
        rho = reduced_density_sites(s, [site])
        assert np.allclose(np.linalg.eigvalsh(rho.matrix), [1 / 3, 2 / 3], atol=1e-12)


def test_reduced_density_ghz_marginal():
    rho = reduced_density_sites(ghz(ABC), [1])
    assert rho.parties == ("A",)
    assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_reduced_density_multisite():
    s = tensor(w_state(ABC), epr(Register.of([(4, "B"), (5, "C")])))
    # kept in register order, whatever order the sites are asked in
    rho = reduced_density_sites(s, s.register.sites_of(["B"])[::-1])
    assert rho.sites == (2, 4)
    assert rho.parties == ("B",)
    assert rho.matrix.shape == (4, 4)
    assert _rank(np.sqrt(np.clip(np.linalg.eigvalsh(rho.matrix), 0, None))) == 4


def test_reduced_density_errors():
    s = ghz(ABC)
    with pytest.raises(EmptySubset):
        reduced_density_sites(s, [1, 2, 3])
    with pytest.raises(EmptySubset):
        reduced_density_sites(s, [])
    with pytest.raises(RegisterMismatch):
        reduced_density_sites(s, [1, 9])


def test_numeric_rank_thresholding():
    # the one rank rule: a singular value whose square is at most 1e-10 times
    # the largest one's counts as zero
    assert _rank(np.array([0.7, 0.3 - 1e-13, 1e-13, 0.0])) == 2
    assert _rank(np.zeros(4)) == 0


def _squared_weight_rank(sv, scale=0.0):
    # the rule as it read squared weights: scale**2 appended as one more
    # weight, which then counts itself, and taken off again
    weights = sv**2
    if scale:
        weights = np.append(weights, scale**2)
    top = np.max(weights)
    rank = int(np.sum(weights > RANK_TOL * top)) if top > 0 else 0
    return rank - 1 if scale else rank


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    rank=st.integers(0, 6),
    decay=st.floats(0.0, 8.0),
    magnitude=st.floats(-6.0, 6.0),
    scale=st.just(0.0) | st.floats(0.5, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_matches_the_squared_weight_rule(rows, cols, rank, decay, magnitude, scale, seed):
    # complex matrices of rank up to `rank`, vanishing ones included, whose
    # singular values fall by up to 1e8 each, so some sit near the cut; a
    # scale bounds the largest singular value (a vanishing matrix gets its own)
    rng = np.random.default_rng(seed)
    k = min(rank, rows, cols)
    normals = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a = 10.0**magnitude * (normals(rows, k) * 10.0 ** (-decay * np.arange(k))) @ normals(k, cols)
    sv = np.linalg.svd(a, compute_uv=False)
    scale *= np.max(sv) or 1.0
    assert _rank(sv, scale) == _squared_weight_rank(sv, scale)
    if not k:
        assert _rank(sv) == _rank(sv, scale) == 0


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    length=st.integers(1, 6),
    scale=st.just(0.0) | st.floats(0.5, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_rank_equals_the_rank_of_each_row(shape, length, scale, seed):
    # rows of nonincreasing spectra, some rank-deficient: trailing zeros,
    # values near the cut, or all zero
    rng = np.random.default_rng(seed)
    sv = -np.sort(-rng.random((*shape, length)), axis=-1)
    sv *= 10.0 ** (-5.0 * rng.integers(0, 3, size=sv.shape))
    sv[rng.random(sv.shape) < 0.3] = 0.0
    sv = -np.sort(-sv, axis=-1)
    stacked = _rank(sv, scale)
    assert stacked.shape == tuple(shape)
    rows = sv.reshape(-1, length)
    assert stacked.reshape(-1).tolist() == [_rank(row, scale) for row in rows]
    assert all(type(_rank(row, scale)) is int for row in rows)


# ---------------------------------------------------------------------------
# schmidt data


def test_schmidt_known_spectra():
    assert np.allclose(schmidt(ghz(ABC), ["A"]), [0.5, 0.5], atol=1e-12)
    assert np.allclose(schmidt(w_state(ABC), ["A"]), [2 / 3, 1 / 3], atol=1e-12)
    # padded to the smaller cut dimension, which is 2 here
    assert schmidt(ghz(ABC), ["A", "B"]).shape == (2,)


def test_schmidt_reconstruction():
    # the squared coefficients are the spectrum of either side's reduced density
    rng = np.random.default_rng(11)
    reg = Register.of([(1, "A"), (2, "B"), (3, "C"), (4, "B")])
    for _ in range(20):
        s = random_state(rng, reg)
        rho = reduced_density_sites(s, s.register.sites_of(["B"])).matrix
        expected = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.allclose(schmidt(s, ["B"]), expected, rtol=0, atol=1e-12)


def test_schmidt_rank_symmetry():
    rng = np.random.default_rng(5)
    s = random_state(rng, ABC)
    assert _rank(np.sqrt(schmidt(s, ["A"]))) == _rank(np.sqrt(schmidt(s, ["B", "C"])))


def test_schmidt_errors():
    with pytest.raises(EmptySubset):
        schmidt(ghz(ABC), [])
    with pytest.raises(EmptySubset):
        schmidt(ghz(ABC), ["A", "B", "C"])
    with pytest.raises(RegisterMismatch):
        schmidt(ghz(ABC), ["Z"])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_schmidt_properties_random(seed):
    rng = np.random.default_rng(seed)
    s = random_state(rng, ABC)
    coeffs = schmidt(s, ["A"])
    assert coeffs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(coeffs) <= 1e-12)
    assert np.all(coeffs >= -1e-12)


# ---------------------------------------------------------------------------
# local operators


def _tensordot_site_ops(s, ops):
    # reference: one tensordot per site, the operator's output axis moved
    # back into the site's place
    t = s.tensor_view()
    for site, op in ops.items():
        ax = s.register.axis_of(site)
        t = np.moveaxis(np.tensordot(op, t, axes=([1], [ax])), 0, ax)
    v = t.reshape(-1)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("n", range(1, 6))
def test_apply_site_ops_matches_the_tensordot_reference(n):
    rng = np.random.default_rng(n)
    reg = Register(tuple(range(10, 10 + n)), tuple("AB"[k % 2] for k in range(n)))
    s = random_state(rng, reg)
    op = lambda: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    cases = [{site: op()} for site in reg.sites] + [{site: op() for site in reg.sites[::-1]}]
    for ops in cases:
        assert np.max(np.abs(apply_site_ops(s, ops).amplitudes - _tensordot_site_ops(s, ops))) <= 1e-12


def test_apply_site_ops_bit_flip():
    x = np.array([[0, 1], [1, 0]])
    s = apply_site_ops(w_state(ABC), {1: x})
    assert s.amplitudes[0b000] == pytest.approx(1 / np.sqrt(3))
    assert s.amplitudes[0b001] == pytest.approx(0.0)
    flipped = apply_site_ops(computational(ABC, "000"), {1: x, 3: x})
    assert flipped.amplitudes[0b101] == pytest.approx(1.0)


def test_apply_site_ops_renormalizes():
    op = np.array([[1.0, 0.0], [0.0, 0.0]])  # project site 1 onto |0>
    s = apply_site_ops(ghz(ABC), {1: op})
    assert s.is_close(computational(ABC, "000"))


def test_apply_site_ops_annihilation():
    op = np.array([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateState):
        apply_site_ops(ghz(ABC), {1: op})


def test_apply_site_ops_shape_check():
    with pytest.raises(ConstraintViolation):
        apply_site_ops(ghz(ABC), {1: np.eye(4)})


def test_apply_site_ops_unknown_site():
    with pytest.raises(RegisterMismatch):
        apply_site_ops(ghz(ABC), {9: np.eye(2)})


# ---------------------------------------------------------------------------
# serialization


def test_state_roundtrip_exact():
    rng = np.random.default_rng(23)
    s = random_state(rng, ABC)
    back = state_from_dict(state_to_dict(s))
    assert back.register == s.register
    assert np.array_equal(back.amplitudes, s.amplitudes)  # bit-for-bit


def test_state_roundtrip_through_json(tmp_path):
    import json

    s = w_state(ABC)
    path = tmp_path / "w.json"
    with open(path, "w") as fh:
        json.dump(state_to_dict(s), fh)
    with open(path) as fh:
        back = state_from_dict(json.load(fh))
    assert np.array_equal(back.amplitudes, s.amplitudes)


@pytest.mark.parametrize(
    "label, party",
    [(1.7, "A"), (1.0, "A"), (True, "A"), ("1", "A"), (None, "A"), (1, 7), (1, None), (1, ["A"])],
)
def test_state_from_dict_rejects_coerced_sites(label, party):
    # a label that is not an integer or a party that is not a string is an
    # error, not read as int(label) or str(party)
    doc = state_to_dict(ghz(ABC))
    doc["sites"][0] = {"label": label, "party": party}
    with pytest.raises(ConstraintViolation, match="must be an integer and a string"):
        state_from_dict(doc)


def test_save_state_over_a_longer_file_loads_back_bit_for_bit(tmp_path):
    rng = np.random.default_rng(27)
    s = random_state(rng, ABC)
    path = tmp_path / "state.json"
    path.write_bytes(b"x" * 10_000)
    save_state(s, path)
    assert path.read_text() == json.dumps(state_to_dict(s), indent=1)  # no trailing newline
    back = load_state(path)
    assert back.register == s.register
    assert np.array_equal(back.amplitudes, s.amplitudes)


def test_save_state_that_cannot_encode_touches_no_file(tmp_path, monkeypatch):
    # the document is encoded before the path is opened
    monkeypatch.setattr(states, "state_to_dict", lambda s: {"amplitudes": object()})
    kept, made = tmp_path / "kept.json", tmp_path / "made.json"
    kept.write_bytes(b"earlier state")
    for path in (kept, made):
        with pytest.raises(TypeError):
            save_state(ghz(ABC), path)
    assert kept.read_bytes() == b"earlier state"
    assert not made.exists()


def test_state_from_dict_malformed():
    with pytest.raises(ConstraintViolation):
        state_from_dict({"sites": [{"label": 1}], "amplitudes": [[1, 0], [0, 0]]})
    with pytest.raises(ConstraintViolation):
        state_from_dict({"sites": "nope", "amplitudes": []})
