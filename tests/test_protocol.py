import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loccsim import protocol
from loccsim.convert import splitting_bound
from loccsim.errors import (
    LoccSimError,
    MalformedProtocol,
    NotAnEprResource,
    NotUnitary,
    SiteOwnership,
)
from loccsim.invariants import _tangle
from loccsim.prebuilt import (
    ghz_plus_epr_to_any,
    ghz_to_epr,
    intro_teleport,
    prop3,
    prop3_b,
    prop3_c,
    prop3_input,
    prop3_target,
)
from loccsim.protocol import (
    BASIS_X,
    CNOT,
    PAULI_X,
    PAULI_Z,
    BranchNode,
    Measure,
    Protocol,
    Target,
    Teleport,
    Unitary,
    _check_step,
    _check_target,
    _ghz_lu_success,
    _leaf_success,
    apply_unitary,
    measure,
    run_protocol,
    teleport,
)
from loccsim.states import (
    PureState,
    Register,
    _cut,
    _unfold,
    apply_site_ops,
    computational,
    epr,
    ghz,
    schmidt,
    tensor,
    w_family,
    w_state,
)

ABC = Register.of([(1, "A"), (2, "B"), (3, "C")])
AB = Register.of([(1, "A"), (2, "B")])


def haar_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# measurement


def test_measure_w_site1():
    # outcome 0 keeps the flat pair with weight 2/3; outcome 1 leaves |00>
    branches = measure(w_state(ABC), "A", 1, "Z")
    assert [b[0] for b in branches] == ["0", "1"]
    out0, p0, s0 = branches[0]
    out1, p1, s1 = branches[1]
    assert p0 == pytest.approx(2 / 3, abs=1e-12)
    assert p1 == pytest.approx(1 / 3, abs=1e-12)
    assert s0.register.sites == (2, 3)
    flat = np.zeros(4, complex)
    flat[[0b01, 0b10]] = 1 / np.sqrt(2)
    assert np.allclose(s0.amplitudes, flat, atol=1e-12)
    assert np.allclose(s1.amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_measure_ghz_x_basis():
    branches = measure(ghz(ABC), "A", 1, "X")
    assert len(branches) == 2
    plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
    minus = np.array([1, 0, 0, -1]) / np.sqrt(2)
    for (out, p, s), expect in zip(branches, (plus, minus)):
        assert p == pytest.approx(0.5, abs=1e-12)
        assert abs(np.vdot(s.amplitudes, expect)) == pytest.approx(1.0, abs=1e-12)


def test_measure_definite_state():
    branches = measure(computational(AB, "01"), "A", 1, "Z")
    assert len(branches) == 1  # the other branch has zero weight and is dropped
    out, p, s = branches[0]
    assert out == "0"
    assert p == pytest.approx(1.0)
    assert s.register.sites == (2,)


def test_measure_custom_basis():
    ry = np.array([[np.cos(0.3), np.sin(0.3)], [-np.sin(0.3), np.cos(0.3)]])
    branches = measure(ghz(ABC), "A", 1, ry)
    assert sum(p for _, p, _ in branches) == pytest.approx(1.0, abs=1e-12)


def test_measure_ownership_and_basis_errors():
    with pytest.raises(SiteOwnership):
        measure(ghz(ABC), "A", 2, "Z")
    with pytest.raises(NotUnitary):
        measure(ghz(ABC), "A", 1, "Y")
    with pytest.raises(NotUnitary):
        measure(ghz(ABC), "A", 1, np.array([[1, 1], [1, 1]]) / np.sqrt(2))
    with pytest.raises(NotUnitary):
        measure(ghz(ABC), "A", 1, np.array([[np.nan, 0], [0, 1]]))


@pytest.mark.parametrize(
    "entries",
    [
        pytest.param(np.array([["a", "b"], ["c", "d"]], dtype=object), id="strings"),
        pytest.param([[1, 0], [0]], id="ragged"),
    ],
)
def test_a_matrix_that_is_no_complex_array_is_not_unitary(entries):
    # the primitives check their own arguments, so the error names no step
    for call in (lambda: measure(ghz(ABC), "A", 1, entries), lambda: apply_unitary(ghz(ABC), "A", (1,), entries)):
        with pytest.raises(NotUnitary, match="does not convert to complex values") as exc:
            call()
        assert exc.value.step is None


def test_measuring_the_last_site_is_a_malformed_step():
    # a state lives on one site at least: the primitive and a run both reject
    # the measurement that would take the last one, at that step
    with pytest.raises(MalformedProtocol, match="would leave no site") as exc:
        measure(computational(Register.of([(1, "A")]), "0"), "A", 1)
    assert exc.value.step is None
    steps = (Measure("A", 1), Measure("B", 2))
    with pytest.raises(MalformedProtocol, match="would leave no site") as exc:
        run_protocol(computational(AB, "01"), Protocol(steps, Target("exact", computational(AB, "01"))))
    assert exc.value.step == 1


# ---------------------------------------------------------------------------
# unitaries


def test_cnot_site_order():
    # first listed site is the control
    both_b = Register.of([(1, "B"), (2, "B")])
    s = computational(both_b, "10")
    assert apply_unitary(s, "B", (1, 2), CNOT).is_close(computational(both_b, "11"))
    s = computational(both_b, "01")
    assert apply_unitary(s, "B", (2, 1), CNOT).is_close(computational(both_b, "11"))


def test_bit_flip_reaches_flat_triple():
    amps = np.zeros(8, complex)
    amps[[0b100, 0b011]] = 1 / np.sqrt(2)
    s = PureState(ABC, amps)
    assert apply_unitary(s, "A", (1,), PAULI_X).is_close(ghz(ABC))


def test_identity_is_noop():
    s = w_state(ABC)
    assert apply_unitary(s, "B", (2,), np.eye(2)).is_close(s)


def test_unitary_validation():
    with pytest.raises(NotUnitary):
        apply_unitary(ghz(ABC), "A", (1,), np.array([[1, 0], [0, 2]]))
    with pytest.raises(NotUnitary):
        apply_unitary(ghz(ABC), "A", (1,), np.eye(4))
    with pytest.raises(NotUnitary):
        apply_unitary(ghz(ABC), "A", (1,), np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(SiteOwnership):
        apply_unitary(ghz(ABC), "A", (1, 2), CNOT)
    with pytest.raises(MalformedProtocol):
        apply_unitary(ghz(ABC), "A", (1, 1), np.eye(4))


def test_unitary_acts_on_correct_axes():
    rng = np.random.default_rng(2)
    reg = Register.of([(1, "A"), (2, "A"), (3, "A")])
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    s = PureState(reg, v / np.linalg.norm(v))
    u = haar_unitary(rng)
    # applying on site 3 must equal I (x) I (x) u on the flat vector
    direct = np.kron(np.eye(4), u) @ s.amplitudes
    assert np.allclose(apply_unitary(s, "A", (3,), u).amplitudes, direct, atol=1e-12)


# ---------------------------------------------------------------------------
# teleportation


def payload_with_spectator(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    payload = PureState(Register.of([(1, "A"), (4, "B")]), v / np.linalg.norm(v))
    return payload, tensor(payload, epr(Register.of([(2, "A"), (3, "B")])))


def test_teleport_carries_amplitudes():
    payload, full = payload_with_spectator(np.random.default_rng(7))
    out = teleport(full, 1, (2, 3))
    assert out.register.sites == (4, 3)
    assert out.register.parties == ("B", "B")
    moved = out.permuted((3, 4)).amplitudes
    assert abs(np.vdot(moved, payload.amplitudes)) == pytest.approx(1.0, abs=1e-12)


def test_teleport_preserves_pair_spectrum():
    # teleporting one half of an entangled pair keeps its Schmidt data
    rng = np.random.default_rng(13)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    pair = PureState(Register.of([(1, "A"), (4, "C")]), v / np.linalg.norm(v))
    full = tensor(pair, epr(Register.of([(2, "A"), (3, "B")])))
    before = schmidt(pair, ["A"])
    out = teleport(full, 1, (2, 3))
    after = schmidt(out, ["B"])
    assert np.allclose(before, after, atol=1e-12)


def test_teleport_commutes_with_source_unitary():
    rng = np.random.default_rng(19)
    _payload, full = payload_with_spectator(rng)
    u = haar_unitary(rng)
    first = teleport(apply_unitary(full, "A", (1,), u), 1, (2, 3))
    second = apply_unitary(teleport(full, 1, (2, 3)), "B", (3,), u)
    assert abs(first.overlap(second)) == pytest.approx(1.0, abs=1e-12)


# Bell outcome bras over (source, near) and the matching correction on far
BELL_BRANCHES = (
    ("00", np.array([[1, 0], [0, 1]]) / np.sqrt(2), np.eye(2)),
    ("01", np.array([[0, 1], [1, 0]]) / np.sqrt(2), PAULI_X),
    ("10", np.array([[1, 0], [0, -1]]) / np.sqrt(2), PAULI_Z),
    ("11", np.array([[0, 1], [-1, 0]]) / np.sqrt(2), PAULI_Z @ PAULI_X),
)


def teleport_branches(s, source, epr_sites):
    """The reference ``teleport`` is checked against: all four Bell branches
    of the teleport as (outcome, probability, post-state), each with its
    correction applied."""
    teleport(s, source, epr_sites)  # for its checks of the sites and the pair
    near, far = epr_sites
    ax_s = s.register.axis_of(source)
    ax_n = s.register.axis_of(near)
    reg = s.register.without([source, near])
    out = []
    for label, bra, fix in BELL_BRANCHES:
        t = np.tensordot(bra, s.tensor_view(), axes=([0, 1], [ax_s, ax_n]))
        p = float(np.linalg.norm(t) ** 2)
        post = PureState(reg, t.reshape(-1) / np.sqrt(p))
        out.append((label, p, apply_unitary(post, reg.party_of(far), (far,), fix)))
    return out


def test_teleport_verbose_branches():
    _payload, full = payload_with_spectator(np.random.default_rng(23))
    merged = teleport(full, 1, (2, 3))
    branches = teleport_branches(full, 1, (2, 3))
    assert [b[0] for b in branches] == ["00", "01", "10", "11"]
    for _out, p, post in branches:
        assert p == pytest.approx(0.25, abs=1e-12)
        assert abs(post.overlap(merged)) == pytest.approx(1.0, abs=1e-12)


def test_teleport_requires_resource_pair():
    payload, _unused = payload_with_spectator(np.random.default_rng(1))
    lopsided = PureState(
        Register.of([(2, "A"), (3, "B")]),
        np.array([np.sqrt(0.7), 0, 0, np.sqrt(0.3)], complex),
    )
    with pytest.raises(NotAnEprResource):
        teleport(tensor(payload, lopsided), 1, (2, 3))


@pytest.mark.parametrize("amps", [[0, 1, 1, 0], [1, 0, 0, -1]], ids=["psi_plus", "phi_minus"])
def test_teleport_rejects_other_bell_states(amps):
    payload, _unused = payload_with_spectator(np.random.default_rng(2))
    bell = PureState(Register.of([(2, "A"), (3, "B")]), np.array(amps, complex) / np.sqrt(2))
    with pytest.raises(NotAnEprResource):
        teleport(tensor(payload, bell), 1, (2, 3))


def test_teleport_rejects_pair_inside_ghz():
    payload, _unused = payload_with_spectator(np.random.default_rng(4))
    shared = ghz(Register.of([(2, "A"), (3, "B"), (5, "C")]))
    with pytest.raises(NotAnEprResource):
        teleport(tensor(payload, shared), 1, (2, 3))


def test_teleport_accepts_pair_listed_far_first():
    payload, _unused = payload_with_spectator(np.random.default_rng(6))
    out = teleport(tensor(payload, epr(Register.of([(3, "B"), (2, "A")]))), 1, (2, 3))
    moved = out.permuted((3, 4)).amplitudes
    assert abs(np.vdot(moved, payload.amplitudes)) == pytest.approx(1.0, abs=1e-12)


def test_teleport_site_checks():
    _payload, full = payload_with_spectator(np.random.default_rng(3))
    with pytest.raises(SiteOwnership):
        teleport(full, 1, (3, 2))  # near site belongs to the other side
    with pytest.raises(MalformedProtocol):
        teleport(full, 1, (1, 3))


# ---------------------------------------------------------------------------
# the gather kernels against the transposes they replaced


def front(reg, sites):
    axes = tuple(reg.axis_of(x) for x in sites)
    return axes + tuple(a for a in range(reg.n_sites) if a not in axes)


def transposed_measure(s, site, rows):
    """(outcome, probability, post-state amplitudes) of both outcomes, from
    the outcome bras times the amplitudes as an (L, 2, R) array."""
    ax = s.register.axis_of(site)
    out = rows @ s.amplitudes.reshape(2**ax, 2, -1)
    probs = np.einsum("ikj,ikj->k", out, out.conj()).real.tolist()
    return [(str(k), p, out[:, k].reshape(-1) / np.sqrt(p)) for k, p in enumerate(probs) if p >= protocol.BRANCH_DROP]


def transposed_unitary(s, sites, u):
    shape, order = (2,) * s.n_sites, front(s.register, sites)
    t = s.amplitudes.reshape(shape).transpose(order).reshape(len(u), -1)
    return (u @ t).reshape(shape).transpose(tuple(np.argsort(order).tolist())).reshape(-1)


def transposed_teleport(s, source, near):
    m = s.tensor_view().transpose(front(s.register, (source, near))).reshape(4, -1)
    v = (m[0] + m[3]) * np.sqrt(2.0)
    return v / np.sqrt(np.vdot(v, v).real)


def random_state(rng, sites):
    # one party holds every site, so any step passes the ownership checks
    v = rng.normal(size=2 ** len(sites)) + 1j * rng.normal(size=2 ** len(sites))
    return PureState(Register(tuple(sites), ("A",) * len(sites)), v / np.linalg.norm(v))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=3, max_value=8).flatmap(lambda n: st.permutations(range(1, n + 1))),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_gather_kernels_equal_the_transposes_they_replaced(sites, seed, data):
    rng = np.random.default_rng(seed)
    s = random_state(rng, sites)
    # a unitary on 1-3 sites in any order, adjacent in the register or not
    acting = data.draw(st.lists(st.sampled_from(sites), min_size=1, max_size=3, unique=True))
    dim = 2 ** len(acting)
    u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    assert np.array_equal(apply_unitary(s, "A", acting, u).amplitudes, transposed_unitary(s, acting, u))
    # a measurement of any site in a named or a drawn basis
    site, basis = data.draw(st.sampled_from(sites)), data.draw(st.sampled_from(("Z", "X", "drawn")))
    rows = haar_unitary(rng) if basis == "drawn" else {"Z": protocol.BASIS_Z, "X": BASIS_X}[basis]
    got, want = measure(s, "A", site, rows), transposed_measure(s, site, rows)
    assert [k for k, _, _ in got] == [k for k, _, _ in want]
    for (_, p, post), (_, q, amps) in zip(got, want):
        if s.register.axis_of(site) == 0:  # one (2, 2) @ (2, R) product and one sum, as before
            assert p == q and np.array_equal(post.amplitudes, amps)
        else:  # one product and one sum over L*R columns, not L batches of R: round-off apart
            assert abs(p - q) <= 1e-14 and np.allclose(post.amplitudes, amps, rtol=0, atol=1e-14)
    # a teleport through a resource pair whose sites fall in either order in the register
    source, near, far = data.draw(st.permutations(sites))[:3]
    rest = [x for x in sites if x not in (near, far)]
    full = tensor(random_state(rng, rest), epr(Register((near, far), ("A", "A")))).permuted(sites)
    assert np.array_equal(teleport(full, source, (near, far)).amplitudes, transposed_teleport(full, source, near))


# ---------------------------------------------------------------------------
# the runner


def walk(node, visit):
    visit(node)
    for child in node.children:
        walk(child, visit)


def test_tree_probability_conservation():
    root = prop3(0.4).run()
    assert root.prob == pytest.approx(1.0, abs=1e-12)

    def check(node):
        if node.children:
            total = sum(c.prob for c in node.children)
            assert total == pytest.approx(node.prob, abs=1e-9)

    walk(root, check)


def test_tree_outcome_ordering():
    # depth-first, branch outcomes in ascending order at each node
    result = prop3(0.4).run()
    records = [leaf.record for leaf in result.leaves()]
    assert records == ["00", "01", "1"]


def test_exact_target_success():
    state = ghz(ABC)
    proto = Protocol(
        steps=(Measure("A", 1, "X", accept="*"),
               Unitary("B", (2,), np.diag([1, -1]).astype(complex), when="1")),
        target=Target("exact", state=epr(Register.of([(2, "B"), (3, "C")]))),
    )
    result = run_protocol(state, proto)
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)


def test_conditional_unitary_gates_on_record():
    # without the correction the minus branch must fail the exact target
    state = ghz(ABC)
    proto = Protocol(
        steps=(Measure("A", 1, "X", accept="*"),),
        target=Target("exact", state=epr(Register.of([(2, "B"), (3, "C")]))),
    )
    result = run_protocol(state, proto)
    assert result.success_probability == pytest.approx(0.5, abs=1e-12)


def test_ghz_lu_target_accepts_relabeled_flat_triple():
    # outcome-0 leaf of the pair-assisted conversion: (|100> + |011>)/sqrt(2)
    result = prop3(0.4).run()
    leaf = result.leaves()[0]
    assert leaf.record == "00"
    assert leaf.status == "success"
    expect = np.zeros(8, complex)
    expect[[0b100, 0b011]] = 1 / np.sqrt(2)
    assert abs(np.vdot(leaf.state.amplitudes, expect)) == pytest.approx(1.0, abs=1e-12)


def test_ghz_lu_target_rejects_w_leaf():
    state = tensor(w_state(ABC), epr(Register.of([(4, "B"), (5, "C")])))
    proto = Protocol(
        steps=(Measure("B", 4, "Z", accept="0"),),
        target=Target("ghz-lu", sites=(1, 2, 3)),
    )
    result = run_protocol(state, proto)
    assert result.success_probability == pytest.approx(0.0)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(("ghz", "entangled", "w")),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_ghz_lu_target_factors_out_only_a_product_rest(kind, seed, data):
    # a flat triple on sites 1-3 plus spare sites 4.., all under random local
    # unitaries and listed in a random register order; only GHZ with a rest
    # that factors out is a success
    spare = data.draw(st.integers(min_value=1 if kind == "entangled" else 0, max_value=2))
    triple = w_state(ABC) if kind == "w" else ghz(ABC)
    s = triple
    if spare:
        rest = Register.of([(4, "C"), (5, "A")][:spare])
        s = tensor(triple, computational(rest, "0" * spare))
    if kind == "entangled":
        # copying site 3 onto site 4 entangles the rest with the triple
        s = apply_unitary(s, "C", (3, 4), CNOT)
    rng = np.random.default_rng(seed)
    s = apply_site_ops(s, {x: haar_unitary(rng) for x in s.register.sites})
    s = s.permuted(data.draw(st.permutations(s.register.sites)))
    sites = tuple(data.draw(st.permutations((1, 2, 3))))
    result = run_protocol(s, Protocol((), Target("ghz-lu", sites=sites)))
    assert result.success_probability == (1.0 if kind == "ghz" else 0.0)


def svd_ghz_lu_success(leaf, sites):
    """The ghz-lu leaf rule read through SVDs: the rest factors out, and the
    triple's single-site spectra, from a stacked SVD, are flat."""
    kept = tuple(x for x in leaf.register.sites if x in set(sites))
    u, sv, _ = np.linalg.svd(_cut(leaf, kept), full_matrices=False)
    if np.sum(sv**4) < 1.0 - 1e-9:
        return False
    triple = u[:, 0].reshape(2, 2, 2)
    probs = np.linalg.svd(np.stack([_unfold(triple, (m,)) for m in range(3)]), compute_uv=False) ** 2
    return np.max(np.abs(probs - 0.5)) <= 1e-9 and abs(_tangle(triple) - 1.0) <= 1e-9


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n_sites", [3, 5])
def test_ghz_lu_leaf_rule_agrees_with_the_svd_rule(n_sites, seed):
    # GHZ under random local unitaries succeeds; perturbed by 1e-6 it fails
    rng = np.random.default_rng(seed)
    s = ghz(ABC)
    if n_sites == 5:
        s = tensor(s, computational(Register.of([(4, "C"), (5, "A")]), "00"))
    s = apply_site_ops(s, {x: haar_unitary(rng) for x in s.register.sites})
    s = s.permuted(rng.permutation(s.register.sites))
    noise = rng.normal(size=s.register.dim) + 1j * rng.normal(size=s.register.dim)
    v = s.amplitudes + 1e-6 * noise / np.linalg.norm(noise)
    bent = PureState(s.register, v / np.linalg.norm(v))
    for leaf, want in ((s, True), (bent, False)):
        assert _ghz_lu_success(leaf, (1, 2, 3)) == svd_ghz_lu_success(leaf, (1, 2, 3)) == want


def test_when_pattern_skips_star_positions():
    # after A's X outcome and B's Z outcome, C holds B's bit; flipping it
    # whenever B saw 1 leaves C in |0> on every branch
    c_zero = computational(Register.of([(3, "C")]), "0")

    def run(when):
        steps = (
            Measure("A", 1, "X"),
            Measure("B", 2, "Z"),
            Unitary("C", (3,), PAULI_X, when=when),
        )
        return run_protocol(ghz(ABC), Protocol(steps, Target("exact", state=c_zero)))

    assert run("*1").success_probability == pytest.approx(1.0, abs=1e-12)
    # "01" also demands A's outcome 0, so the (1, 1) branch keeps |1>
    assert run("01").success_probability == pytest.approx(0.75, abs=1e-12)


def test_malformed_protocols():
    state = ghz(ABC)
    dead_site = Protocol(
        steps=(Measure("A", 1, "Z"), Measure("A", 1, "Z")),
        target=Target("ghz-lu", sites=(1, 2, 3)),
    )
    with pytest.raises(MalformedProtocol):
        run_protocol(state, dead_site)

    unknown_party = Protocol(
        steps=(Measure("D", 1, "Z"),), target=Target("ghz-lu", sites=(1, 2, 3))
    )
    with pytest.raises(MalformedProtocol):
        run_protocol(state, unknown_party)

    bad_accept = Protocol(
        steps=(Measure("A", 1, "Z", accept="2"),),
        target=Target("ghz-lu", sites=(2, 3, 1)),
    )
    with pytest.raises(MalformedProtocol):
        run_protocol(state, bad_accept)

    # ghz-lu target site consumed by a measurement
    consumed = Protocol(
        steps=(Measure("A", 1, "Z"),), target=Target("ghz-lu", sites=(1, 2, 3))
    )
    with pytest.raises(MalformedProtocol):
        run_protocol(state, consumed)

    # exact target register must match the survivors
    mismatched = Protocol(
        steps=(Measure("A", 1, "Z"),),
        target=Target("exact", state=epr(Register.of([(2, "B"), (3, "B")]))),
    )
    with pytest.raises(MalformedProtocol):
        run_protocol(state, mismatched)

    with pytest.raises(MalformedProtocol):
        run_protocol(state, Protocol(steps=(), target=Target("fuzzy")))


def test_misowned_step_rejected_on_every_branch():
    # the validator checks each step, not only the steps some branch reaches
    bc = Register.of([(2, "B"), (3, "C")])
    unreached = Protocol(
        steps=(Measure("A", 1, "Z", accept="1"), Unitary("A", (2,), PAULI_X)),
        target=Target("exact", state=epr(bc)),
    )
    with pytest.raises(SiteOwnership) as exc:
        run_protocol(computational(ABC, "000"), unreached)
    assert exc.value.step == 1

    never_fires = Protocol(
        steps=(Measure("A", 1, "Z"), Unitary("A", (2,), PAULI_X, when="1")),
        target=Target("exact", state=epr(bc)),
    )
    with pytest.raises(SiteOwnership) as exc:
        run_protocol(computational(ABC, "000"), never_fires)
    assert exc.value.step == 1


def test_unreached_bad_matrix_or_basis_rejected():
    # outcome 1 never occurs on |000>, so no branch reaches step 1
    bc = Register.of([(2, "B"), (3, "C")])
    for step in (Unitary("B", (2,), np.eye(3)), Measure("B", 2, "Y")):
        unreached = Protocol(
            steps=(Measure("A", 1, "Z", accept="1"), step),
            target=Target("exact", state=epr(bc)),
        )
        with pytest.raises(NotUnitary) as exc:
            run_protocol(computational(ABC, "000"), unreached)
        assert exc.value.step == 1


def test_validator_names_the_failing_step():
    state = tensor(ghz(ABC), epr(Register.of([(4, "B"), (5, "C")])))
    cases = [
        # a unitary's sites must differ
        ((Unitary("B", (2, 2), CNOT),), MalformedProtocol, 0),
        # source and near pair site must sit with one party
        ((Measure("A", 1, "Z"), Teleport(3, 4, 5)), SiteOwnership, 1),
        # the surviving sites cannot hold a ghz-lu triple on 1, 2, 3
        ((Measure("A", 1, "Z"),), MalformedProtocol, "target"),
        # a when pattern has only the characters 0, 1 and *
        ((Measure("A", 1, "Z"), Unitary("B", (2,), PAULI_X, when="2")), MalformedProtocol, 1),
        # ... and one character per measurement before its step
        ((Measure("A", 1, "Z"), Unitary("B", (2,), PAULI_X, when="1*")), MalformedProtocol, 1),
        ((Unitary("B", (2,), PAULI_X, when="0"),), MalformedProtocol, 0),
        # a unitary's sites are a sequence, not a bare site label
        ((Unitary("A", 1, PAULI_X),), MalformedProtocol, 0),
    ]
    for steps, error, where in cases:
        with pytest.raises(error) as exc:
            run_protocol(state, Protocol(steps, Target("ghz-lu", sites=(1, 2, 3))))
        assert exc.value.step == where
        assert str(exc.value).startswith("target: " if where == "target" else f"steps[{where}]: ")


# site 1 (A) holds a payload, sites 2 (A) and 3 (B) a resource pair
PAIR = tensor(computational(Register.of([(1, "A")]), "0"), epr(Register.of([(2, "A"), (3, "B")])))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: measure(PAIR, "A", 9), id="measure-missing-site"),
        pytest.param(lambda: measure(PAIR, "D", 1), id="measure-unknown-party"),
        pytest.param(lambda: apply_unitary(PAIR, "A", (9,), PAULI_X), id="unitary-missing-site"),
        pytest.param(lambda: apply_unitary(PAIR, "A", 1, PAULI_X), id="unitary-bare-int-sites"),
        pytest.param(lambda: apply_unitary(PAIR, "D", (1,), PAULI_X), id="unitary-unknown-party"),
        pytest.param(lambda: teleport(PAIR, 9, (2, 3)), id="teleport-missing-site"),
        pytest.param(lambda: teleport(PAIR, 1, 2), id="teleport-bare-int-pair"),
    ],
)
def test_primitives_reject_bad_arguments_like_the_validator(call):
    # the primitives run the validator's per-step check, with no step index
    with pytest.raises(MalformedProtocol) as exc:
        call()
    assert exc.value.step is None


# sites 1-3 hold the W state (A, B, C), sites 4 and 5 an EPR pair (B, C)
W_EPR = tensor(w_state(ABC), epr(Register.of([(4, "B"), (5, "C")])))
OWNER = {1: "A", 2: "B", 3: "C", 4: "B", 5: "C", 6: "A"}  # site 6 is not in the register
# per site count: mostly unitaries, now and then a matrix the validator rejects
MATRICES = {
    1: (PAULI_X, PAULI_Z) * 3 + (np.diag([1.0, 2.0]),),
    2: (CNOT, np.eye(4)) * 3 + (np.eye(3),),
}


@st.composite
def data_steps(draw):
    """A Measure, Unitary or Teleport step on W_EPR.  Most steps act for the
    party holding their first site, carry a well-formed basis, matrix or
    pattern, and touch sites 3 and 4, which the target leaves free."""
    site = draw(st.sampled_from((3, 4) * 5 + (1, 2, 5, 6)))
    kind = draw(st.sampled_from(("measure", "unitary", "teleport")))
    if kind == "teleport":
        return Teleport(*draw(st.sampled_from(((2, 4, 5), (site, 4, 5), (3, site, 5)))))
    # (2, 4) and (3, 5) are the two same-party site pairs
    pairs = ((site,),) * 3 + ((2, 4), (3, 5), (site, 4))
    sites = (site,) if kind == "measure" else draw(st.sampled_from(pairs))
    party = draw(st.sampled_from((OWNER[sites[0]],) * 8 + ("A", "B", "C")))
    if kind == "measure":
        basis = draw(st.sampled_from(("Z", "X") * 4 + ("Y",)))
        return Measure(party, site, basis, draw(st.sampled_from(("0", "1") + ("*",) * 6 + ("2",))))
    when = draw(st.one_of(st.none(), st.text(alphabet="01*", max_size=2), st.just("2")))
    matrix = draw(st.sampled_from(MATRICES[len(sites)]))
    return Unitary(party, sites, matrix, when)


@settings(max_examples=200, deadline=None)
@given(st.lists(data_steps(), max_size=5))
def test_random_data_protocols_run_or_name_their_step(steps):
    # a random data-step protocol either runs to leaves that carry all the
    # probability, or is stopped by the validator at a named step, or meets
    # a teleport pair that is not a resource pair on some branch
    target = Target("ghz-lu", sites=(1, 2, 5))
    try:
        result = run_protocol(W_EPR, Protocol(tuple(steps), target))
    except (MalformedProtocol, SiteOwnership, NotUnitary) as exc:
        assert exc.step is not None
    except NotAnEprResource:
        pass
    else:
        assert sum(leaf.prob for leaf in result.leaves()) == pytest.approx(1.0, abs=1e-9)


def chained_tree(s, p):
    """``run_protocol`` written as a chain of the public primitives: every
    step and the target checked up front, then each branch calls
    ``measure``, ``apply_unitary`` or ``teleport`` itself."""
    live, measured = s.register, 0
    for i, step in enumerate(p.steps):
        _check_step(step, s.register, live, measured, i)
        if isinstance(step, Measure):
            live = live.without((step.site,))
            measured += 1
        elif isinstance(step, Teleport):
            live = live.without((step.source, step.near))
    _check_target(s, p.target, live.sites)

    def expand(state, record, prob, idx):
        for j in range(idx, len(p.steps)):
            step = p.steps[j]
            if isinstance(step, Measure):
                children = []
                for outcome, pk, post in measure(state, step.party, step.site, step.basis):
                    if step.accept in ("*", outcome):
                        children.append(expand(post, record + outcome, prob * pk, j + 1))
                    else:
                        children.append(BranchNode(record + outcome, prob * pk, post, "failure"))
                return BranchNode(record, prob, state, "internal", tuple(children))
            if isinstance(step, Teleport):
                state = teleport(state, step.source, (step.near, step.far))
            elif step.when is None or all(w in ("*", r) for w, r in zip(step.when, record)):
                state = apply_unitary(state, step.party, step.sites, step.matrix)
        return BranchNode(record, prob, state, "success" if _leaf_success(state, p.target) else "failure")

    return expand(s, "", 1.0, 0)


def outcome(run):
    try:
        return run()
    except LoccSimError as exc:
        return type(exc)


def assert_same_tree(got, want):
    assert (got.record, got.status, len(got.children)) == (want.record, want.status, len(want.children))
    assert got.prob == pytest.approx(want.prob, abs=1e-12)
    assert got.state.register == want.state.register
    assert np.allclose(got.state.amplitudes, want.state.amplitudes, rtol=0, atol=1e-12)
    for g, w in zip(got.children, want.children):
        assert_same_tree(g, w)


@settings(max_examples=200, deadline=None)
@given(st.lists(data_steps(), max_size=5), st.sampled_from(((1, 2, 5), (1, 2, 3))))
def test_run_equals_the_chained_primitives(steps, sites):
    p = Protocol(tuple(steps), Target("ghz-lu", sites=sites))
    got = outcome(lambda: run_protocol(W_EPR, p))
    want = outcome(lambda: chained_tree(W_EPR, p))
    if isinstance(want, BranchNode):
        assert_same_tree(got, want)
    else:
        assert got is want


@pytest.fixture
def checks(monkeypatch):
    """An emptied plan memo for the test, and the list of steps
    ``_check_step`` is called on, in call order."""
    monkeypatch.setattr(protocol, "_PLANS", {})
    calls = []

    def counted(*args):
        calls.append(args[0])
        return _check_step(*args)

    monkeypatch.setattr(protocol, "_check_step", counted)
    return calls


@pytest.mark.parametrize(
    "build, n_steps",
    [pytest.param(lambda: prop3(0.4), 3, id="prop3"), pytest.param(ghz_plus_epr_to_any, 4, id="ghz_plus_epr_to_any")],
)
def test_run_checks_each_step_once(build, n_steps, checks):
    build().run()
    assert len(checks) == n_steps
    # the builder makes new step objects, equal in value: nothing to check
    build().run()
    assert len(checks) == n_steps


def test_kept_plans_hold_read_only_index_arrays(checks):
    # a branch gathers through its plan's index arrays, so no run may change them
    prop3(0.4).run()
    intro_teleport().run()
    entries = [(step, args) for plan, _ in protocol._PLANS.values() for step, args, _ in plan]
    kinds = [type(step) for step, _ in entries]
    assert {Measure, Unitary, Teleport} <= set(kinds)
    indices = [a for _, args in entries for a in args if isinstance(a, np.ndarray) and a.dtype.kind == "i"]
    assert len(indices) == len(kinds) + kinds.count(Teleport)
    assert not any(index.flags.writeable for index in indices)


def _memo_case(state=None, basis="X", accept="*", matrix=PAULI_Z, when="1"):
    # ghz_to_epr, with each value the plan key reads open to change
    state = state or ghz(ABC)
    steps = (Measure("A", 1, basis, accept), Unitary("B", (2,), matrix, when=when))
    pair = Register.of([(x, state.register.party_of(x)) for x in (2, 3)])
    return run_protocol(state, Protocol(steps, Target("exact", state=epr(pair))))


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"matrix": np.diag([1, 1j])}, id="matrix entry"),
        pytest.param({"basis": "Z"}, id="basis name"),
        pytest.param({"basis": BASIS_X * 1j}, id="basis values"),
        pytest.param({"accept": "1"}, id="accept"),
        pytest.param({"when": "*"}, id="when"),
        pytest.param({"state": ghz(Register.of([(1, "A"), (2, "B"), (3, "D")]))}, id="register party"),
    ],
)
def test_a_changed_value_is_checked_again(change, checks):
    _memo_case()
    _memo_case()
    assert len(checks) == 2
    _memo_case(**change)
    assert len(checks) == 4


def test_a_matrix_changed_in_place_is_checked_again(checks):
    matrix = PAULI_Z.copy()
    assert _memo_case(matrix=matrix).success_probability == pytest.approx(1.0, abs=1e-12)
    matrix[1, 1] = 2.0
    with pytest.raises(NotUnitary) as exc:
        _memo_case(matrix=matrix)
    assert exc.value.step == 1
    # the kept plan holds its own copy of the matrix the first run checked
    n = len(checks)
    assert _memo_case(matrix=PAULI_Z.copy()).success_probability == pytest.approx(1.0, abs=1e-12)
    assert len(checks) == n


@pytest.mark.parametrize(
    "steps, error, where",
    [
        pytest.param((Unitary("A", 1, PAULI_X),), MalformedProtocol, 0, id="bare site"),
        pytest.param((Measure("A", 1, "Z"), Unitary("B", (2,), PAULI_X, when=["1"])), MalformedProtocol, 1, id="list when"),
        pytest.param(
            (Measure("A", 1, "Z"), Measure("B", 2, np.array([[1, None], [0, 1]], dtype=object))),
            NotUnitary, 1, id="object basis",
        ),
        pytest.param(
            (Measure("A", 1, "Z"), Measure("B", 2, np.array([["a", "b"], ["c", "d"]], dtype=object))),
            NotUnitary, 1, id="string basis",
        ),
        pytest.param((Unitary("A", (1,), [["1", "0"], ["0", "i"]]),), NotUnitary, 0, id="string matrix"),
    ],
)
def test_an_ill_typed_step_raises_at_its_index_on_every_run(steps, error, where, checks):
    state = tensor(ghz(ABC), epr(Register.of([(4, "B"), (5, "C")])))
    for _ in range(2):
        with pytest.raises(error) as exc:
            run_protocol(state, Protocol(steps, Target("ghz-lu", sites=(3, 4, 5))))
        assert exc.value.step == where
    assert protocol._PLANS == {}


def test_the_memo_keeps_at_most_its_bound(checks):
    def run(k):
        _memo_case(matrix=np.diag([1, np.exp(1j * k / 1000)]))

    for k in range(2 * protocol.PLAN_MEMO_SIZE):
        run(k)
    assert len(protocol._PLANS) == protocol.PLAN_MEMO_SIZE
    n = len(checks)
    run(2 * protocol.PLAN_MEMO_SIZE - 1)  # the newest is kept
    assert len(checks) == n
    run(0)  # the oldest went first
    assert len(checks) == n + 2


def test_resource_pair_is_tested_on_each_branch():
    # site 1 (A) holds |+>, site 2 (A) holds |1>, sites 3 (A) and 4 (B) a
    # resource pair; on outcome 1 alone the CNOT from site 2 spoils the pair
    state = tensor(
        PureState(Register.of([(1, "A"), (2, "A")]), np.array([0, 1, 0, 1]) / np.sqrt(2)),
        epr(Register.of([(3, "A"), (4, "B")])),
    )
    target = Target("exact", state=computational(Register.of([(4, "B")]), "1"))
    spoil = Unitary("A", (2, 3), CNOT, when="1")
    steps = (Measure("A", 1, "Z"), spoil, Teleport(2, 3, 4))
    with pytest.raises(NotAnEprResource):
        run_protocol(state, Protocol(steps, target))
    root = run_protocol(state, Protocol(tuple(x for x in steps if x is not spoil), target))
    assert sum(leaf.prob for leaf in root.leaves()) == pytest.approx(1.0, abs=1e-12)
    assert root.success_probability == pytest.approx(1.0, abs=1e-12)


def _padded_target(prepared) -> PureState:
    # the maximally entangled triple on the target sites, every measured site
    # in |0>, on the input register (prop3_target for prop3)
    reg = prepared.state.register
    amps = np.zeros(reg.dim, dtype=np.complex128)
    ones = sum(1 << (reg.n_sites - 1 - reg.axis_of(x)) for x in prepared.protocol.target.sites)
    amps[0] = amps[ones] = 1 / np.sqrt(2)
    return PureState(reg, amps)


PAIR_CONVERSIONS = {
    "prop3 BC": lambda x: prop3(x, "BC"),
    "prop3 AC": lambda x: prop3(x, "AC"),
    "prop3_b": prop3_b,
    "prop3_c": prop3_c,
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(PAIR_CONVERSIONS)), st.floats(min_value=1 / 3, max_value=0.5, exclude_max=True))
def test_pair_conversions_meet_the_splitting_bound(name, x):
    # each one-pair conversion succeeds with 2x, and no protocol beats the
    # splitting bound against its final state, which is 2x too
    prepared = PAIR_CONVERSIONS[name](x)
    p = prepared.run().success_probability
    bound = splitting_bound(prepared.state, _padded_target(prepared)).bound
    assert p <= bound + 1e-12
    assert abs(p - bound) <= 1e-12
    assert abs(bound - 2 * x) <= 1e-12


_haar = st.integers(min_value=0, max_value=2**32 - 1).map(lambda seed: haar_unitary(np.random.default_rng(seed)))


@st.composite
def near_pair_conversions(draw):
    """A one-pair conversion with a random local unitary, conditioned on a
    random ``when`` pattern or not, drawn before any step and at the end, and
    each measurement in a random basis."""
    prepared = PAIR_CONVERSIONS[draw(st.sampled_from(sorted(PAIR_CONVERSIONS)))](
        draw(st.floats(min_value=1 / 3, max_value=0.5, exclude_max=True))
    )
    reg = prepared.state.register
    steps, live, measured = [], list(reg.sites), 0
    for step in prepared.protocol.steps + (None,):
        if draw(st.booleans()):
            x = draw(st.sampled_from(tuple(live)))
            when = draw(st.none() | st.text("01*", min_size=measured, max_size=measured))
            steps.append(Unitary(reg.party_of(x), (x,), draw(_haar), when=when))
        if isinstance(step, Measure):
            step = Measure(step.party, step.site, draw(st.sampled_from(["Z", "X"]) | _haar), step.accept)
            live.remove(step.site)
            measured += 1
        if step is not None:
            steps.append(step)
    return prepared._replace(protocol=Protocol(tuple(steps), prepared.protocol.target))


@settings(max_examples=60, deadline=None)
@given(near_pair_conversions())
def test_protocols_near_the_pair_conversions_stay_below_the_bound(prepared):
    prepared.run()
    kept = prepared.run()  # from the plan the first run kept
    assert kept.success_probability <= splitting_bound(prepared.state, _padded_target(prepared)).bound + 1e-12
    # a run from the kept plan equals one planned afresh
    protocol._PLANS.clear()
    assert_same_tree(kept, prepared.run())


def _padded_exact_target(prepared) -> PureState:
    # the exact target with every site the steps consume in |0>, each kept by
    # its owner in the input register, so the parties hold as many sites on
    # both sides; the target check makes the target's sites the survivors
    reg, kept = prepared.state.register, prepared.protocol.target.state.register
    gone = Register.of([(x, p) for x, p in zip(reg.sites, reg.parties) if x not in kept.sites])
    return tensor(prepared.protocol.target.state, computational(gone, "0" * gone.n_sites))


@pytest.mark.parametrize("build", [intro_teleport, ghz_to_epr], ids=["intro_teleport", "ghz_to_epr"])
def test_exact_target_builders_meet_the_splitting_bound(build):
    prepared = build()
    p = prepared.run().success_probability
    assert p <= splitting_bound(prepared.state, _padded_exact_target(prepared)).bound + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-1, max_value=1), min_size=16, max_size=16))
def test_ghz_plus_epr_to_any_meets_the_splitting_bound(parts):
    amps = np.array(parts[:8]) + 1j * np.array(parts[8:])
    nrm = np.linalg.norm(amps)
    assume(nrm > 1e-3)
    prepared = ghz_plus_epr_to_any(PureState(ABC, amps / nrm))
    p = prepared.run().success_probability
    assert p <= splitting_bound(prepared.state, _padded_exact_target(prepared)).bound + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=1 / 3, max_value=0.499))
def test_prop3_probability_matches_bound_family(a):
    result = prop3(a).run()
    bound = splitting_bound(prop3_input(a), prop3_target()).bound
    assert result.success_probability <= bound + 1e-9
    assert result.success_probability == pytest.approx(2 * a, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3))
def test_filtered_pair_conversion_meets_the_bound_where_a_is_at_most_b(weights):
    # Proposition 3 off the symmetric family: the one-pair steps on
    # w_family(a, b, c, 0), then A filters the larger of the weights a, b
    # down to the smaller with a rotation of an ancilla (site 6) conditioned
    # on site 1, accepting the ancilla's 0; that reaches 2 min(a, b), and the
    # bound 2 min(a, 1 - a) exactly where a <= b
    a, b, c = np.array(weights) / sum(weights)
    ancilla = computational(Register.of([(6, "A")]), "0")
    state = tensor(tensor(w_family(a, b, c, 0.0, ABC), epr(Register.of([(4, "B"), (5, "C")]))), ancilla)
    cos = np.sqrt(min(a, b) / max(a, b))
    rotation = np.array([[cos, -np.sqrt(1 - cos**2)], [np.sqrt(1 - cos**2), cos]])
    filtered = 1 if a > b else 0  # the value of site 1 whose branch is filtered
    u = np.kron(np.diag([1 - filtered, filtered]), rotation) + np.kron(np.diag([filtered, 1 - filtered]), np.eye(2))
    steps = prop3(0.4).protocol.steps + (Unitary("A", (1, 6), u), Measure("A", 6, "Z", accept="0"))
    p = run_protocol(state, Protocol(steps, Target("ghz-lu", sites=(1, 2, 5)))).success_probability
    bound = splitting_bound(state, tensor(prop3_target("BC"), ancilla)).bound
    assert abs(p - 2 * min(a, b)) <= 1e-12
    assert abs(bound - 2 * min(a, 1 - a)) <= 1e-12
    assert abs((bound - p) - (0.0 if a <= b else 2 * (min(a, 1 - a) - b))) <= 1e-12


def test_branch_tree_serialization():
    doc = prop3(0.4).run().to_dict()
    assert doc["prob"] == pytest.approx(1.0)
    assert doc["success"] is None
    kids = {c["record"]: c for c in doc["children"]}
    assert kids["1"]["success"] is False
    assert kids["1"]["prob"] == pytest.approx(0.2)
    grand = {c["record"]: c for c in kids["0"]["children"]}
    assert grand["00"]["success"] is True
