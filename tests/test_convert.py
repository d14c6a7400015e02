import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loccsim import convert, invariants
from loccsim.convert import (
    IMPOSSIBLE,
    UNDETERMINED,
    _tail_ratio,
    catalysis_verdict,
    splitting_bound,
    splitting_cuts,
    vidal_probability,
)
from loccsim.errors import LoccSimError, NotAProbabilityVector, RegisterMismatch, WrongArity
from loccsim.invariants import PartyTensor, ProductTermEstimate, _party_axes, _unfold, flattening_ranks
from loccsim.prebuilt import bipartite_catalysis_pair, prop3_input, prop3_target
from loccsim.states import (
    DensityMatrix,
    PureState,
    Register,
    _rank,
    computational,
    epr,
    ghz,
    schmidt,
    tensor,
    w_state,
)

ABC = Register.of([(1, "A"), (2, "B"), (3, "C")])


def spectra(draw_dim=4):
    """Hypothesis strategy: probability vectors of length up to draw_dim."""
    return st.lists(
        st.floats(min_value=1e-4, max_value=1.0), min_size=1, max_size=draw_dim
    ).map(lambda xs: np.array(xs) / np.sum(xs))


# ---------------------------------------------------------------------------
# the optimal bipartite conversion probability


def test_vidal_identical_spectra():
    assert vidal_probability([0.5, 0.5], [0.5, 0.5]) == pytest.approx(1.0)


def test_vidal_case_two():
    # single-site spectrum {0.6, 0.4} against the flat pair: tail ratio 0.8
    assert vidal_probability([0.6, 0.4], [0.5, 0.5]) == pytest.approx(0.8, abs=1e-12)


def test_vidal_case_one():
    # zero-denominator tails are skipped, not minimized over
    p = vidal_probability([0.4, 0.4, 0.1, 0.1], [0.5, 0.5, 0.0, 0.0])
    assert p == pytest.approx(1.0, abs=1e-12)


def test_vidal_product_to_entangled():
    assert vidal_probability([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.0)


def test_vidal_rank_increase_impossible():
    assert vidal_probability([0.6, 0.4], [0.5, 0.25, 0.25]) == pytest.approx(0.0)


def test_vidal_sorts_and_pads():
    # unsorted input, unequal lengths
    a = vidal_probability([0.4, 0.6], [0.5, 0.5, 0.0])
    assert a == pytest.approx(0.8, abs=1e-12)


def test_vidal_validation():
    with pytest.raises(NotAProbabilityVector):
        vidal_probability([0.7, 0.4], [0.5, 0.5])
    with pytest.raises(NotAProbabilityVector):
        vidal_probability([1.1, -0.1], [0.5, 0.5])
    with pytest.raises(NotAProbabilityVector):
        vidal_probability([], [0.5, 0.5])


def test_vidal_rejects_nan():
    with pytest.raises(NotAProbabilityVector):
        vidal_probability([np.nan, 1.0], [0.5, 0.5])
    with pytest.raises(NotAProbabilityVector):
        vidal_probability([0.5, 0.5], [np.nan, np.nan])


def test_vidal_reports_the_sum_it_rejects():
    with pytest.raises(NotAProbabilityVector, match=r"alpha sums to .*1\.25.*, not 1"):
        vidal_probability([0.75, 0.5], [0.5, 0.5])


def _stack(rng, rows, n, zeros):
    """``rows`` random spectra of length ``n``, the last ``zeros`` entries 0."""
    x = rng.random((rows, n))
    x[:, n - zeros :] = 0.0
    return x / x.sum(axis=1, keepdims=True)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
)
def test_vidal_on_a_stack_equals_row_by_row(seed, rows, lengths, zeros):
    # unequal lengths pad, and zero tails of beta are skipped, row by row
    rng = np.random.default_rng(seed)
    alpha, beta = (_stack(rng, rows, n, min(z, n - 1)) for n, z in zip(lengths, zeros))
    stacked = vidal_probability(alpha, beta)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (rows,)
    assert stacked.tolist() == [vidal_probability(a, b) for a, b in zip(alpha, beta)]
    assert type(vidal_probability(alpha[0], beta[0])) is float


@pytest.mark.parametrize(
    "bad, message",
    [([0.6, 0.5, -0.1], "negative or NaN"), ([np.nan, 0.5, 0.5], "negative or NaN"), ([0.5, 0.5, 0.3], r"sums to .*1\.3")],
    ids=["negative", "nan", "sum"],
)
@pytest.mark.parametrize("side", ["alpha", "beta"])
def test_vidal_rejects_a_stack_with_one_bad_row(bad, message, side):
    good = np.full((3, 3), 1 / 3)
    stack = good.copy()
    stack[1] = bad
    args = (stack, good) if side == "alpha" else (good, stack)
    with pytest.raises(NotAProbabilityVector, match=f"{side} .*{message}"):
        vidal_probability(*args)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6), st.integers(0, 5))
def test_vidal_equals_the_tail_ratio_on_sorted_spectra(seed, rows, n, zeros):
    # on nonincreasing spectra of one length, nothing is left to sort or pad
    rng = np.random.default_rng(seed)
    alpha, beta = (-np.sort(-_stack(rng, rows, n, min(zeros, n - 1)), axis=1) for _ in range(2))
    assert vidal_probability(alpha, beta).tolist() == _tail_ratio(np.stack([alpha, beta])).tolist()
    assert vidal_probability(alpha[0], beta[0]) == float(_tail_ratio(np.stack([alpha[0], beta[0]])))


@pytest.mark.parametrize(
    "make, shown",
    [
        (lambda: vidal_probability([1.1, -0.1], [0.5, 0.5]), "(-0.1)"),
        (lambda: vidal_probability([0.5, 0.5], [0.75, 0.5]), "sums to 1.25,"),
        (lambda: PartyTensor(("A", "B"), np.diag([2.0, 0.0])), "norm 2.0 "),
        (lambda: DensityMatrix(("A",), np.eye(2)), "trace 2.0 "),
    ],
    ids=["spectrum entry", "spectrum sum", "party tensor norm", "density trace"],
)
def test_error_text_shows_plain_floats(make, shown):
    with pytest.raises(LoccSimError) as exc:
        make()
    assert shown in str(exc.value)
    assert "np.float64" not in str(exc.value)


@settings(max_examples=200, deadline=None)
@given(spectra())
def test_vidal_self_conversion_is_certain(alpha):
    assert vidal_probability(alpha, alpha) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(spectra(), spectra())
def test_vidal_result_is_a_probability(alpha, beta):
    p = vidal_probability(alpha, beta)
    assert 0.0 <= p <= 1.0


@settings(max_examples=200, deadline=None)
@given(spectra(), spectra(), st.floats(min_value=0.0, max_value=1.0))
def test_vidal_monotone_under_majorization(alpha, beta, t):
    """Replacing the target by a spectrum that majorizes it (mixing toward a
    point mass on the top entry) never decreases the probability."""
    beta = np.sort(beta)[::-1]
    steeper = (1 - t) * beta
    steeper[0] += t
    p_orig = vidal_probability(alpha, beta)
    p_steep = vidal_probability(alpha, steeper)
    assert p_steep >= p_orig - 1e-12


# ---------------------------------------------------------------------------
# min over bipartite splittings


def test_splitting_cuts_canonical():
    cuts = splitting_cuts(("A", "B", "C"))
    assert [key for _, key in cuts] == ["A|BC", "AB|C", "AC|B"]
    for left, _ in cuts:
        assert "A" in left  # one representative per complement pair


def test_splitting_cuts_two_parties():
    cuts = splitting_cuts(("A", "B"))
    assert [key for _, key in cuts] == ["A|B"]


def test_splitting_cuts_four_parties():
    assert len(splitting_cuts(("A", "B", "C", "D"))) == 7


def test_bound_prop3_instance():
    b = splitting_bound(prop3_input(0.4), prop3_target())
    assert b.per_cut["AB|C"] == pytest.approx(1.0, abs=1e-9)
    assert b.per_cut["A|BC"] == pytest.approx(0.8, abs=1e-9)
    assert b.per_cut["AC|B"] == pytest.approx(1.0, abs=1e-9)
    assert b.bound == pytest.approx(0.8, abs=1e-9)


def test_bound_identity():
    s = w_state(ABC)
    b = splitting_bound(s, s)
    assert b.bound == pytest.approx(1.0)
    assert all(v == pytest.approx(1.0) for v in b.per_cut.values())


def test_bound_ghz_to_w_is_loose():
    # every cut compares {1/2,1/2} against {2/3,1/3}: min tail ratio is 1,
    # although the true conversion probability is zero
    b = splitting_bound(ghz(ABC), w_state(ABC))
    assert b.bound == pytest.approx(1.0, abs=1e-12)


def test_bound_family_grid():
    for a in np.linspace(1 / 3, 0.4999, 12):
        b = splitting_bound(prop3_input(float(a)), prop3_target())
        assert b.bound == pytest.approx(2 * a, abs=1e-9)


def test_bound_register_mismatch():
    with pytest.raises(RegisterMismatch):
        splitting_bound(ghz(ABC), ghz(Register.of([(1, "A"), (2, "B"), (3, "D")])))
    # same parties, different per-party site counts
    src, _ = bipartite_catalysis_pair()
    lopsided = tensor(
        w_state(ABC),
        PureState(
            Register.of([(4, "A"), (5, "C")]),
            np.array([1, 0, 0, 1]) / np.sqrt(2),
        ),
    )
    with pytest.raises(RegisterMismatch):
        splitting_bound(src, lopsided)


@pytest.mark.parametrize("side", ["source", "target"])
def test_bound_takes_a_state_at_the_edge_of_the_norm_tolerance(side):
    # a norm of 1 + 0.9e-9 passes PureState, and its spectra sum to
    # 1 + 1.8e-9; the bound is that of the normalized state
    loose = PureState(ABC, ghz(ABC).amplitudes * (1 + 0.9e-9))
    pairs = [(loose, w_state(ABC)), (ghz(ABC), w_state(ABC))]
    if side == "target":
        pairs = [pair[::-1] for pair in pairs]
    got, want = (splitting_bound(*pair) for pair in pairs)
    assert abs(got.bound - want.bound) <= 1e-9
    assert all(abs(got.per_cut[key] - value) <= 1e-9 for key, value in want.per_cut.items())


HELD = PureState(Register.of([(1, "A"), (2, "A")]), np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_one_party_states_are_rejected():
    # one party has no cut to split and no product terms to count
    with pytest.raises(WrongArity):
        splitting_bound(HELD, HELD)
    with pytest.raises(WrongArity):
        catalysis_verdict(HELD, HELD)


GHZ4 = PureState(Register.for_parties("A", "B", "C", "D"), np.eye(16)[[0, 15]].sum(axis=0) / np.sqrt(2))


@st.composite
def register_pairs(draw):
    """Two states on 2-4 parties with 1-2 sites each, the target's sites in
    their own order: a random target, the source itself, or a product."""
    counts = draw(st.lists(st.integers(1, 2), min_size=2, max_size=4))
    owners = [p for p, c in zip("ABCD", counts) for _ in range(c)]
    regs = [Register.of(list(enumerate(draw(st.permutations(owners)), start=1))) for _ in range(2)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def random_state(reg):
        amps = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
        return PureState(reg, amps / np.linalg.norm(amps))

    source = random_state(regs[0])
    kind = draw(st.sampled_from(["random", "same", "product"]))
    target = {"random": random_state, "same": lambda _: source, "product": lambda r: computational(r, [0] * r.n_sites)}
    return source, target[kind](regs[1])


@settings(max_examples=150, deadline=None)
@given(register_pairs())
@example((tensor(epr(Register.of([(1, "A"), (2, "B")])), epr(Register.of([(3, "C"), (4, "D")]))), GHZ4))
@example((tensor(w_state(ABC), ghz(Register.of([(4, "A"), (5, "B"), (6, "D")]))),) * 2)
def test_stacked_bound_equals_the_cut_by_cut_formula(pair):
    source, target = pair
    b = splitting_bound(source, target)
    cuts = splitting_cuts(source.register.party_labels())
    assert list(b.per_cut) == [key for _, key in cuts]
    for left, key in cuts:
        expected = vidal_probability(schmidt(source, left), schmidt(target, left))
        assert b.per_cut[key] == pytest.approx(expected, abs=1e-12)
    assert b.bound == min(b.per_cut.values())


def _transposed_per_cut(source, target) -> dict[str, float]:
    """Each cut matrix by an explicit transpose of the party axes of its
    state, read from its smaller side, the cuts of one shape stacked into one
    SVD, source before target."""
    parties = source.register.party_labels()
    tensors = [_party_axes(s)[1] for s in (source, target)]
    shape, cuts = tensors[0].shape, splitting_cuts(parties)
    groups = {}
    for left, key in cuts:
        rows = [i for i, p in enumerate(parties) if p in left]
        rest = [i for i in range(len(shape)) if i not in rows]
        dim = int(np.prod([shape[i] for i in rows]))
        if dim**2 > tensors[0].size:
            rows, rest, dim = rest, rows, tensors[0].size // dim
        groups.setdefault(dim, []).append((key, rows + rest))
    per_cut = dict.fromkeys(key for _, key in cuts)
    for dim, group in groups.items():
        mats = np.stack([t.transpose(order).reshape(dim, -1) for t in tensors for _, order in group])
        spectra = np.linalg.svd(mats, compute_uv=False) ** 2
        per_cut.update(zip((key for key, _ in group), _tail_ratio(spectra.reshape(2, len(group), -1)).tolist()))
    return per_cut


@settings(max_examples=150, deadline=None)
@given(register_pairs())
def test_cut_plan_gathers_exactly_the_transposed_cuts(pair):
    # bit for bit: the gathered matrices hold the transposes' entries
    source, target = pair
    b = splitting_bound(source, target)
    assert list(b.per_cut.items()) == list(_transposed_per_cut(source, target).items())
    assert b.bound == min(b.per_cut.values())
    for s in pair:
        t = PartyTensor.from_state(s)
        assert flattening_ranks(t) == tuple(
            _rank(np.linalg.svd(_unfold(t.data, m), compute_uv=False)) for m in range(t.data.ndim)
        )


@pytest.mark.parametrize(
    "source, target, error, message",
    [
        pytest.param(
            ghz(ABC), ghz(Register.of([(1, "A"), (2, "B"), (3, "D")])),
            RegisterMismatch, r"party sets differ: \('A', 'B', 'C'\) vs \('A', 'B', 'D'\)", id="parties",
        ),
        pytest.param(
            ghz(ABC), computational(Register.of([(1, "A"), (2, "A"), (3, "B"), (4, "C")]), "0000"),
            RegisterMismatch, "party A holds different site counts", id="site counts",
        ),
        pytest.param(
            HELD, HELD, WrongArity, r"needs two or more of them, got \('A',\)", id="one party",
        ),
    ],
)
def test_a_mismatched_pair_raises_on_every_call_and_plans_nothing(source, target, error, message):
    before = convert._cut_plan.cache_info().currsize
    for _ in range(2):
        with pytest.raises(error, match=message):
            splitting_bound(source, target)
    assert convert._cut_plan.cache_info().currsize == before


def test_the_cut_plan_memo_keeps_at_most_its_bound():
    bound = convert._cut_plan.cache_info().maxsize
    for k in range(2 * bound):
        state = computational(Register.of([(1, f"P{k}"), (2, "Q")]), "00")
        assert splitting_bound(state, state).bound == 1.0
    assert convert._cut_plan.cache_info().currsize == bound
    # a kept plan hands the same arrays to every caller, so none can write them
    _, plan = convert._cut_plan(state.register.parties, state.register.parties)
    assert not any(index.flags.writeable for _, index in plan)


def test_the_unfolding_plan_memo_keeps_at_most_its_bound():
    bound = invariants._unfolding_plan.cache_info().maxsize
    for k in range(2 * bound):
        data = np.zeros((k // 16 + 1, k % 16 + 1))
        data[0, 0] = 1.0
        assert flattening_ranks(PartyTensor(("A", "B"), data)) == (1, 1)
    assert invariants._unfolding_plan.cache_info().currsize == bound
    assert not any(index.flags.writeable for _, index in invariants._unfolding_plan(data.shape))


def test_bound_takes_one_svd_per_cut_shape(monkeypatch):
    # every cut of both states comes from one stacked SVD per row-site count
    pairs = [(w_state(ABC), ghz(ABC)), (prop3_input(0.4), prop3_target())]
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    counts = []
    for pair in pairs:
        calls.clear()
        splitting_bound(*pair)
        counts.append(len(calls))
    assert counts[0] == 1 and counts[1] <= 2


def test_conversion_bound_is_only_its_numbers():
    assert [f.name for f in dataclasses.fields(convert.ConversionBound)] == ["per_cut", "bound"]


def test_bound_serialization():
    b = splitting_bound(prop3_input(0.4), prop3_target())
    doc = b.to_dict()
    assert list(doc) == ["per_cut", "bound"]
    assert doc["bound"] == pytest.approx(0.8)
    assert set(doc["per_cut"]) == {"A|BC", "AB|C", "AC|B"}


# ---------------------------------------------------------------------------
# catalysis verdicts (the estimate is stubbed; the real probe is exercised
# in the acceptance suite)


def fake_probe(monkeypatch, by_terms, heuristic=True):
    calls = []

    def probe(t, config):
        terms = by_terms[len(calls)]
        calls.append(t)
        return ProductTermEstimate(
            terms=terms,
            heuristic=heuristic,
            flattening_lower_bound=2,
            probes=(),
            lower_bound=2 if heuristic else terms,
            lower_bound_rule="flattening" if heuristic else "pencil",
        )

    monkeypatch.setattr(convert, "product_term_estimate", probe)


def test_verdict_rank_increase(monkeypatch):
    # target rank exceeds source rank for B and C: no probe should even run
    src = tensor(ghz(ABC), PureState(
        Register.of([(4, "B"), (5, "C")]), np.array([1, 0, 0, 0], dtype=complex)
    ))
    dst, _unused = bipartite_catalysis_pair()

    def exploding(t, config):
        raise AssertionError("probe must not run")

    monkeypatch.setattr(convert, "product_term_estimate", exploding)
    v = catalysis_verdict(src, dst)
    assert v.feasible == IMPOSSIBLE
    assert v.rank_obstruction.kind == "target_rank_exceeds_source"
    assert ("B", 2, 4) in v.rank_obstruction.triples
    assert v.product_term_obstruction is None


def test_verdict_rank_decrease_is_undetermined(monkeypatch):
    dst_low = tensor(ghz(ABC), PureState(
        Register.of([(4, "B"), (5, "C")]), np.array([1, 0, 0, 0], dtype=complex)
    ))
    src, _unused = bipartite_catalysis_pair()
    fake_probe(monkeypatch, [6, 6])
    v = catalysis_verdict(src, dst_low)
    assert v.feasible == UNDETERMINED
    assert v.rank_obstruction is None


def test_verdict_equal_ranks_different_terms(monkeypatch):
    src, dst = bipartite_catalysis_pair()
    fake_probe(monkeypatch, [6, 4])
    v = catalysis_verdict(src, dst)
    assert v.feasible == IMPOSSIBLE
    assert v.rank_obstruction.kind == "equal_ranks_exclude_noninvertible"
    assert v.product_term_obstruction.source_terms == 6
    assert v.product_term_obstruction.target_terms == 4
    assert v.product_term_obstruction.heuristic


@pytest.mark.parametrize("heuristic", [True, False])
def test_verdict_notes_evidence_only_for_heuristic_counts(heuristic, monkeypatch):
    src, dst = bipartite_catalysis_pair()
    fake_probe(monkeypatch, [6, 4], heuristic)
    v = catalysis_verdict(src, dst)
    assert v.product_term_obstruction.heuristic is heuristic
    assert any("evidence, not proof" in note for note in v.notes) is heuristic


def test_verdict_equal_terms_undetermined(monkeypatch):
    src, dst = bipartite_catalysis_pair()
    fake_probe(monkeypatch, [5, 5])
    v = catalysis_verdict(src, dst)
    assert v.feasible == UNDETERMINED


def test_verdict_never_impossible_on_identity(monkeypatch):
    s, _unused = bipartite_catalysis_pair()
    fake_probe(monkeypatch, [6, 6])
    v = catalysis_verdict(s, s)
    assert v.feasible == UNDETERMINED


def test_verdict_party_ranks_recorded(monkeypatch):
    src, dst = bipartite_catalysis_pair()
    fake_probe(monkeypatch, [6, 4])
    v = catalysis_verdict(src, dst)
    assert v.party_ranks == (("A", 2, 2), ("B", 4, 4), ("C", 4, 4))


def _assert_prop1(a, b, c, alpha):
    # Proposition 1: no pair catalyst turns a W-class triple into GHZ
    v = catalysis_verdict(*bipartite_catalysis_pair(a, b, c, alpha, 1 - alpha))
    ob = v.product_term_obstruction
    assert v.feasible == IMPOSSIBLE
    assert (ob.source_terms, ob.target_terms, ob.heuristic) == (6, 4, False)
    assert v.party_ranks == (("A", 2, 2), ("B", 4, 4), ("C", 4, 4))


@pytest.mark.parametrize("alpha", [0.03, 0.5, 0.97])
@pytest.mark.parametrize(
    "weights", [(0.94, 0.03, 0.03), (0.03, 0.94, 0.03), (0.03, 0.03, 0.94), (1 / 3, 1 / 3, 1 / 3), (0.03, 0.485, 0.485)]
)
def test_prop1_holds_at_the_corners_of_its_family(weights, alpha):
    _assert_prop1(*weights, alpha)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(0.03, 0.94), split=st.floats(0.0, 1.0), alpha=st.floats(0.03, 0.97))
def test_prop1_holds_over_its_family(a, split, alpha):
    # W weights a, b, c of at least 0.03 each, summing to 1
    b = 0.03 + split * (0.94 - a)
    _assert_prop1(a, b, 1 - a - b, alpha)


def test_verdict_serialization(monkeypatch):
    src, dst = bipartite_catalysis_pair()
    fake_probe(monkeypatch, [6, 4])
    doc = catalysis_verdict(src, dst).to_dict()
    assert doc["feasible"] == "impossible"
    assert doc["product_term_obstruction"]["source_terms"] == 6
    assert doc["rank_obstruction"]["kind"] == "equal_ranks_exclude_noninvertible"
