import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclab.affine import (
    AffineCombination,
    DecompositionResult,
    _decompose_over_random_span,
    controlled_local_channel,
    decompose_nonsignalling,
    nonsignalling_direction_dim,
    pseudo_state,
    random_product_span,
    realize_affine,
)
from soclab.errors import DimensionError, WireMismatchError
from soclab.predicates import is_causal, is_nonsignalling, make_strongly_nonsignalling
from soclab.process import (
    Process,
    _sides,
    apply_to_state,
    channel_from_kraus,
    compose_par,
    compose_seq,
    identity_process,
    processes_close,
    random_causal_channel,
    random_density,
    relabel,
    rewire,
)
from soclab.tensor import UNIT, System, is_psd

import naive


def random_combination(rng, n, dims=(2, 2, 2, 2)):
    a1, a2, b1, b2 = dims
    raw = rng.normal(size=n)
    raw = raw / raw.sum() if abs(raw.sum()) > 0.2 else np.full(n, 1.0) / n
    terms = []
    for x in range(n):
        f = random_causal_channel(System((a1,)), System((a2,)), seed=rng)
        g = random_causal_channel(System((b1,)), System((b2,)), seed=rng)
        terms.append((float(raw[x]), f, g))
    return AffineCombination(tuple(terms))


def realize_by_wiring(comb):
    """The pseudo-state wiring, kept as a reference for realize_affine: the
    diagonal pseudo-state's two registers control one local channel each."""
    _, f0, g0 = comb.terms[0]
    a1, a2 = f0.in_sys.total, f0.out_sys.total
    b1, b2 = g0.in_sys.total, g0.out_sys.total
    ctrl_a = controlled_local_channel([relabel(f, (a1,), (a2,)) for _, f, _ in comb.terms])
    ctrl_b = controlled_local_channel([relabel(g, (b1,), (b2,)) for _, _, g in comb.terms])
    prep = compose_par(pseudo_state(comb.coeffs), identity_process(System((a1, b1))))
    arranged = rewire(prep, (0, 1), (2, 4, 3, 5))
    return compose_seq(arranged, compose_par(ctrl_a, ctrl_b))


# The per-pair routes that realize_affine and decompose_nonsignalling
# replaced, kept as differential references on the naive layer: one product
# of two channels per pair, and a fit that factorizes its direction matrix
# twice (once as a @ z in the solve, once for the rank).
def realize_affine_by_pairs(comb):
    _, f0, g0 = comb.terms[0]
    a_dims, b_dims = (f0.in_sys.total, f0.out_sys.total), (g0.in_sys.total, g0.out_sys.total)
    acc = sum(r * naive.par(f.choi, a_dims, g.choi, b_dims) for r, f, g in comb.terms)
    return Process(System((a_dims[0], b_dims[0])), System((a_dims[1], b_dims[1])), acc)


def decompose_by_two_factorizations(f, span_pairs, in_split=1, out_split=1):
    pairs = list(span_pairs)
    ai, bi, ao, bo = _sides(f, in_split, out_split)
    cols = [naive.par(phi.choi, (ai, ao), psi.choi, (bi, bo)).ravel() for phi, psi in pairs]
    a = np.stack([np.concatenate([v.real, v.imag]) for v in cols], axis=1)
    target = f.choi.ravel()
    b = np.concatenate([target.real, target.imag])

    n = len(pairs)
    base = np.full(n, 1.0 / n)
    z = np.zeros((n, n - 1))
    z[0, :] = -1.0
    z[1:, :] = np.eye(n - 1)
    if n == 1:
        r = base
    else:
        y, *_ = np.linalg.lstsq(a @ z, b - a @ base, rcond=None)
        r = base + z @ y
    residual = float(np.linalg.norm(a @ r - b))

    directions = a[:, 1:] - a[:, :1]
    span_rank = int(np.linalg.matrix_rank(directions)) if n > 1 else 0
    deficient = span_rank < nonsignalling_direction_dim(ai, bi, ao, bo)
    return DecompositionResult(tuple(float(x) for x in r), residual, deficient)


def nonsignalling_direction_dim_by_rank(ai, bi, ao, bo):
    """The numerical rank that nonsignalling_direction_dim replaced, kept
    as the closed form's oracle: the nullity of the stacked causality and
    no-signalling constraints, over the matrix units ``E_ij``.  The
    constraints commute with the adjoint, so their complex nullity is the
    real one over Hermitian matrices."""
    side = ai * bi * ao * bo
    cols = []
    for h in np.eye(side * side).reshape(-1, side, side):
        t1 = naive.ptrace(h, (ai * bi, ao * bo), (0,))
        # Each marginal less its trace beside the discard (Choi matrix I) of the other input.
        mb = naive.ptrace(h, (ai, bi, ao, bo), (0, 1, 2))
        t2 = mb - naive.par(naive.ptrace(mb, (ai, bi, ao), (0, 2)) / bi, (ai, ao), np.eye(bi), (bi, 1))
        ma = naive.ptrace(h, (ai, bi, ao, bo), (0, 1, 3))
        t3 = ma - naive.par(np.eye(ai), (ai, 1), naive.ptrace(ma, (ai, bi, bo), (1, 2)) / ai, (bi, bo))
        cols.append(np.concatenate([t.ravel() for t in (t1, t2, t3)]))
    return side * side - int(np.linalg.matrix_rank(np.stack(cols, axis=1)))


class TestPseudoState:
    def test_classical_mixture_is_a_state(self):
        p = pseudo_state([0.25, 0.75])
        assert is_psd(p.choi)
        assert np.isclose(np.trace(p.choi), 1.0)

    def test_negative_weights_flagged(self):
        p = pseudo_state([1.5, -0.5])
        assert not is_psd(p.choi)
        assert np.isclose(np.trace(p.choi), 1.0)

    def test_diagonal_support_is_correlated(self):
        p = pseudo_state([0.5, 0.5])
        m = p.choi.reshape(2, 2, 2, 2)
        assert m[0, 1, 0, 1] == 0
        assert np.isclose(m[0, 0, 0, 0], 0.5)
        assert np.isclose(m[1, 1, 1, 1], 0.5)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DimensionError):
            pseudo_state([0.5, 0.4])
        with pytest.raises(DimensionError):
            pseudo_state([])


class TestControlledChannel:
    def test_branch_selection(self):
        rng = np.random.default_rng(7)
        q = System((2,))
        x = channel_from_kraus([np.array([[0, 1], [1, 0]], dtype=complex)], q, q)
        ident = channel_from_kraus([np.eye(2, dtype=complex)], q, q)
        ctrl = controlled_local_channel([ident, x])
        rho = random_density(System((2,)), seed=rng)
        for k, branch in enumerate([ident, x]):
            e = np.zeros((2, 2), dtype=complex)
            e[k, k] = 1.0
            got = apply_to_state(ctrl, np.kron(e, rho))
            want = apply_to_state(branch, rho)
            assert np.allclose(got, want, atol=1e-12)

    def test_typing(self):
        branches = [random_causal_channel(System((3,)), System((2,)), seed=s) for s in range(4)]
        ctrl = controlled_local_channel(branches)
        assert ctrl.in_sys.dims == (4, 3)
        assert ctrl.out_sys.dims == (2,)
        assert is_causal(ctrl)

    def test_no_branches_rejected(self):
        with pytest.raises(DimensionError, match="^need at least one branch$"):
            controlled_local_channel([])

    def test_mismatched_branches_rejected(self):
        a = random_causal_channel(System((2,)), System((2,)), seed=0)
        b = random_causal_channel(System((3,)), System((2,)), seed=1)
        with pytest.raises(WireMismatchError):
            controlled_local_channel([a, b])


class TestRealize:
    def test_an_empty_combination_is_refused(self):
        with pytest.raises(DimensionError, match="^affine combination needs at least one term$"):
            AffineCombination(())

    def test_routes_agree(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 5):
            comb = random_combination(rng, n)
            wired = realize_by_wiring(comb)
            direct = realize_affine(comb)
            assert processes_close(wired, direct, eps=1e-9)

    def test_routes_agree_heterogeneous(self):
        rng = np.random.default_rng(12)
        comb = random_combination(rng, 3, dims=(2, 3, 3, 2))
        wired = realize_by_wiring(comb)
        direct = realize_affine(comb)
        assert processes_close(wired, direct, eps=1e-9)
        assert wired.in_sys.dims == direct.in_sys.dims == (2, 3)
        assert wired.out_sys.dims == direct.out_sys.dims == (3, 2)

    def test_positivity_follows_the_weights(self):
        # Both routes realize a convex mix of channels as a CP map, and this
        # negative weight as a map that is not CP.
        rng = np.random.default_rng(17)
        f, g, h = (random_causal_channel(System((2,)), System((2,)), seed=rng) for _ in range(3))
        convex = AffineCombination(((0.25, f, g), (0.75, g, h)))
        affine = AffineCombination(((1.5, f, g), (-0.5, g, h)))
        for comb, want in ((convex, True), (affine, False)):
            assert is_psd(realize_affine(comb).choi) is want
            assert is_psd(realize_by_wiring(comb).choi) is want

    def test_convex_case_acts_pointwise(self):
        rng = np.random.default_rng(13)
        f0 = random_causal_channel(System((2,)), System((2,)), seed=rng)
        f1 = random_causal_channel(System((2,)), System((2,)), seed=rng)
        g0 = random_causal_channel(System((2,)), System((2,)), seed=rng)
        g1 = random_causal_channel(System((2,)), System((2,)), seed=rng)
        comb = AffineCombination(((0.3, f0, g0), (0.7, f1, g1)))
        w = realize_affine(comb)
        rho = random_density(System((2, 2)), seed=rng)
        want = 0.3 * apply_to_state(compose_par(f0, g0), rho) + 0.7 * apply_to_state(
            compose_par(f1, g1), rho
        )
        assert np.allclose(apply_to_state(w, rho), want, atol=1e-10)

    def test_affine_output_is_nonsignalling(self):
        rng = np.random.default_rng(14)
        comb = random_combination(rng, 6)
        w = realize_affine(comb)
        assert is_causal(w)
        assert is_nonsignalling(w)

    def test_large_count_uses_direct_route(self):
        rng = np.random.default_rng(15)
        comb = random_combination(rng, 40)
        w = realize_affine(comb)
        assert is_nonsignalling(w)

    def test_coefficients_validated(self):
        f = random_causal_channel(System((2,)), System((2,)), seed=0)
        with pytest.raises(DimensionError):
            AffineCombination(((0.5, f, f),))
        g = random_causal_channel(System((3,)), System((2,)), seed=1)
        with pytest.raises(WireMismatchError):
            AffineCombination(((0.5, f, f), (0.5, g, f)))

    @pytest.mark.parametrize("weights, bad", [((float("nan"),), "nan"), ((float("inf"), -float("inf")), "inf"), ((2.0, -float("inf")), "-inf")])
    def test_a_weight_that_is_not_finite_is_refused_by_name(self, weights, bad):
        # NaN passes a check that the sum is off by more than 1e-9, and
        # inf - inf is NaN: each used to fail later, as a non-finite Choi entry.
        f = random_causal_channel(System((2,)), System((2,)), seed=0)
        with pytest.raises(DimensionError, match=f"^affine weights must be finite numbers, got {bad}$"):
            AffineCombination(tuple((r, f, f) for r in weights))
        with pytest.raises(DimensionError, match=f"^pseudo-state weights must be finite numbers, got {bad}$"):
            pseudo_state(weights)

    def test_finite_weights_whose_sum_overflows_do_not_sum_to_one(self):
        f = random_causal_channel(System((2,)), System((2,)), seed=0)
        with pytest.raises(DimensionError, match="^coefficients must sum to 1$"):
            AffineCombination(((1e308, f, f), (1e308, f, f), (-2.0, f, f)))
        with pytest.raises(DimensionError, match="^weights must sum to 1, got inf$"):
            pseudo_state([1e308, 1e308, -2.0])


class TestDirectionDimension:
    def test_all_qubit_value(self):
        assert nonsignalling_direction_dim(2, 2, 2, 2) == 168

    @pytest.mark.parametrize(
        "shape", [(2, 2, 2, 2), (2, 2, 2, 1), (2, 3, 2, 2), (1, 1, 1, 1), (2, 2, 1, 1), (1, 1, 2, 3), (3, 1, 1, 3)]
    )
    def test_closed_form_matches_the_rank(self, shape):
        assert nonsignalling_direction_dim(*shape) == nonsignalling_direction_dim_by_rank(*shape)

    def test_counting_formula(self):
        # independent vanishing coordinates in a product basis:
        # trace preservation, then each one-way condition beyond it
        for ai, bi, ao, bo in [(2, 2, 2, 2), (2, 2, 2, 3), (2, 3, 2, 2)]:
            total = (ai * bi * ao * bo) ** 2
            constrained = (
                ai * ai * bi * bi
                + ai * ai * (bi * bi - 1) * (ao * ao - 1)
                + (ai * ai - 1) * bi * bi * (bo * bo - 1)
            )
            assert nonsignalling_direction_dim(ai, bi, ao, bo) == total - constrained

    def test_one_sided_trivial_output(self):
        # when one side outputs nothing, signalling to it is impossible and
        # that family of constraints drops out entirely
        total = (2 * 2 * 2 * 1) ** 2
        constrained = 16 + 4 * 3 * 3 + 3 * 4 * 0
        assert nonsignalling_direction_dim(2, 2, 2, 1) == total - constrained


class TestDecompose:
    def test_recovers_planted_coefficients(self):
        rng = np.random.default_rng(21)
        span = random_product_span(6, seed=rng)
        r = rng.normal(size=6)
        r = r / r.sum()
        comb = AffineCombination(tuple((float(c), f, g) for c, (f, g) in zip(r, span)))
        w = realize_affine(comb)
        res = decompose_nonsignalling(w, span)
        assert res.residual < 1e-9
        got = np.array(res.coeffs)
        assert np.isclose(got.sum(), 1.0)
        # coefficients themselves are only identified when the family is
        # affinely independent; six generic terms are, so compare directly
        assert np.allclose(got, r, atol=1e-6)

    def test_an_empty_family_is_refused(self):
        f = realize_affine(AffineCombination(((1.0, *random_product_span(1, seed=4)[0]),)))
        with pytest.raises(DimensionError, match="^need a non-empty spanning family$"):
            decompose_nonsignalling(f, [])

    def test_small_family_is_deficient(self):
        span = random_product_span(6, seed=3)
        f = realize_affine(
            AffineCombination(tuple((1.0 / 6, a, b) for a, b in span))
        )
        res = decompose_nonsignalling(f, span)
        assert res.span_deficient

    @pytest.mark.parametrize("dims, n", [((2, 2, 2, 2), 180), ((2, 3, 3, 2), 9), ((3, 2, 2, 4), 12)])
    def test_the_cli_fit_from_drawn_stacks_equals_the_public_fit_bit_for_bit(self, dims, n):
        a1, a2, b1, b2 = dims
        target = realize_affine(random_combination(np.random.default_rng(5), 3, dims=dims))
        span = random_product_span(n, in_dims=(a1, b1), out_dims=(a2, b2), seed=7)
        assert _decompose_over_random_span(target, n, 1, 1, 7) == decompose_nonsignalling(target, span)

    def test_large_family_spans_the_hull(self):
        rng = np.random.default_rng(22)
        span = random_product_span(200, seed=rng)
        res = decompose_nonsignalling(
            realize_affine(AffineCombination(tuple((1.0 / 3, f, g) for f, g in span[:3]))),
            span,
        )
        assert not res.span_deficient
        assert res.residual < 1e-8

    def test_foreign_target_over_spanning_family(self):
        # a generic non-signalling channel not built from the family still
        # decomposes once the family spans the hull
        rng = np.random.default_rng(23)
        span = random_product_span(220, seed=rng)
        target = realize_affine(random_combination(rng, 30))
        res = decompose_nonsignalling(target, span)
        assert res.residual < 1e-7
        rebuilt = realize_affine(
            AffineCombination(tuple((c, f, g) for c, (f, g) in zip(res.coeffs, span)))
        )
        assert processes_close(rebuilt, target, eps=1e-7)

    def test_signalling_target_leaves_residual(self):
        swap = channel_from_kraus(
            [np.eye(4, dtype=complex).reshape(2, 2, 2, 2).transpose(1, 0, 2, 3).reshape(4, 4)],
            System((2, 2)),
            System((2, 2)),
        )
        span = random_product_span(200, seed=5)
        res = decompose_nonsignalling(swap, span)
        assert res.residual > 0.5

    @pytest.mark.parametrize("memory", [1, 2, 3])
    def test_strongly_nonsignalling_channels_lie_in_the_product_hull(self, memory):
        # Local channels on a shared state are non-signalling, and the
        # non-signalling hull is the product channels' affine hull, so such
        # a channel is an affine mix of products.  Hence is_soc2_oracle,
        # which fills with bases of causal channels, already decides the
        # corollary: strongly non-signalling arguments need no oracle of
        # their own.
        rng = np.random.default_rng(40 + memory)
        a_in, b_in, mem = System((2, memory)), System((memory, 2)), System((memory, memory))
        psi_a = random_causal_channel(a_in, System((2,)), seed=rng)
        psi_b = random_causal_channel(b_in, System((2,)), seed=rng)
        shared = Process(UNIT, mem, random_density(mem, seed=rng))
        channel = make_strongly_nonsignalling(psi_a, psi_b, shared)
        res = decompose_nonsignalling(channel, random_product_span(180, (2, 2), (2, 2), seed=rng))
        assert not res.span_deficient
        assert res.residual <= 1e-9

    def test_shape_mismatch_rejected(self):
        span = random_product_span(3, in_dims=(2, 3), out_dims=(2, 2), seed=9)
        target = realize_affine(random_combination(np.random.default_rng(0), 2))
        with pytest.raises(WireMismatchError):
            decompose_nonsignalling(target, span)

    def test_heterogeneous_shapes(self):
        rng = np.random.default_rng(24)
        span = random_product_span(9, in_dims=(2, 3), out_dims=(3, 2), seed=rng)
        r = rng.normal(size=9)
        r = r / r.sum()
        comb = AffineCombination(tuple((float(c), f, g) for c, (f, g) in zip(r, span)))
        w = realize_affine(comb)
        res = decompose_nonsignalling(w, span)
        assert res.residual < 1e-8
        assert np.allclose(np.array(res.coeffs), r, atol=1e-5)


class TestProductColumnsMatchThePairRoutes:
    # Per shape (a1, a2, b1, b2): a lone pair, a family too small to span
    # the hull, and at qubits one that spans it (168 directions).
    CASES = [
        ((2, 2, 2, 2), 1, True),
        ((2, 2, 2, 2), 7, True),
        ((2, 2, 2, 2), 180, False),
        ((2, 3, 3, 2), 1, True),
        ((2, 3, 3, 2), 9, True),
        ((3, 2, 2, 4), 1, True),
        ((3, 2, 2, 4), 12, True),
    ]

    @given(st.integers(0, 2**32 - 1), st.sampled_from(CASES))
    @settings(max_examples=20, deadline=None)
    def test_realize_and_decompose_match_the_references(self, seed, case):
        dims, n, deficient = case
        a1, a2, b1, b2 = dims
        rng = np.random.default_rng(seed)
        comb = random_combination(rng, 3, dims=dims)
        target = realize_affine(comb)
        want = realize_affine_by_pairs(comb)
        assert target.in_sys == want.in_sys and target.out_sys == want.out_sys
        assert np.linalg.norm(target.choi - want.choi) <= 1e-10

        span = random_product_span(n, in_dims=(a1, b1), out_dims=(a2, b2), seed=rng)
        got, ref = decompose_nonsignalling(target, span), decompose_by_two_factorizations(target, span)
        assert type(got.span_deficient) is bool
        assert got.span_deficient is ref.span_deficient is deficient
        assert np.max(np.abs(np.subtract(got.coeffs, ref.coeffs))) <= 1e-10
        assert abs(got.residual - ref.residual) <= 1e-10
