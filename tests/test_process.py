import re
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclab.affine import random_product_span
from soclab.errors import DimensionError, WireMismatchError
from soclab.predicates import is_causal
from soclab.process import (
    Process,
    _discard_outputs,
    _random_causal_channels,
    apply_to_state,
    cap,
    channel_from_kraus,
    compose_par,
    compose_seq,
    cup,
    discard_process,
    identity_process,
    make_effect,
    process_from_dict,
    process_to_dict,
    processes_close,
    random_causal_channel,
    random_density,
    relabel,
    rewire,
    swap_process,
)
from soclab.tensor import System, UNIT, is_psd, kron, partial_trace, permute_subsystems

import naive
from naive import random_matrix
from probe import allocates_nothing

A = System((2,))
B = System((3,))

seeds = st.integers(0, 2**32 - 1)


def random_process(rng, in_sys, out_sys):
    # Arbitrary linear map, generally neither Hermitian nor CP.
    return Process(in_sys, out_sys, random_matrix(rng, in_sys.total * out_sys.total))


def channel_from_kraus_loop(kraus, in_sys, out_sys):
    """The sum of outer products that channel_from_kraus replaced, kept
    verbatim as its reference."""
    c = np.zeros((in_sys.total * out_sys.total,) * 2, dtype=complex)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        if k.shape != (out_sys.total, in_sys.total):
            raise DimensionError(f"Kraus operator shape {k.shape} does not match {out_sys.total}x{in_sys.total}")
        v = k.T.ravel()
        c += np.outer(v, v.conj())
    return Process(in_sys, out_sys, c)


def random_causal_channel_one_at_a_time(in_sys, out_sys, seed=None):
    """The one-channel-per-call draw that the stacked draw replaced, kept as
    its reference."""
    rng = np.random.default_rng(seed)
    d_in, d_out = in_sys.total, out_sys.total
    env = d_in * d_out
    g = rng.standard_normal((d_out * env, d_in)) + 1j * rng.standard_normal((d_out * env, d_in))
    q, r = np.linalg.qr(g)
    # Fix the phase ambiguity so the column span is a proper isometry draw.
    diag = np.diagonal(r).copy()
    diag[np.abs(diag) == 0] = 1.0
    q = q * (diag / np.abs(diag))
    v = q.reshape(d_out, env, d_in)
    return channel_from_kraus(v.transpose(1, 0, 2), in_sys, out_sys)


def swap_reference(a, b):
    """The swap as it was built before: the channel of its permutation
    unitary, by the definition of a Choi matrix."""
    da, db = a.total, b.total
    u = np.eye(da * db).reshape(da, db, da * db).transpose(1, 0, 2).reshape(da * db, da * db)
    return Process(a + b, b + a, naive.choi([u], da * db, da * db))


def assert_same_bits(got, want):
    """Equal values and equal signs of zero, entry by entry."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == complex and got.shape == want.shape
    g, w = got.view(float), want.view(float)
    assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


def assert_same_process(got, want, tol=1e-12):
    assert got.in_sys == want.in_sys and got.out_sys == want.out_sys
    assert np.linalg.norm(got.choi - want.choi) <= tol * max(1.0, np.linalg.norm(want.choi))


class TestGenerators:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: identity_process(System((91,))),
            lambda: cup(System((91,))),
            lambda: cap(System((10**6,))),
            lambda: discard_process(System((10**6,))),
            lambda: swap_process(System((91,)), UNIT),
            lambda: swap_process(System((1000,)), System((1000,))),
            lambda: channel_from_kraus([np.ones((10**4, 1))], UNIT, System((10**4,))),
            lambda: identity_process(System((10**12,))),
            lambda: random_density(System((10**6,))),
            lambda: random_causal_channel(UNIT, System((10**5,))),
            lambda: _random_causal_channels(np.random.default_rng(0), [(UNIT, System((4000,)))], 3),
        ],
        ids=["identity", "cup", "cap", "discard", "swap", "swap-wide", "kraus", "identity-huge", "density", "channel-stack", "channel-draw"],
    )
    def test_oversized_systems_raise_before_allocating(self, make):
        # Each Choi matrix or Gaussian draw would pass MAX_SIDE**2 entries
        # (1.1 GB for the identity on 91 dimensions; the rows of the
        # identity on 10**12 dimensions alone would take 8 TB); the check
        # must fire while memory use stays at the size of the inputs.
        with allocates_nothing(), pytest.raises(DimensionError, match="exceeds limit"):
            make()

    def test_identity_choi_is_unnormalized_bell(self):
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[0, 3] = expect[3, 0] = expect[3, 3] = 1
        assert np.allclose(identity_process(A).choi, expect)

    def test_cup_and_cap_share_the_bell_matrix(self):
        assert np.allclose(cup(A).choi, identity_process(A).choi)
        assert cup(A).in_sys == UNIT and cup(A).out_sys.dims == (2, 2)
        assert cap(A).in_sys.dims == (2, 2) and cap(A).out_sys == UNIT

    def test_discard_is_trace(self):
        rng = np.random.default_rng(0)
        rho = random_matrix(rng, 3)
        assert np.allclose(apply_to_state(discard_process(B), rho), [[np.trace(rho)]])
        assert np.allclose(discard_process(B).choi, np.eye(3))

    def test_effect_evaluates_trace_pairing(self):
        rng = np.random.default_rng(1)
        e, rho = random_matrix(rng, 2), random_matrix(rng, 2)
        out = apply_to_state(make_effect(e, A), rho)
        assert np.allclose(out, [[np.trace(e @ rho)]])

    def test_state_applies_to_scalar(self):
        rho = np.diag([0.25, 0.75])
        st_p = Process(UNIT, A, rho)
        assert np.allclose(apply_to_state(st_p, [[1.0]]), rho)

    def test_kraus_channel_matches_kraus_action(self):
        # Amplitude damping, p = 0.36.
        p = 0.36
        k0 = np.array([[1, 0], [0, np.sqrt(1 - p)]])
        k1 = np.array([[0, np.sqrt(p)], [0, 0]])
        ch = channel_from_kraus([k0, k1], A, A)
        rng = np.random.default_rng(2)
        rho = random_matrix(rng, 2)
        assert np.allclose(apply_to_state(ch, rho), k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T)
        assert is_psd(ch.choi)

    @given(seeds, st.sampled_from([(A, A), (A, B), (B, A), (A + A, B)]), st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_kraus_product_matches_the_loop(self, seed, shape, count):
        in_sys, out_sys = shape
        rng = np.random.default_rng(seed)
        kraus = [rng.standard_normal((out_sys.total, in_sys.total)) + 1j * rng.standard_normal((out_sys.total, in_sys.total)) for _ in range(count)]
        assert_same_process(channel_from_kraus(kraus, in_sys, out_sys), channel_from_kraus_loop(kraus, in_sys, out_sys))
        # A stacked array of operators reads as the list of its rows.
        if count:
            assert_same_process(channel_from_kraus(np.stack(kraus), in_sys, out_sys), channel_from_kraus_loop(kraus, in_sys, out_sys))

    def test_empty_kraus_list_is_the_zero_map(self):
        ch = channel_from_kraus([], A, B)
        assert ch.choi.shape == (6, 6) and ch.choi.dtype == complex
        assert not ch.choi.any()

    @pytest.mark.parametrize(
        "kraus,shape",
        [([np.eye(3)], "(3, 3)"), ([np.zeros((3, 2)), np.eye(3)], "(3, 3)"), ([np.zeros((3, 2)), np.zeros(4)], "(4,)")],
        ids=["mis_shaped", "ragged", "flat"],
    )
    def test_mis_shaped_kraus_operators_are_rejected(self, kraus, shape):
        # Every operator is checked before any is stacked, so numpy never
        # sees a ragged list; the message is the loop's.
        for build in (channel_from_kraus, channel_from_kraus_loop):
            with pytest.raises(DimensionError, match=re.escape(f"Kraus operator shape {shape} does not match 3x2")):
                build(kraus, A, B)

    @pytest.mark.parametrize("dims", [(), (1,), (2,), (3,), (2, 3), (3, 1), (2, 2, 3)])
    def test_identity_cup_and_cap_are_bit_identical_to_the_reference(self, dims):
        s = System(dims)
        for p, in_sys, out_sys in ((identity_process(s), s, s), (cup(s), UNIT, s + s), (cap(s), s + s, UNIT)):
            assert p.in_sys == in_sys and p.out_sys == out_sys
            assert_same_bits(p.choi, naive.choi([np.eye(s.total)], s.total, s.total))

    @pytest.mark.parametrize(
        "a,b", [((), ()), ((2,), ()), ((), (3,)), ((2,), (3,)), ((3,), (3,)), ((2, 3), (3, 2)), ((2, 2), (3,)), ((1, 2), (2, 1, 2))]
    )
    def test_swap_is_bit_identical_to_the_reference(self, a, b):
        got, want = swap_process(System(a), System(b)), swap_reference(System(a), System(b))
        assert got.in_sys == want.in_sys and got.out_sys == want.out_sys
        assert_same_bits(got.choi, want.choi)

    def test_swap_exchanges_factors(self):
        rng = np.random.default_rng(3)
        a, b = random_matrix(rng, 2), random_matrix(rng, 3)
        out = apply_to_state(swap_process(A, B), kron(a, b))
        assert np.allclose(out, kron(b, a))

    def test_swap_is_invertible(self):
        fwd, back = swap_process(A, B), swap_process(B, A)
        assert processes_close(compose_seq(fwd, back), identity_process(A + B), 1e-12)


class TestComposition:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_seq_matches_reference_contraction(self, seed):
        rng = np.random.default_rng(seed)
        f = random_process(rng, System((2, 2)), System((3,)))
        g = random_process(rng, System((3,)), System((2,)))
        got = compose_seq(f, g)
        assert np.allclose(got.choi, naive.seq(f.choi, g.choi, 4, 3, 2))
        assert got.in_sys.dims == (2, 2) and got.out_sys.dims == (2,)

    @given(seeds, st.sampled_from([(2, 3, 2), (3, 2, 4), (4, 3, 1), (1, 2, 3)]), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_seq_and_par_match_the_einsum_and_kron_references(self, seed, dims, causal):
        rng = np.random.default_rng(seed)
        x, y, z = (System((d,)) for d in dims)
        if causal:
            f, g = random_causal_channel(x, y, seed=rng), random_causal_channel(y, z, seed=rng)
        else:
            f, g = random_process(rng, x, y), random_process(rng, y, z)
        assert_same_process(compose_seq(f, g), Process(x, z, naive.seq(f.choi, g.choi, *dims)))
        assert_same_process(compose_par(f, g), Process(x + y, y + z, naive.par(f.choi, dims[:2], g.choi, dims[1:])))
        assert_same_process(compose_par(g, f), Process(y + x, z + y, naive.par(g.choi, dims[1:], f.choi, dims[:2])))

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_seq_agrees_with_pointwise_application(self, seed):
        rng = np.random.default_rng(seed)
        f = random_process(rng, A, B)
        g = random_process(rng, B, A)
        rho = random_matrix(rng, 2)
        assert np.allclose(
            apply_to_state(compose_seq(f, g), rho),
            apply_to_state(g, apply_to_state(f, rho)),
        )

    @given(seeds, st.sampled_from([(5,), (2, 3)]))
    @settings(max_examples=10, deadline=None)
    def test_stacked_application_equals_a_loop(self, seed, batch):
        rng = np.random.default_rng(seed)
        f = random_process(rng, System((2, 3)), B)
        rhos = rng.standard_normal(batch + (6, 6)) + 1j * rng.standard_normal(batch + (6, 6))
        got = apply_to_state(f, rhos)
        assert got.shape == batch + (3, 3)
        for i in np.ndindex(batch):
            assert np.allclose(got[i], apply_to_state(f, rhos[i]), rtol=0, atol=1e-12)

    def test_stacked_application_checks_the_input_side(self):
        f = random_process(np.random.default_rng(5), A, B)
        with pytest.raises(DimensionError):
            apply_to_state(f, np.zeros((4, 3, 3)))

    def test_identity_laws(self):
        rng = np.random.default_rng(4)
        f = random_process(rng, A, B)
        assert processes_close(compose_seq(identity_process(A), f), f, 1e-12)
        assert processes_close(compose_seq(f, identity_process(B)), f, 1e-12)

    def test_wire_mismatch_raises(self):
        rng = np.random.default_rng(5)
        f = random_process(rng, A, B)
        with pytest.raises(WireMismatchError):
            compose_seq(f, f)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_par_factorizes_on_products(self, seed):
        rng = np.random.default_rng(seed)
        f = random_process(rng, A, B)
        g = random_process(rng, B, A)
        rho, sig = random_matrix(rng, 2), random_matrix(rng, 3)
        out = apply_to_state(compose_par(f, g), kron(rho, sig))
        assert np.allclose(out, kron(apply_to_state(f, rho), apply_to_state(g, sig)))

    def test_par_type_bookkeeping(self):
        rng = np.random.default_rng(6)
        f = random_process(rng, System((2, 3)), System((2,)))
        g = random_process(rng, System((5,)), System((3, 2)))
        h = compose_par(f, g)
        assert h.in_sys.dims == (2, 3, 5)
        assert h.out_sys.dims == (2, 3, 2)

    def test_interchange_of_seq_and_par(self):
        rng = np.random.default_rng(7)
        f1, f2 = random_process(rng, A, B), random_process(rng, B, A)
        g1, g2 = random_process(rng, B, B), random_process(rng, B, A)
        lhs = compose_seq(compose_par(f1, g1), compose_par(f2, g2))
        rhs = compose_par(compose_seq(f1, f2), compose_seq(g1, g2))
        assert processes_close(lhs, rhs, 1e-9)


class TestClose:
    def test_processes_whose_wiring_differs_are_not_close(self):
        # Both Choi matrices are 6 x 6 and equal, but the wires differ.
        f = Process(A, B, np.eye(6))
        g = Process(B, A, np.eye(6))
        assert not processes_close(f, g, 1.0) and not processes_close(g, f, 1.0)
        assert processes_close(f, Process(A, B, np.eye(6)), 0.0)

    def test_repr_names_the_wiring(self):
        assert repr(Process(System((2, 3)), System((2,)), np.eye(12))) == "Process(in=(2, 3), out=(2,))"


class TestBending:
    def test_yanking_both_snakes(self):
        ident = identity_process(A)
        left = compose_seq(compose_par(ident, cup(A)), compose_par(cap(A), ident))
        right = compose_seq(compose_par(cup(A), ident), compose_par(ident, cap(A)))
        assert processes_close(left, ident, 1e-12)
        assert processes_close(right, ident, 1e-12)

    def test_cap_after_cup_is_dimension_squared(self):
        loop = compose_seq(cup(B), cap(B))
        assert np.allclose(loop.choi, [[9.0]])

    def test_bend_of_identity_is_cup(self):
        assert processes_close(rewire(identity_process(A), [], range(2)), cup(A), 1e-12)

    def test_move_boundary_is_data_identity(self):
        rng = np.random.default_rng(8)
        f = random_process(rng, System((2, 3)), System((2,)))
        assert processes_close(rewire(rewire(f, [], range(3)), range(2), [2]), f, 0.0)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_partial_bend_agrees_with_wire_pairing(self, seed):
        # Bending input B of f : A*B -> C gives L : A -> B*C with
        # f(a (x) b) recovered as Tr_B[(b^T (x) I) L(a)].
        rng = np.random.default_rng(seed)
        f = random_process(rng, System((2, 3)), System((2,)))
        bent = rewire(f, [0], [1, 2])
        assert bent.in_sys.dims == (2,) and bent.out_sys.dims == (3, 2)
        a, b = random_matrix(rng, 2), random_matrix(rng, 3)
        lifted = apply_to_state(bent, a)
        paired = partial_trace(kron(b.T, np.eye(2, dtype=complex)) @ lifted, (3, 2), keep=(1,))
        assert np.allclose(paired, apply_to_state(f, kron(a, b)))

    def test_relabel_checks_totals(self):
        rng = np.random.default_rng(9)
        f = random_process(rng, System((2, 2)), System((4,)))
        merged = relabel(f, (4,), (2, 2))
        assert merged.in_sys.dims == (4,) and merged.out_sys.dims == (2, 2)
        with pytest.raises(DimensionError):
            relabel(f, (3,), (4,))


class TestFactorPermutation:
    def test_input_permutation_semantics(self):
        rng = np.random.default_rng(10)
        f = random_process(rng, System((2, 3)), System((2,)))
        g = rewire(f, (1, 0), [2])
        rho = random_matrix(rng, 6)
        rho_swapped = permute_subsystems(rho, (2, 3), (1, 0))
        assert np.allclose(apply_to_state(g, rho_swapped), apply_to_state(f, rho))

    def test_output_permutation_semantics(self):
        rng = np.random.default_rng(11)
        f = random_process(rng, A, System((2, 3)))
        g = rewire(f, [0], (2, 1))
        rho = random_matrix(rng, 2)
        assert np.allclose(
            apply_to_state(g, rho),
            permute_subsystems(apply_to_state(f, rho), (2, 3), (1, 0)),
        )


class TestDiscardOutputs:
    @given(seeds, st.sampled_from([(), (0,), (2,), (0, 2), (0, 1, 2)]), st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_equals_composing_with_the_discard(self, seed, drop, view):
        # Each dropped output is traced out and stays as a factor of
        # dimension 1; a rewired view is read in place like a contiguous process.
        p = random_process(np.random.default_rng(seed), System((2, 3)), System((2, 3, 2)))
        if view:
            p = rewire(p, [1, 0], [4, 2, 3])
        after = [discard_process(System((d,))) if j in drop else identity_process(System((d,))) for j, d in enumerate(p.out_sys)]
        want = compose_seq(p, reduce(compose_par, after))
        got = _discard_outputs(p, drop)
        assert got.shape == want.choi.shape
        assert np.linalg.norm(got - want.choi) <= 1e-12 * max(1.0, np.linalg.norm(want.choi))

    @pytest.mark.parametrize("view", [False, True], ids=["contiguous", "rewired"])
    def test_returns_the_traced_choi_matrix_for_every_subset(self, view):
        # The marginal is a plain matrix, equal to tracing the 2-D Choi
        # matrix; discarding nothing hands back the Choi matrix itself.
        p = random_process(np.random.default_rng(16), System((2, 3)), System((2, 3, 2)))
        if view:
            p = rewire(p, [1, 0], [4, 2, 3])
        n_in, n_out = p.n_in, len(p.out_sys)
        for k in range(n_out + 1):
            for drop in combinations(range(n_out), k):
                got = _discard_outputs(p, drop)
                keep = [*range(n_in), *[n_in + j for j in range(n_out) if j not in drop]]
                assert type(got) is np.ndarray
                assert np.allclose(got, partial_trace(p.choi, p.factor_dims, keep), rtol=0, atol=1e-12)
        assert _discard_outputs(p, ()) is p.choi


class TestStorage:
    def test_constructor_copies_the_callers_array(self):
        rng = np.random.default_rng(12)
        c = random_matrix(rng, 6)
        p = Process(A, B, c)
        kept = p.choi.copy()
        c[0, 0] += 1
        assert np.array_equal(p.choi, kept)

    def test_choi_and_tensor_are_read_only(self):
        p = random_process(np.random.default_rng(13), A, B)
        with pytest.raises(ValueError):
            p.choi[0, 0] = 1
        with pytest.raises(ValueError):
            p.tensor[0, 0, 0, 0] = 1
        assert p.tensor.shape == (2, 3, 2, 3)

    def test_rewiring_is_a_view_with_the_permuted_matrix(self):
        # Each result shares memory with its parent, and its matrix is
        # exactly the parent's, reordered by permute_subsystems.
        rng = np.random.default_rng(14)
        p = random_process(rng, System((2, 3)), System((2, 4)))
        dims = p.factor_dims
        cases = [
            (rewire(p, [3, 0], [2, 1]), (3, 0, 2, 1)),
            (rewire(p, (1, 0), (2, 3)), (1, 0, 2, 3)),
            (rewire(p, (0, 1), (3, 2)), (0, 1, 3, 2)),
            (rewire(p, range(3), [3]), (0, 1, 2, 3)),
            (relabel(p, (6,), (8,)), (0, 1, 2, 3)),
        ]
        for got, order in cases:
            assert np.shares_memory(got.tensor, p.tensor)
            assert np.array_equal(got.choi, permute_subsystems(p.choi, dims, order))
            with pytest.raises(ValueError):
                got.choi[0, 0] = 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)], ids=["nan", "inf", "-inf", "nan-imag"])
    def test_constructor_rejects_non_finite_entries(self, bad):
        c = np.eye(6, dtype=complex)
        c[1, 4] = bad
        with pytest.raises(DimensionError, match="finite"):
            Process(A, B, c)

    @pytest.mark.parametrize("ins, outs", [([0, 0], [1]), ([0, 2], [1]), ([0], [1, -1]), ([0], [])])
    def test_rewire_rejects_repeated_missing_and_out_of_range_positions(self, ins, outs):
        p = random_process(np.random.default_rng(15), A, B)
        with pytest.raises(DimensionError):
            rewire(p, ins, outs)


class TestRandomChannels:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_causal_channel_preserves_trace_and_is_cp(self, seed):
        ch = random_causal_channel(A, B, seed=seed)
        rho = random_density(A, seed=seed)
        assert np.isclose(np.trace(apply_to_state(ch, rho)), 1.0)
        marginal = partial_trace(ch.choi, (2, 3), keep=(0,))
        assert np.allclose(marginal, np.eye(2), atol=1e-9)
        w = np.linalg.eigvalsh(ch.choi)
        assert w.min() > -1e-9

    def test_density_is_normalized_state(self):
        rho = random_density(B, seed=4)
        assert np.isclose(np.trace(rho), 1.0)
        assert np.linalg.eigvalsh(rho).min() > 0



# (in_sys, out_sys) of the stacked-draw reference checks.
CHANNEL_SPECS = [
    (System((1,)), System((2,))),
    (System((2,)), System((3,))),
    (System((3,)), System((2,))),
    (System((2, 2)), System((2, 2))),
]


def assert_bit_equal(got, want):
    assert got.in_sys == want.in_sys and got.out_sys == want.out_sys
    assert np.array_equal(got.choi, want.choi)


class TestStackedDraw:
    @pytest.mark.parametrize("spec", CHANNEL_SPECS, ids=lambda s: f"{s[0].dims}->{s[1].dims}")
    def test_equals_drawing_one_at_a_time(self, spec):
        got = _random_causal_channels(np.random.default_rng(5), [spec], 4)
        rng = np.random.default_rng(5)
        for (p,) in got:
            assert_bit_equal(p, random_causal_channel_one_at_a_time(*spec, seed=rng))
        assert_bit_equal(random_causal_channel(*spec, seed=6), random_causal_channel_one_at_a_time(*spec, seed=6))

    def test_rows_of_mixed_specs_follow_the_sequential_stream(self):
        got = _random_causal_channels(np.random.default_rng(8), CHANNEL_SPECS, 3)
        rng = np.random.default_rng(8)
        want = [[random_causal_channel_one_at_a_time(*spec, seed=rng) for spec in CHANNEL_SPECS] for _ in range(3)]
        assert len(got) == 3
        for row, want_row in zip(got, want):
            for p, q in zip(row, want_row, strict=True):
                assert_bit_equal(p, q)

    @pytest.mark.parametrize("in_dims,out_dims", [((2, 2), (2, 2)), ((2, 3), (3, 2)), ((1, 2), (2, 1))])
    def test_product_span_equals_drawing_pairs_one_at_a_time(self, in_dims, out_dims):
        got = random_product_span(6, in_dims, out_dims, seed=9)
        rng = np.random.default_rng(9)
        assert len(got) == 6
        for phi, psi in got:
            assert_bit_equal(phi, random_causal_channel_one_at_a_time(System((in_dims[0],)), System((out_dims[0],)), seed=rng))
            assert_bit_equal(psi, random_causal_channel_one_at_a_time(System((in_dims[1],)), System((out_dims[1],)), seed=rng))


class TestWireFormat:
    def test_round_trip(self):
        ch = random_causal_channel(A, B, seed=5)
        back = process_from_dict(process_to_dict(ch))
        assert processes_close(back, ch, 1e-12)
        assert is_psd(back.choi)

    def test_loading_validates_and_copies_once(self, monkeypatch):
        calls = []
        check = Process.__post_init__
        monkeypatch.setattr(Process, "__post_init__", lambda p, c: calls.append(p) or check(p, c))
        record = process_to_dict(identity_process(A))
        # Loading decides nothing about positivity: no eigendecomposition.
        eig = np.linalg.eigvalsh
        eig_calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: eig_calls.append(a) or eig(*a, **k))
        back = process_from_dict(record)
        assert eig_calls == []
        assert len(calls) == 1 and back is calls[0]
        assert is_psd(back.choi)

    def test_every_array_is_copied_so_changing_it_afterwards_changes_nothing(self):
        record = process_to_dict(random_causal_channel(A, B, seed=5))
        expected = process_from_dict(record).choi.tobytes()
        writable = np.array(record["choi"])
        frozen = np.array(record["choi"])
        frozen.setflags(write=False)
        for choi in (writable, frozen[:], frozen):
            p = process_from_dict({**record, "choi": choi})
            assert not np.shares_memory(p.tensor, choi)
            assert p.choi.tobytes() == expected and not p.tensor.flags.writeable
        # p is the frozen array's process.
        assert is_causal(p).holds
        frozen.setflags(write=True)
        frozen[0, 0, 0] = 5.0
        assert p.choi.tobytes() == expected and is_causal(p).holds

    @pytest.mark.parametrize("layout", ["strided", "fortran"])
    def test_an_array_of_any_layout_loads_as_its_c_contiguous_copy(self, layout):
        record = process_to_dict(random_causal_channel(A, B, seed=5))
        pairs = np.array(record["choi"])
        if layout == "strided":
            big = np.zeros(pairs.shape[:2] + (4,))
            big[:, :, ::2] = pairs
            choi = big[:, :, ::2]
        else:
            choi = np.asfortranarray(pairs)
        assert not choi.flags.c_contiguous
        got = process_from_dict({**record, "choi": choi})
        assert got.choi.tobytes() == process_from_dict({**record, "choi": np.ascontiguousarray(choi)}).choi.tobytes()

    @pytest.mark.parametrize("spoil, message", [(lambda c: c[:-1, :-1], "expected side 6"), (lambda c: c + np.inf, "finite")])
    def test_a_frozen_array_is_checked_as_nested_lists_are(self, spoil, message):
        record = process_to_dict(random_causal_channel(A, B, seed=5))
        choi = np.array(spoil(np.array(record["choi"])))
        choi.setflags(write=False)
        with pytest.raises(DimensionError, match=message):
            process_from_dict({**record, "choi": choi})

    @pytest.mark.parametrize(
        "choi",
        [np.array([[["1", "0"]]]), np.array([[[True, False]]]), np.array([[[1 + 2j, 0]]]), np.array([[[1.0, 0.0]]], dtype=object)],
        ids=["str", "bool", "complex", "object"],
    )
    def test_an_array_of_anything_but_real_numbers_is_refused(self, choi):
        with pytest.raises(DimensionError, match=re.escape(f"dtype {choi.dtype}")):
            process_from_dict({"in": [1], "out": [1], "choi": choi})

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.uint8])
    def test_an_array_of_real_floats_or_integers_loads_in_any_layout(self, dtype):
        record = process_to_dict(identity_process(A))
        want = process_from_dict(record).choi
        choi = np.array(record["choi"]).astype(dtype)
        for view in (choi, np.asfortranarray(choi), np.repeat(choi, 2, axis=2)[:, :, ::2]):
            assert np.array_equal(process_from_dict({**record, "choi": view}).choi, want)

    def test_non_cp_choi_is_accepted_and_flagged(self):
        p = Process(A, UNIT, np.diag([1.0, -1.0]))
        back = process_from_dict(process_to_dict(p))
        assert np.array_equal(back.choi, p.choi)
        assert not is_psd(back.choi)

    @pytest.mark.parametrize(
        "record",
        [
            {"in": [2], "out": [2]},
            {"in": [2], "out": [2], "choi": [[1, 0], [0, 1]]},
            {"in": [2], "out": [2], "choi": "nope"},
        ],
    )
    def test_malformed_records_raise(self, record):
        with pytest.raises(DimensionError):
            process_from_dict(record)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entries_raise(self, bad):
        record = process_to_dict(identity_process(A))
        record["choi"][1][2][1] = bad
        with pytest.raises(DimensionError, match="finite"):
            process_from_dict(record)

    @pytest.mark.parametrize("re, im", [(-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (0.0, 0.0)])
    def test_both_zero_signs_survive_the_load(self, re, im):
        # Each [re, im] pair is read as one complex entry, with no
        # arithmetic that could turn a -0.0 into a +0.0.
        entry = process_from_dict({"in": [1], "out": [1], "choi": [[[re, im]]]}).choi[0, 0]
        assert (np.signbit(entry.real), np.signbit(entry.imag)) == (np.signbit(re), np.signbit(im))
