import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclab import tensor
from soclab.errors import DimensionError
from soclab.tensor import (
    MAX_SIDE,
    System,
    UNIT,
    as_matrix,
    check_size,
    hermitian_basis,
    is_hermitian,
    is_psd,
    kron,
    link,
    norm,
    partial_trace,
    permute_subsystems,
)

from naive import random_matrix
from probe import allocates_nothing, slicing_forced, traced


def permutation_unitary(dims, perm):
    # P|i_perm[0], ..., i_perm[n-1]> built column by column; reference for the
    # tensor-transpose implementation.
    n = len(dims)
    side = int(np.prod(dims))
    new_dims = [dims[p] for p in perm]
    p_mat = np.zeros((side, side))
    for idx in np.ndindex(*dims):
        src = np.ravel_multi_index(idx, dims)
        dst = np.ravel_multi_index([idx[p] for p in perm], new_dims)
        p_mat[dst, src] = 1
    return p_mat


class TestSystem:
    def test_total_and_concat(self):
        s = System((2, 3))
        assert s.total == 6
        assert (s + System((4,))).dims == (2, 3, 4)
        assert UNIT.total == 1
        assert len(UNIT) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(DimensionError):
            System((2, 0))

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, False, "2", None], ids=["float", "whole-float", "true", "false", "string", "none"])
    def test_rejects_dims_that_are_not_integers(self, bad):
        # int() would truncate 2.7 to 2, read True as 1 and parse "2".
        with pytest.raises(DimensionError, match="^factor dimensions must be positive integers, got "):
            System((2, bad))

    def test_numpy_integers_are_dims(self):
        s = System((np.int64(2), np.uint8(3)))
        assert s.dims == (2, 3) and all(type(d) is int for d in s.dims)


class TestKron:
    def test_known_diagonal(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 4.0])
        assert np.allclose(kron(a, b), np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_empty_product_is_scalar_one(self):
        assert np.allclose(kron(), [[1.0]])

    def test_side_limit(self):
        with pytest.raises(DimensionError):
            kron(*[np.eye(2)] * 14)


class TestCheckSize:
    def test_limit_is_on_the_element_count(self):
        for shape in [(MAX_SIDE, MAX_SIDE), (4, MAX_SIDE // 2, MAX_SIDE // 2), (MAX_SIDE * MAX_SIDE,), ()]:
            check_size(shape, "array")
        for shape in [(MAX_SIDE + 1, MAX_SIDE + 1), (5, MAX_SIDE // 2, MAX_SIDE // 2), (10**12, 10**12)]:
            with pytest.raises(DimensionError, match=r"^array of shape .* exceeds limit"):
                check_size(shape, "array")


def tensordot_link(p, p_dims, p_wires, q, q_dims, q_wires, order=None):
    # Reference for link's bits: one np.tensordot over the wire axes, then one
    # transpose into factor order, with p's batch axes before q's.
    n, m = len(p_dims), len(q_dims)
    pb, qb = p.shape[:-2], q.shape[:-2]
    axes = ([i - 2 * n for i in p_wires] + [i - n for i in p_wires], [j - 2 * m for j in q_wires] + [j - m for j in q_wires])
    t = np.tensordot(p.reshape(pb + p_dims * 2), q.reshape(qb + q_dims * 2), axes=axes)
    kp, fp, fq = len(pb), n - len(p_wires), m - len(q_wires)
    q0 = kp + 2 * fp + len(qb)
    rows = [*range(kp, kp + fp), *range(q0, q0 + fq)]
    cols = [*range(kp + fp, kp + 2 * fp), *range(q0 + fq, q0 + 2 * fq)]
    if order is not None:
        rows, cols = [rows[k] for k in order], [cols[k] for k in order]
    side = int(np.prod([t.shape[r] for r in rows]))
    return t.transpose([*range(kp), *range(kp + 2 * fp, q0), *rows, *cols]).reshape(pb + qb + (side, side))


class TestLink:
    @pytest.mark.parametrize("batches", [((), ()), ((3,), ()), ((2,), (3,))])
    def test_bits_equal_one_tensordot_without_calling_it(self, batches, monkeypatch):
        rng = np.random.default_rng(8)
        pb, qb = batches
        p = rng.standard_normal(pb + (12, 12)) + 1j * rng.standard_normal(pb + (12, 12))
        q = rng.standard_normal(qb + (6, 6)) + 1j * rng.standard_normal(qb + (6, 6))
        cases = (([1], [1], (2, 0, 1)), ([1, 2], [1, 0], None), ([0], [0], (1, 0, 2)))
        want = [tensordot_link(p, (2, 3, 2), pw, q, (2, 3), qw, order) for pw, qw, order in cases]
        for name in ("tensordot", "moveaxis"):
            monkeypatch.setattr(np, name, None)
        for (pw, qw, order), w in zip(cases, want):
            assert np.array_equal(link(p, (2, 3, 2), pw, q, (2, 3), qw, order), w)

    def test_no_wires_is_kron(self):
        rng = np.random.default_rng(0)
        a, b = random_matrix(rng, 2), random_matrix(rng, 3)
        assert np.array_equal(link(a, (2,), [], b, (3,), []), kron(a, b))
        assert np.allclose(link(a, (2,), [], b, (3,), [], (1, 0)), kron(b, a), rtol=0, atol=1e-15)

    def test_wires_of_dimension_one_give_kron_bit_for_bit(self):
        # A link over a dimension-1 wire sums one term, so it is the exact
        # product np.kron makes, for a single pair and in every stack layout.
        rng = np.random.default_rng(3)
        p = rng.standard_normal((3, 12, 12)) + 1j * rng.standard_normal((3, 12, 12))
        q = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
        assert np.array_equal(link(p[0], (1, 12), [0], q[0], (1, 6), [0]), kron(p[0], q[0]))
        outer = link(p, (1, 12), [0], q[:2], (1, 6), [0])
        for i, j in np.ndindex(3, 2):
            assert np.array_equal(outer[i, j], kron(p[i], q[j]))
        paired = link(p, (1, 12), [0], q, (1, 6), [0], paired=True)
        for t in range(3):
            assert np.array_equal(paired[t], kron(p[t], q[t]))

    @pytest.mark.parametrize("p_dims,q_dims,order", [
        ((4, 8), (2, 8), (0, 2, 1, 3)),
        ((4, 8), (2, 8), (3, 1, 0, 2)),
        # A 1 x 1 q: numpy's default layout would follow p's permuted view.
        ((4, 8, 16), (1,), (1, 0, 3, 2)),
    ])
    def test_a_tensor_product_is_written_once_in_the_result_order(self, p_dims, q_dims, order):
        rng = np.random.default_rng(4)
        p, q = random_matrix(rng, math.prod(p_dims)), random_matrix(rng, math.prod(q_dims))
        want = permute_subsystems(kron(p, q), p_dims + q_dims, order)
        with traced() as t:
            got = link(p, p_dims, [], q, q_dims, [], order)
        assert np.array_equal(got, want)
        # A copy into the result's order would double it; numpy's iterator
        # buffers for the strided operands take about 256 KiB.
        assert t.peak < 1.25 * got.nbytes

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_matches_kron_then_trace_of_paired_wires(self, seed):
        # Pairing factor 1 of p with factor 0 of q, rows with rows and columns
        # with columns: c[a s, c t] = sum_kl p[a k, c l] q[k s, l t], summed
        # here one (k, l) block at a time.
        rng = np.random.default_rng(seed)
        p, q = random_matrix(rng, 6), random_matrix(rng, 12)
        p4, q6 = p.reshape(2, 3, 2, 3), q.reshape(3, 4, 3, 4)
        want = np.zeros((2, 4, 2, 4), dtype=complex)
        for k in range(3):
            for l in range(3):
                want += np.multiply.outer(p4[:, k, :, l], q6[k, :, l, :]).transpose(0, 2, 1, 3)
        got = link(p, (2, 3), [1], q, (3, 4), [0])
        assert np.allclose(got, want.reshape(8, 8), atol=1e-12)
        swapped = link(p, (2, 3), [1], q, (3, 4), [0], (1, 0))
        assert np.allclose(swapped, permute_subsystems(got, (2, 4), (1, 0)), atol=1e-12)

    def test_rejects_mismatched_wires(self):
        # Twice each: a plan that failed must not be remembered as made.
        a = np.eye(6, dtype=complex)
        for _ in range(2):
            with pytest.raises(DimensionError):
                link(a, (2, 3), [0], a, (2, 3), [1])
            with pytest.raises(DimensionError):
                link(a, (2, 3), [0, 1], a, (2, 3), [0])
            with pytest.raises(DimensionError):
                link(a, (3, 2), [0], a, (2, 3), [0])

    def test_side_limit_is_checked_before_allocation(self):
        # The result would be 8281 x 8281 complex (about 1.1 GB); the check
        # must fire while memory use stays at the size of the inputs.
        a = np.eye(91, dtype=complex)
        with allocates_nothing():
            for _ in range(2):
                with pytest.raises(DimensionError, match="exceeds limit"):
                    link(a, (91,), [], a, (91,), [])


class TestStackedLink:
    # Every axis before the last two is a batch axis; the result carries p's
    # batch axes, then q's, or with ``paired`` their broadcast.  Each case is
    # checked against a loop over the unstacked call.
    @given(st.integers(0, 2**32 - 1), st.sampled_from([((3,), ()), ((), (2, 2)), ((2,), (3,))]))
    @settings(max_examples=15)
    def test_equals_a_loop_over_unstacked_links(self, seed, batches):
        rng = np.random.default_rng(seed)
        pb, qb = batches
        p = rng.standard_normal(pb + (12, 12)) + 1j * rng.standard_normal(pb + (12, 12))
        q = rng.standard_normal(qb + (6, 6)) + 1j * rng.standard_normal(qb + (6, 6))
        for p_wires, q_wires, order in (([1], [1], (2, 0, 1)), ([1, 2], [1, 0], None), ([], [], (3, 0, 2, 1, 4))):
            got = link(p, (2, 3, 2), p_wires, q, (2, 3), q_wires, order)
            assert got.shape[: len(pb) + len(qb)] == pb + qb
            for i in np.ndindex(pb):
                for j in np.ndindex(qb):
                    want = link(p[i], (2, 3, 2), p_wires, q[j], (2, 3), q_wires, order)
                    assert np.allclose(got[i + j], want, rtol=0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([((3,), (3,)), ((), (4,)), ((2, 1), (3,)), ((2, 3), ())]))
    @settings(max_examples=15)
    def test_paired_batches_equal_a_loop_bit_for_bit(self, seed, batches):
        # Paired batch axes broadcast against each other; each pair is the
        # unstacked link's result to the last bit, exact products included.
        rng = np.random.default_rng(seed)
        pb, qb = batches
        batch = np.broadcast_shapes(pb, qb)
        p = rng.standard_normal(pb + (12, 12)) + 1j * rng.standard_normal(pb + (12, 12))
        q = rng.standard_normal(qb + (6, 6)) + 1j * rng.standard_normal(qb + (6, 6))
        for p_dims, p_wires, q_dims, q_wires, order in (
            ((2, 3, 2), [1], (2, 3), [1], (2, 0, 1)),
            ((2, 3, 2), [1, 2], (2, 3), [1, 0], None),
            ((2, 3, 2), [], (2, 3), [], (3, 0, 2, 1, 4)),
            ((1, 12), [0], (1, 6), [0], (1, 0)),
        ):
            got = link(p, p_dims, p_wires, q, q_dims, q_wires, order, paired=True)
            assert got.shape[:-2] == batch
            pp, qq = np.broadcast_to(p, batch + (12, 12)), np.broadcast_to(q, batch + (6, 6))
            for i in np.ndindex(batch):
                assert np.array_equal(got[i], link(pp[i], p_dims, p_wires, qq[i], q_dims, q_wires, order))

    def test_one_set_of_dims_through_several_batch_shapes(self):
        # Plans are remembered per shape: the same dims and wires linked at
        # batch (3,), then (4,), then none, must each give their own shape
        # and each pair the unstacked link's bits.
        rng = np.random.default_rng(11)
        for paired in (False, True):
            for batch in ((3,), (4,), ()):
                p = rng.standard_normal(batch + (12, 12)) + 1j * rng.standard_normal(batch + (12, 12))
                q = rng.standard_normal(batch + (6, 6)) + 1j * rng.standard_normal(batch + (6, 6))
                got = link(p, (2, 3, 2), [1], q, (2, 3), [1], (2, 0, 1), paired=paired)
                assert got.shape == (batch if paired else batch + batch) + (8, 8)
                for i in np.ndindex(batch):
                    j = i if paired else i + i
                    assert np.array_equal(got[j], link(p[i], (2, 3, 2), [1], q[i], (2, 3), [1], (2, 0, 1)))

    def test_paired_batches_must_broadcast(self):
        with pytest.raises(ValueError):
            link(np.zeros((2, 4, 4)), (4,), [0], np.zeros((3, 4, 4)), (4,), [0], paired=True)

    def test_stacked_size_limit_is_checked_before_allocation(self):
        # Each linked matrix is only 91 x 91, but 91 x 91 of them would hold
        # 91**4 elements (about 1.1 GB complex), more than MAX_SIDE**2; the
        # check must fire while memory use stays at the size of the inputs.
        a = np.broadcast_to(np.eye(91, dtype=complex), (91, 91, 91))
        b = np.ones((91, 1, 1), dtype=complex)
        with allocates_nothing():
            for _ in range(2):
                with pytest.raises(DimensionError, match="exceeds limit"):
                    link(a, (91,), [], b, (1,), [])


class TestPartialTrace:
    def test_maximally_entangled_marginal(self):
        # sum_ij |ii><jj| has marginals equal to the identity.
        omega = np.outer(np.eye(2).ravel(), np.eye(2).ravel())
        assert np.allclose(partial_trace(omega, (2, 2), keep=(0,)), np.eye(2))
        assert np.allclose(partial_trace(omega, (2, 2), keep=(1,)), np.eye(2))

    def test_keep_order_is_respected(self):
        rng = np.random.default_rng(0)
        a, b = random_matrix(rng, 2), random_matrix(rng, 3)
        m = kron(a, b)
        swapped = partial_trace(m, (2, 3), keep=(1, 0))
        assert np.allclose(swapped, kron(b, a) / 1.0 * 1.0)

    def test_empty_keep_is_full_trace(self):
        rng = np.random.default_rng(1)
        m = random_matrix(rng, 6)
        assert np.allclose(partial_trace(m, (2, 3), keep=()), [[np.trace(m)]])

    def test_product_factorizes(self):
        rng = np.random.default_rng(2)
        a, b = random_matrix(rng, 2), random_matrix(rng, 5)
        assert np.allclose(partial_trace(kron(a, b), (2, 5), keep=(0,)), a * np.trace(b))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_trace_is_preserved(self, seed):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, 12)
        kept = partial_trace(m, (2, 3, 2), keep=(1,))
        assert np.isclose(np.trace(kept), np.trace(m))


    @given(st.integers(0, 2**32 - 1), st.sampled_from([(4,), (2, 3)]))
    @settings(max_examples=10)
    def test_stack_equals_a_loop(self, seed, batch):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal(batch + (12, 12)) + 1j * rng.standard_normal(batch + (12, 12))
        for keep in ((1,), (2, 0), ()):
            got = partial_trace(m, (2, 3, 2), keep=keep)
            for i in np.ndindex(batch):
                assert np.allclose(got[i], partial_trace(m[i], (2, 3, 2), keep=keep), rtol=0, atol=1e-12)

    def test_rejects_a_stack_of_the_wrong_side(self):
        for _ in range(2):
            with pytest.raises(DimensionError):
                partial_trace(np.zeros((3, 4, 4)), (2, 3), keep=(0,))

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 4), min_size=1, max_size=4).flatmap(
            lambda dims: st.tuples(st.just(tuple(dims)), st.permutations(range(len(dims))), st.permutations(range(len(dims))))
        ),
        st.integers(0, 4),
        st.booleans(),
    )
    @settings(max_examples=60)
    def test_a_sliced_trace_has_the_bits_of_one_einsum(self, seed, dims_order_keep, n_keep, as_tensor):
        # A large result out of the input's memory order is written one
        # slice of its first kept factor at a time.  Each entry is summed in
        # the same order as by one einsum over the whole, so the bits are the
        # same, on a rewired (strided) view and whatever factors are kept, in
        # any order.
        dims, order, keep = dims_order_keep
        order, keep = tuple(order), tuple(keep[:n_keep])
        n, side = len(dims), math.prod(dims)
        view = random_matrix(np.random.default_rng(seed), side).reshape(dims + dims).transpose(order + tuple(n + k for k in order))
        vdims = tuple(dims[k] for k in order)
        m = view if as_tensor else view.reshape(side, side)
        want = partial_trace(m, vdims, keep)
        with slicing_forced():
            got = partial_trace(m, vdims, keep)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous

    def test_only_a_large_result_may_be_sliced(self):
        # The line is 4 MiB, a 512 x 512 result; a stack is never sliced.
        sliced = lambda dims, keep, shape: tensor._trace_plan(dims, keep, shape)[-1] is not None  # noqa: E731
        assert sliced((8, 8, 8, 2), (2, 0, 1), (8, 8, 8, 2) * 2)
        assert sliced((8, 8, 8, 2), (2, 0, 1), (1024, 1024))
        assert not sliced((8, 8, 4, 2), (2, 0, 1), (8, 8, 4, 2) * 2)
        assert not sliced((8, 8, 8, 2), (2, 0, 1), (1, 1024, 1024))
        assert not sliced((8, 8, 8, 2), (), (8, 8, 8, 2) * 2)

    @pytest.mark.parametrize(
        "axes, keep, bound",
        [
            ((2, 0, 1, 3, 6, 4, 5, 7), (0, 1, 2), 1.3),
            (tuple(range(8)), (2, 0, 1), 1.3),
            (tuple(range(8)), (0, 1, 2), 1.05),
        ],
        ids=["rewired-view", "keep-out-of-order", "in-order"],
    )
    def test_a_large_trace_allocates_its_result_once(self, axes, keep, bound):
        # A 512 x 512 result (4 MiB).  Out of the input's memory order, one
        # einsum would give it in that order and reshape would copy it, twice
        # its size; written slice by slice it takes its own size and one
        # slice (an eighth) more.  In order, one einsum gives it in C order.
        dims = (8, 8, 8, 2)
        m = np.zeros(dims + dims, dtype=complex).transpose(axes)
        with traced() as t:
            got = partial_trace(m, dims, keep)
        assert t.peak <= bound * got.nbytes

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["matrix", "stack", "strided"]))
    @settings(max_examples=15)
    def test_a_trace_of_dimension_1_factors_is_a_reshape_with_the_bits_of_einsum(self, seed, layout):
        # Factors (2, 1, 3, 1), keeping 0 and 2.  A matrix or a stack is
        # handed back as a view; a strided factor tensor (the body of
        # factors (3, 1, 2, 1) read in the order 2, 1, 0, 3) is copied.
        dims, keep = (2, 1, 3, 1), (0, 2)
        rng = np.random.default_rng(seed)
        if layout == "strided":
            m = random_matrix(rng, 6).reshape((3, 1, 2, 1) * 2).transpose(2, 1, 0, 3, 6, 5, 4, 7)
            t = m
        else:
            m = random_matrix(rng, 6) if layout == "matrix" else rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
            t = m.reshape(m.shape[:-2] + dims + dims)
        want = np.einsum("...ijklmjnl->...ikmn", t)
        want = want.reshape(want.shape[:-4] + (6, 6))
        got = partial_trace(m, dims, keep)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.shares_memory(got, m) is (layout != "strided")

    def test_a_reshaped_trace_keeps_the_sign_of_a_zero_and_checks_keep(self):
        # einsum's sum would give +0.0 here; the reshape keeps the entry.
        assert np.signbit(partial_trace(np.array([[complex(-0.0, 0.0)]]), (1,), ()).real).all()
        for keep in [(0, 0), (2,), (-1,), (1, 0, 1)]:
            with pytest.raises(DimensionError, match="bad keep"):
                partial_trace(np.eye(2), (2, 1), keep=keep)

    @pytest.mark.parametrize("keep", [(0, 0), (2,), (-1,)])
    def test_rejects_bad_keep(self, keep):
        # Twice: a plan that failed must not be remembered as made.
        for _ in range(2):
            with pytest.raises(DimensionError, match="bad keep"):
                partial_trace(np.eye(6), (2, 3), keep=keep)


class TestPermuteSubsystems:
    def test_matches_permutation_unitary(self):
        rng = np.random.default_rng(3)
        dims = (2, 3, 2)
        m = random_matrix(rng, 12)
        for perm in [(0, 1, 2), (2, 0, 1), (1, 0, 2), (2, 1, 0)]:
            p = permutation_unitary(dims, perm)
            assert np.allclose(permute_subsystems(m, dims, perm), p @ m @ p.T)

    def test_gather_semantics_on_product(self):
        rng = np.random.default_rng(4)
        a, b, c = (random_matrix(rng, d) for d in (2, 3, 4))
        out = permute_subsystems(kron(a, b, c), (2, 3, 4), (2, 0, 1))
        assert np.allclose(out, kron(c, a, b))

    def test_rejects_non_permutation(self):
        with pytest.raises(DimensionError):
            permute_subsystems(np.eye(4), (2, 2), (0, 0))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        dims = (2, 2, 3)
        m = random_matrix(rng, 12)
        perm = list(rng.permutation(3))
        inv = [perm.index(k) for k in range(3)]
        new_dims = tuple(dims[p] for p in perm)
        back = permute_subsystems(permute_subsystems(m, dims, perm), new_dims, inv)
        assert norm(back - m) < 1e-12


class TestNorm:
    RNG = np.random.default_rng(11)
    C = random_matrix(RNG, 6)
    R = RNG.standard_normal((5, 7))
    T = random_matrix(RNG, 6).reshape(2, 3, 2, 3)

    @pytest.mark.parametrize(
        "x",
        [
            C,
            R,
            T.transpose(1, 0, 3, 2),
            C[::2, 1::3],
            R.T[1:, ::2],
            RNG.standard_normal((5, 4, 4)) + 1j * RNG.standard_normal((5, 4, 4)),
            np.zeros((0,)),
            np.zeros((3, 0), dtype=complex),
        ],
        ids=["complex", "real", "transposed-factors", "strided-complex", "strided-real", "stack", "empty", "empty-complex"],
    )
    def test_equals_the_frobenius_norm_of_every_entry(self, x):
        got = norm(x)
        assert type(got) is float
        assert math.isclose(got, np.linalg.norm(x.ravel()), rel_tol=1e-13)

    @pytest.mark.parametrize(
        "x",
        [np.array([1e200, 1e200]), np.array([[1e200j, 3.0], [-1e-300, 1e180]]), np.array([1.7e308, 1.0])],
        ids=["two-large", "mixed-complex", "near-the-float-range"],
    )
    def test_entries_whose_squares_overflow_give_a_finite_norm(self, x):
        got = norm(x)
        assert type(got) is float and math.isfinite(got)
        assert math.isclose(got, math.hypot(*np.abs(x).ravel()), rel_tol=1e-15)

    def test_non_finite_entries_and_a_norm_past_the_float_range_stay_non_finite(self):
        assert norm([np.inf, 1.0]) == np.inf
        assert math.isnan(norm([np.nan, 1e200]))
        assert norm([1.7e308, 1.7e308]) == np.inf

    def test_contiguous_input_is_read_in_place(self):
        m = random_matrix(np.random.default_rng(12), 256)
        with traced() as t:
            norm(m)
        assert t.peak < m.nbytes // 100


class TestAsMatrix:
    def test_a_matrix_that_is_not_square_is_refused(self):
        with pytest.raises(DimensionError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            as_matrix(np.zeros((2, 3)))

    def test_a_matrix_of_the_wrong_side_is_refused(self):
        with pytest.raises(DimensionError, match="^expected side 6, got 4$"):
            as_matrix(np.eye(4), 6)


class TestPsd:
    def test_psd_accepts_gram_matrix(self):
        rng = np.random.default_rng(5)
        g = random_matrix(rng, 4)
        assert is_psd(g @ g.conj().T)

    def test_rejects_negative_eigenvalue(self):
        assert not is_psd(np.diag([1.0, -0.1]))

    def test_rejects_non_hermitian(self):
        assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
        assert not is_psd(np.array([[0, 1], [0, 0]], dtype=complex))


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal_and_complete(self, d):
        basis = hermitian_basis(d)
        assert len(basis) == d * d
        gram = np.array([[np.trace(x.conj().T @ y) for y in basis] for x in basis])
        assert np.allclose(gram, np.eye(d * d), atol=1e-12)
        for x in basis:
            assert is_hermitian(x)

    def test_first_element_is_scaled_identity(self):
        basis = hermitian_basis(3)
        assert np.allclose(basis[0], np.eye(3) / np.sqrt(3))
        for x in basis[1:]:
            assert abs(np.trace(x)) < 1e-12

    def test_a_basis_too_large_to_hold_raises_before_allocating(self, monkeypatch):
        # 25 matrices of 5 x 5 pass a limit of 16**2 elements.  Cleared first,
        # so that no cached basis answers.
        hermitian_basis.cache_clear()
        monkeypatch.setattr(tensor, "MAX_SIDE", 16)
        with allocates_nothing(), pytest.raises(DimensionError, match="Hermitian basis of shape"):
            hermitian_basis(5)

    def test_expansion_reconstructs(self):
        rng = np.random.default_rng(6)
        h = random_matrix(rng, 3)
        h = h + h.conj().T
        basis = hermitian_basis(3)
        coeffs = [np.trace(b.conj().T @ h) for b in basis]
        assert np.allclose(sum(c * b for c, b in zip(coeffs, basis)), h)
