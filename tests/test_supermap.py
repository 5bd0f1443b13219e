import mmap
import os
import subprocess
import sys
from contextlib import nullcontext
from functools import reduce
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from probe import allocates_nothing, slicing_forced, traced
from test_process import assert_same_bits, assert_same_process, random_process

import soclab
from soclab import supermap
from soclab.errors import DimensionError, WireMismatchError
from soclab.extras import quantum_switch, spoiled_supermap
from soclab.predicates import is_causal, is_soc2, is_soc2_oracle
from soclab.process import (
    Process,
    compose_par,
    compose_seq,
    identity_process,
    processes_close,
    random_causal_channel,
    swap_process,
)
from soclab.supermap import (
    BipartiteSupermap,
    dress_slots,
    fixed_order_a_then_b,
    fixed_order_b_then_a,
    insert,
    insert_merged,
    insert_stacked,
    insert_with_ancilla,
    merged_slot_process,
    mix,
    supermap_from_dict,
    supermap_from_process,
    supermap_to_dict,
)
from soclab.tensor import System, is_psd

import naive

seeds = st.integers(0, 2**32 - 1)

Q = System((2,))


HETERO_DIMS = [(2, 3, 3, 2), (3, 2, 2, 4)]
KINDS = ["a_then_b", "b_then_a", "switch"]


def supermap_on(kind, dims, rng):
    """A causality-preserving supermap of the given kind whose slots take
    ``dims``: the fixed order itself where its wiring allows, else the
    qubit one (or the qubit switch) dressed with random causal channels."""
    a1, a2, b1, b2 = dims
    if kind == "a_then_b" and a2 == b1:
        return fixed_order_a_then_b(*dims)
    if kind == "b_then_a" and b2 == a1:
        return fixed_order_b_then_a(*dims)
    base = {"a_then_b": fixed_order_a_then_b, "b_then_a": fixed_order_b_then_a}
    w = base[kind](2, 2, 2, 2) if kind in base else {"switch": quantum_switch, "spoiled": spoiled_supermap}[kind](2)
    chans = [
        random_causal_channel(Q, System((a1,)), seed=rng),
        random_causal_channel(System((a2,)), Q, seed=rng),
        random_causal_channel(Q, System((b1,)), seed=rng),
        random_causal_channel(System((b2,)), Q, seed=rng),
    ]
    return dress_slots(w, *chans)


class TestLinkAgainstReference:
    @given(
        seeds,
        st.sampled_from(KINDS),
        st.sampled_from(HETERO_DIMS),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]),
        st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_insert_with_ancilla_matches_the_eight_block_reference(self, seed, kind, dims, m, a_split, b_split, causal):
        # The reference forms pa (x) pb, of side m**wires * prod(dims); keep it small.
        wires = sum(a_split) + sum(b_split)
        assume(m**wires <= 16)
        rng = np.random.default_rng(seed)
        w = supermap_on(kind, dims, rng)
        a1, a2, b1, b2 = dims

        def arg(split, d_in, d_out):
            ins, outs = System((m,) * split[0] + (d_in,)), System((m,) * split[1] + (d_out,))
            return random_causal_channel(ins, outs, seed=rng) if causal else random_process(rng, ins, outs)

        pa, pb = arg(a_split, a1, a2), arg(b_split, b1, b2)
        got = insert_with_ancilla(w, pa, pb, a_split, b_split).process
        # Each side's ancillas as one wire, as naive.fill reads them.
        a_anc, b_anc = (m ** a_split[0], m ** a_split[1]), (m ** b_split[0], m ** b_split[1])
        want = naive.fill(w.body.choi, w.body.factor_dims, pa.choi, pb.choi, a_anc, b_anc)
        ins, outs = System((m,) * (a_split[0] + b_split[0]) + (w.c_in,)), System((m,) * (a_split[1] + b_split[1]) + (w.c_out,))
        assert_same_process(got, Process(ins, outs, want))
        if causal:
            assert is_psd(got.choi)

    @given(
        seeds,
        st.sampled_from(KINDS),
        st.sampled_from(HETERO_DIMS),
        st.sampled_from([(1, 1), (2, 1), (1, 3)]),
        st.sampled_from([(1, 1), (3, 2)]),
    )
    @settings(max_examples=10, deadline=None)
    def test_stacked_insertion_equals_a_loop_of_insertions(self, seed, kind, dims, a_anc, b_anc):
        rng = np.random.default_rng(seed)
        w = supermap_on(kind, dims, rng)
        a1, a2, b1, b2 = dims
        pas = [random_process(rng, System((a_anc[0], a1)), System((a_anc[1], a2))) for _ in range(3)]
        pbs = [random_process(rng, System((b_anc[0], b1)), System((b_anc[1], b2))) for _ in range(2)]
        grid = insert_stacked(w, np.stack([p.choi for p in pas]), np.stack([p.choi for p in pbs]), a_anc, b_anc)
        assert grid.shape[:2] == (3, 2)
        for i, pa in enumerate(pas):
            for j, pb in enumerate(pbs):
                want = insert_with_ancilla(w, pa, pb, (1, 1), (1, 1)).process.choi
                assert np.allclose(grid[i, j], want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))

    @given(seeds, st.sampled_from(KINDS), st.sampled_from(HETERO_DIMS), st.sampled_from([(1, 1), (2, 1), (1, 3)]))
    @settings(max_examples=10, deadline=None)
    def test_paired_insertion_equals_a_loop_of_insertions_bit_for_bit(self, seed, kind, dims, anc):
        rng = np.random.default_rng(seed)
        w = supermap_on(kind, dims, rng)
        a1, a2, b1, b2 = dims
        pas = np.stack([random_process(rng, System((anc[0], a1)), System((anc[1], a2))).choi for _ in range(3)])
        pbs = np.stack([random_process(rng, System((anc[0], b1)), System((anc[1], b2))).choi for _ in range(3)])
        got = insert_stacked(w, pas, pbs, anc, anc, paired=True)
        assert got.shape[0] == 3
        for t in range(3):
            assert np.array_equal(got[t], insert_stacked(w, pas[t], pbs[t], anc, anc))

    def test_stacked_insertion_checks_the_argument_side(self):
        w = fixed_order_a_then_b(2, 2, 2, 2)
        with pytest.raises(DimensionError):
            insert_stacked(w, np.zeros((3, 4, 4)), np.zeros((2, 6, 6)))

    @given(seeds, st.sampled_from(KINDS), st.sampled_from(HETERO_DIMS), st.booleans())
    @settings(max_examples=6, deadline=None)
    def test_closed_form_and_oracle_agree(self, seed, kind, dims, spoil):
        rng = np.random.default_rng(seed)
        w = supermap_on(kind, dims, rng)
        if spoil:
            side = w.body.choi.shape[0]
            bump = random_process(rng, w.body.in_sys, w.body.out_sys).choi
            w = BipartiteSupermap(Process(w.body.in_sys, w.body.out_sys, w.body.choi + (bump + bump.conj().T) / side))
        closed, oracle = is_soc2(w), is_soc2_oracle(w)
        assert closed.holds is oracle.holds is (not spoil)
        assert abs(closed.residual - oracle.residual) <= 1e-9 * max(1.0, closed.residual)


SPLITS = [(0, 0), (1, 0), (0, 1), (1, 1)]


def assert_same_verdict(got, want):
    """``got`` must read as ``want``: same verdict, residual to 1e-12
    (relative), and the same witness, shape and factor order included."""
    assert got.holds is want.holds
    assert abs(got.residual - want.residual) <= 1e-12 * max(1.0, want.residual)
    assert got.witness.shape == want.witness.shape
    scale = max(1.0, np.abs(want.witness).max())
    assert np.allclose(got.witness, want.witness, rtol=0, atol=1e-12 * scale)


class TestTraceEarlyCausality:
    # The full path builds the filled process and traces all its outputs;
    # .causal traces C2 and the ancilla outputs first.  They must agree.
    @given(
        seeds,
        st.sampled_from(KINDS + ["spoiled"]),
        st.sampled_from(HETERO_DIMS),
        st.sampled_from([1, 2, 3]),
        st.sampled_from(SPLITS),
        st.sampled_from(SPLITS),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_ancilla_insertion_equals_tracing_the_filled_process(self, seed, kind, dims, m, a_split, b_split, causal):
        rng = np.random.default_rng(seed)
        w = supermap_on(kind, dims, rng)
        a1, a2, b1, b2 = dims

        def arg(split, d_in, d_out):
            ins, outs = System((m,) * split[0] + (d_in,)), System((m,) * split[1] + (d_out,))
            return random_causal_channel(ins, outs, seed=rng) if causal else random_process(rng, ins, outs)

        res = insert_with_ancilla(w, arg(a_split, a1, a2), arg(b_split, b1, b2), a_split, b_split)
        got = res.causal
        assert "process" not in vars(res)
        assert_same_verdict(got, is_causal(res.process))

    @given(seeds, st.sampled_from(KINDS + ["spoiled"]), st.sampled_from(HETERO_DIMS), st.sampled_from(["product", "swap"]))
    @settings(max_examples=20, deadline=None)
    def test_merged_insertion_equals_tracing_the_filled_process(self, seed, kind, dims, joint):
        a1, a2, b1, b2 = dims
        assume(joint == "product" or (a2, b2) == (b1, a1))
        rng = np.random.default_rng(seed)
        w = supermap_on(kind, dims, rng)
        if joint == "swap":
            phi = swap_process(System((a1,)), System((b1,)))
        else:
            pa = random_causal_channel(System((a1,)), System((a2,)), seed=rng)
            phi = compose_par(pa, random_causal_channel(System((b1,)), System((b2,)), seed=rng))
        res = insert_merged(w, phi)
        got = res.causal
        assert "process" not in vars(res)
        assert_same_verdict(got, is_causal(res.process))

    def test_a_filling_too_large_to_build_is_still_checked(self):
        # Ancillas of dimension 10 on qubit slots: the filled process would
        # be 40000 x 40000 complex (about 26 GB), its marginal 200 x 200.
        w = fixed_order_a_then_b(2, 2, 2, 2)
        big = System((10, 2))
        pa = random_causal_channel(big, big, seed=0)
        pb = random_causal_channel(big, big, seed=1)
        res = insert_with_ancilla(w, pa, pb, (1, 1), (1, 1))
        assert res.causal.holds and res.causal.residual < 1e-9
        with allocates_nothing(), pytest.raises(DimensionError, match="exceeds limit"):
            res.process

    def test_the_body_is_traced_once_per_supermap(self):
        w = fixed_order_a_then_b(2, 2, 2, 2)
        q = identity_process(Q)
        assert insert(w, q, q).causal.holds
        traced = w._discarded
        assert insert_merged(w, compose_par(q, q)).causal.holds
        assert w._discarded is traced
        assert traced.body.out_sys.dims == (2, 1) and not traced.body.tensor.flags.writeable

    def test_an_ancilla_filling_builds_one_process_to_decide_causality(self, monkeypatch):
        # The discards hand back bare marginals; only the effect that
        # is_causal reads is wrapped as a process.
        w = fixed_order_a_then_b(2, 2, 2, 2)
        w._discarded
        big = System((2, 2))
        pa, pb = random_causal_channel(big, big, seed=2), random_causal_channel(big, big, seed=3)
        calls = []
        adopt = Process._adopt.__func__
        monkeypatch.setattr(Process, "_adopt", classmethod(lambda cls, *a, **k: calls.append(a) or adopt(cls, *a, **k)))
        assert insert_with_ancilla(w, pa, pb, (1, 1), (1, 1)).causal.holds
        assert len(calls) <= 1

    def test_an_oversized_switch_raises_before_allocating(self):
        # d = 4 gives a body of side 4 * 4**6 = 16384, about 4.3 GB complex.
        with allocates_nothing(), pytest.raises(DimensionError, match="exceeds limit"):
            quantum_switch(4)


def switch_body_reference(d):
    """The index loop and dense outer product that built the quantum
    switch's body before it became a two-branch wiring pattern, kept as a
    reference."""
    v = np.zeros((d, d, d, d, 2 * d, 2 * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                # control 0: global input feeds the first slot, first feeds second
                v[i, j, j, k, i, k] += 1.0
                # control 1: the same wires in the other order
                v[k, j, i, k, d + i, d + j] += 1.0
    vec = v.reshape(-1)
    return np.outer(vec, vec.conj())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_switch_body_is_bit_identical_to_the_reference(d):
    body = quantum_switch(d).body
    assert body.in_sys.dims == (d,) * 4 and body.out_sys.dims == (2 * d, 2 * d)
    assert_same_bits(body.choi, switch_body_reference(d))


def fixed_order_bodies_reference(a_in, a_out, b_in, b_out):
    """The kron-then-permute construction of both fixed-order bodies that
    the 0/1 wiring patterns replaced, kept as a reference on the naive
    layer; a body is None where its order cannot chain the slots."""
    cups = lambda *ds: reduce(np.kron, [naive.choi([np.eye(d)], d, d) for d in ds])
    ab = ba = None
    if a_out == b_in:
        # kron factor order [A1, C1, A2, B1, B2, C2] -> [A1, A2, B1, B2, C1, C2]
        ab = naive.permute(cups(a_in, a_out, b_out), (a_in, a_in, a_out, b_in, b_out, b_out), (0, 2, 3, 4, 1, 5))
    if b_out == a_in:
        # kron factor order [B1, C1, B2, A1, A2, C2] -> [A1, A2, B1, B2, C1, C2]
        ba = naive.permute(cups(b_in, b_out, a_out), (b_in, b_in, b_out, a_in, a_out, a_out), (3, 4, 0, 2, 1, 5))
    return ab, ba


class TestFixedOrders:
    @pytest.mark.parametrize("slots", [(2, 2, 2, 2), (2, 3, 3, 2), (3, 3, 3, 3), (3, 2, 2, 4), (1, 2, 2, 1)])
    def test_bodies_are_byte_identical_to_the_kron_reference(self, slots):
        ab, ba = fixed_order_bodies_reference(*slots)
        assert ab is not None
        for order, want in ((fixed_order_a_then_b, ab), (fixed_order_b_then_a, ba)):
            if want is not None:
                got = order(*slots).body.choi
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_a_then_b_is_sequential_composition(self, seed):
        rng = np.random.default_rng(seed)
        w = fixed_order_a_then_b(2, 3, 3, 2)
        pa = random_process(rng, System((2,)), System((3,)))
        pb = random_process(rng, System((3,)), System((2,)))
        got = insert(w, pa, pb).process
        assert processes_close(got, compose_seq(pa, pb), 1e-9)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_b_then_a_is_reverse_composition(self, seed):
        rng = np.random.default_rng(seed)
        w = fixed_order_b_then_a(3, 2, 2, 3)
        pa = random_process(rng, System((3,)), System((2,)))
        pb = random_process(rng, System((2,)), System((3,)))
        got = insert(w, pa, pb).process
        assert processes_close(got, compose_seq(pb, pa), 1e-9)

    def test_wire_mismatch_is_rejected(self):
        with pytest.raises(WireMismatchError):
            fixed_order_a_then_b(2, 3, 2, 2)
        with pytest.raises(WireMismatchError):
            fixed_order_b_then_a(3, 2, 2, 2)

    def test_bodies_are_cp(self):
        assert is_psd(fixed_order_a_then_b(2, 2, 2, 2).body.choi)
        w = np.linalg.eigvalsh(fixed_order_b_then_a(2, 2, 2, 2).body.choi)
        assert w.min() > -1e-12

    def test_causal_fillings_give_causal_output(self):
        w = fixed_order_a_then_b(2, 2, 2, 2)
        pa = random_causal_channel(Q, Q, seed=0)
        pb = random_causal_channel(Q, Q, seed=1)
        res = insert(w, pa, pb)
        assert res.causal.holds
        assert res.causal.residual < 1e-10


# Builds one d = 4 body in a fresh interpreter and prints how far the
# process's peak resident memory (VmHWM, in KiB) rose, beside the body's size.
BUILD_D4 = """
import sys
from soclab.extras import spoiled_supermap
from soclab.supermap import fixed_order_a_then_b, fixed_order_b_then_a, mix

def peak_kib():
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])

kind = sys.argv[1]
orders = [fixed_order_a_then_b(4, 4, 4, 4), fixed_order_b_then_a(4, 4, 4, 4)] if kind == "mix" else []
before = peak_kib()
if kind == "a_then_b":
    w = fixed_order_a_then_b(4, 4, 4, 4)
elif kind == "mix":
    w = mix([(0.25, orders[0]), (0.75, orders[1])])
else:
    w = spoiled_supermap(4)
print(peak_kib() - before, w.body.choi.nbytes // 1024)
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads the peak resident memory from Linux's /proc")
@pytest.mark.parametrize("kind", ["a_then_b", "mix", "spoiled"])
def test_d4_bodies_take_memory_only_for_their_nonzeros(kind):
    # A d = 4 body is 268 MB of mostly zeros.  It is built in a fresh
    # interpreter, which reads the high-water mark of its own memory
    # (VmHWM): its ru_maxrss would start from the peak of the test run
    # that started it.
    src = str(Path(soclab.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", BUILD_D4, kind], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    rise, size = map(int, out.stdout.split())
    assert rise < size / 4


class TestInsertion:
    def test_insert_rejects_badly_typed_channels(self):
        w = fixed_order_a_then_b(2, 2, 2, 2)
        with pytest.raises(WireMismatchError):
            insert(w, random_causal_channel(System((3,)), Q, seed=0), random_causal_channel(Q, Q, seed=1))

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_insertion_is_linear_in_each_hole(self, seed):
        rng = np.random.default_rng(seed)
        w = fixed_order_a_then_b(2, 2, 2, 2)
        pa1, pa2 = (random_process(rng, Q, Q) for _ in range(2))
        pb = random_process(rng, Q, Q)
        summed = Process(Q, Q, 0.3 * pa1.choi + 0.7 * pa2.choi)
        lhs = insert(w, summed, pb).process.choi
        rhs = 0.3 * insert(w, pa1, pb).process.choi + 0.7 * insert(w, pa2, pb).process.choi
        assert np.allclose(lhs, rhs)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_merged_insertion_extends_product_insertion(self, seed):
        rng = np.random.default_rng(seed)
        w = fixed_order_a_then_b(2, 3, 3, 2)
        pa = random_process(rng, System((2,)), System((3,)))
        pb = random_process(rng, System((3,)), System((2,)))
        joint = compose_par(pa, pb)
        got = insert_merged(w, joint, in_split=1, out_split=1).process
        assert processes_close(got, insert(w, pa, pb).process, 1e-9)

    def test_swap_loop_output_is_frozen_multiple_of_the_cup(self):
        # Feeding the swap into both holes of the A-then-B wiring closes a
        # loop; the output matrix was computed by hand to be exactly four
        # times the unnormalized maximally entangled state.
        w = fixed_order_a_then_b(2, 2, 2, 2)
        res = insert_merged(w, swap_process(Q, Q), in_split=1, out_split=1)
        v = np.eye(2, dtype=complex).ravel()
        assert np.allclose(res.process.choi, 4 * np.outer(v, v))
        assert not res.causal.holds
        assert np.isclose(res.causal.residual, 3 * np.sqrt(2))

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_ancilla_insertion_on_product_channels_factorizes(self, seed):
        # When each filling is (ancilla channel) x (slot channel), threading
        # it through the holes must equal running the ancilla channels on
        # the side of the plain insertion.
        rng = np.random.default_rng(seed)
        w = fixed_order_a_then_b(2, 3, 3, 2)
        anc_a = random_process(rng, Q, Q)
        anc_b = random_process(rng, Q, Q)
        slot_a = random_process(rng, System((2,)), System((3,)))
        slot_b = random_process(rng, System((3,)), System((2,)))
        pa = compose_par(anc_a, slot_a)
        pb = compose_par(anc_b, slot_b)
        got = insert_with_ancilla(w, pa, pb, (1, 1), (1, 1)).process
        core = insert(w, slot_a, slot_b).process
        want = compose_par(anc_a, compose_par(anc_b, core))
        assert processes_close(got, want, 1e-9)

    def test_ancilla_insertion_typing(self):
        w = fixed_order_a_then_b(2, 2, 2, 2)
        pa = random_causal_channel(System((3, 2)), System((5, 2)), seed=2)
        pb = random_causal_channel(System((4, 2)), System((2,)), seed=3)
        res = insert_with_ancilla(w, pa, pb, (1, 1), (1, 0)).process
        assert res.in_sys.dims == (3, 4, 2)
        assert res.out_sys.dims == (5, 2)

    def test_insert_accepts_non_cp_arguments(self):
        w = fixed_order_a_then_b(2, 2, 2, 2)
        neg = Process(Q, Q, np.diag([1.0, -1.0, 1.0, 2.0]))
        out = insert(w, neg, identity_process(Q)).process
        assert out.in_sys.dims == (2,) and out.out_sys.dims == (2,)


def mix_reference(pairs):
    """The dense sum that mix made before it skipped zeros, kept as a reference."""
    acc = np.zeros_like(pairs[0][1].body.choi)
    for weight, w in pairs:
        acc = acc + weight * w.body.choi
    return acc


def sparse_body(rng, dims):
    """A supermap whose body is mostly zeros of either sign, with complex
    entries of any sign elsewhere."""
    side = prod(dims)
    parts = rng.standard_normal((2, side, side)) * 10.0 ** rng.integers(-3, 4, (2, side, side))
    parts[rng.random((2, side, side)) < 0.6] = 0.0
    parts[rng.random((2, side, side)) < 0.2] = -0.0
    return BipartiteSupermap(Process(System(dims[:4]), System(dims[4:]), parts[0] + 1j * parts[1]))


def backing(a):
    """The object that owns the memory of array ``a``."""
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


weights = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e300, 1e300), st.floats(-4.0, 4.0))


class TestAlgebra:
    @given(seeds, st.lists(weights, min_size=1, max_size=4), st.sampled_from([(2, 1, 1, 2, 2, 1), (1, 2, 2, 1, 1, 3)]), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_mix_is_the_dense_sum_byte_for_byte(self, seed, ws, dims, mapped):
        # Both allocations: np.zeros, or with the line at one byte a private mapping.
        rng = np.random.default_rng(seed)
        pairs = [(t, sparse_body(rng, dims)) for t in ws]
        want = mix_reference(pairs)
        with slicing_forced() if mapped else nullcontext():
            got = mix(pairs).body.choi
        assert isinstance(backing(got), mmap.mmap) == mapped
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(seeds, st.lists(weights, min_size=1, max_size=3), st.sampled_from([16, 48, 1 << 10]))
    @settings(max_examples=20, deadline=None)
    def test_mix_scanned_in_blocks_is_the_dense_sum_byte_for_byte(self, seed, ws, line):
        # A line of 16 bytes scans one entry at a time; 48, blocks of three
        # over 64 entries, the last one short; 1 KiB, the body in one block.
        rng = np.random.default_rng(seed)
        pairs = [(t, sparse_body(rng, (2, 1, 1, 2, 2, 1))) for t in ws]
        want = mix_reference(pairs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(supermap, "HUGE_PAGE_BYTES", line)
            got = mix(pairs).body.choi
        assert got.tobytes() == want.tobytes()

    def test_mixing_two_ququart_orders_scans_a_block_at_a_time(self):
        # Each body is 268 MB on the zero page, and so is the sum; a mask
        # over a whole body took 16 MiB, one over a 4 MiB block of entries
        # takes 256 KiB.
        ab, ba = fixed_order_a_then_b(4, 4, 4, 4), fixed_order_b_then_a(4, 4, 4, 4)
        with traced() as t:
            w = mix([(0.25, ab), (0.75, ba)])
        assert t.peak < 2 << 20
        assert is_soc2(w).holds

    @pytest.mark.parametrize("pairs", [
        lambda ab4, ab3: [(0.5, ab4), (0.5, ab3)],
        lambda ab4, ab3: [(1.0, ab4), (float("nan"), ab4)],
    ], ids=["mismatched", "non-finite"])
    def test_mix_checks_every_pair_before_allocating(self, pairs):
        # At d = 4 the sum would take 268 MB.
        bad = pairs(fixed_order_a_then_b(4, 4, 4, 4), fixed_order_a_then_b(3, 3, 3, 3))
        with allocates_nothing(), pytest.raises((DimensionError, WireMismatchError)):
            mix(bad)

    @pytest.mark.parametrize("pairs", [
        lambda ab: [(1e308, ab), (1e308, ab)],
        lambda ab: [(1e308, mix([(2.0, ab)]))],
    ], ids=["sum", "product"])
    def test_a_mixture_past_the_float_range_is_refused(self, pairs):
        # Finite weights whose sum, or one weighted term, leaves the float
        # range: no body holding inf is made, and numpy's overflow warning
        # (an error under this suite) is not raised either.
        with pytest.raises(DimensionError, match="not finite"):
            mix(pairs(fixed_order_a_then_b(2, 2, 2, 2)))

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_mixtures_act_as_mixtures(self, seed):
        rng = np.random.default_rng(seed)
        w1 = fixed_order_a_then_b(2, 2, 2, 2)
        w2 = fixed_order_b_then_a(2, 2, 2, 2)
        m = mix([(0.25, w1), (0.75, w2)])
        pa, pb = (random_process(rng, Q, Q) for _ in range(2))
        lhs = insert(m, pa, pb).process.choi
        rhs = 0.25 * insert(w1, pa, pb).process.choi + 0.75 * insert(w2, pa, pb).process.choi
        assert np.allclose(lhs, rhs)

    def test_mix_validates_types(self):
        with pytest.raises(WireMismatchError):
            mix([(0.5, fixed_order_a_then_b(2, 2, 2, 2)), (0.5, fixed_order_a_then_b(2, 3, 3, 2))])
        with pytest.raises(DimensionError):
            mix([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_mix_rejects_a_non_finite_weight_before_mixing(self, bad):
        # The bad weight is named before any body is summed, so even a
        # later mismatched slot type is not reached.
        ab, wrong = fixed_order_a_then_b(2, 2, 2, 2), fixed_order_a_then_b(2, 3, 3, 2)
        with pytest.raises(DimensionError, match=f"weights must be finite numbers, got {bad!r}"):
            mix([(1.0, ab), (bad, ab), (0.0, wrong)])

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_dressing_pre_and_post_composes_in_the_slots(self, seed):
        rng = np.random.default_rng(seed)
        w = fixed_order_a_then_b(2, 3, 3, 2)
        pre_a = random_process(rng, System((2,)), System((4,)))
        post_a = random_process(rng, System((2,)), System((3,)))
        pre_b = random_process(rng, System((3,)), System((2,)))
        post_b = random_process(rng, System((5,)), System((2,)))
        dressed = dress_slots(w, pre_a, post_a, pre_b, post_b)
        assert (dressed.a_in, dressed.a_out) == (4, 2)
        assert (dressed.b_in, dressed.b_out) == (2, 5)
        phi_a = random_process(rng, System((4,)), System((2,)))
        phi_b = random_process(rng, System((2,)), System((5,)))
        got = insert(dressed, phi_a, phi_b).process
        want = insert(
            w,
            compose_seq(compose_seq(pre_a, phi_a), post_a),
            compose_seq(compose_seq(pre_b, phi_b), post_b),
        ).process
        assert processes_close(got, want, 1e-9)

    def test_merged_slot_view_typing(self):
        w = fixed_order_a_then_b(2, 3, 3, 4)
        p = merged_slot_process(w)
        assert p.in_sys.dims == (2, 3, 3, 4)
        assert p.out_sys.dims == (2, 4)


class TestWireFormat:
    def test_repr_names_the_slots(self):
        w = fixed_order_a_then_b(2, 3, 3, 2)
        assert repr(w) == "BipartiteSupermap(a=2->3, b=3->2, c=2->2)"

    def test_round_trip(self):
        w = fixed_order_a_then_b(2, 3, 3, 2)
        back = supermap_from_dict(supermap_to_dict(w))
        assert processes_close(back.body, w.body, 1e-12)

    def test_from_process_flattens_slots(self):
        w = fixed_order_a_then_b(2, 2, 2, 2)
        flat = Process(System((4, 4)), System((2, 2)), w.body.choi)
        again = supermap_from_process(flat, (2, 2), (2, 2))
        assert processes_close(again.body, w.body, 0.0)

    def test_from_process_needs_two_outputs(self):
        w = fixed_order_a_then_b(2, 2, 2, 2)
        one_output = Process(System((4, 4)), System((4,)), w.body.choi)
        with pytest.raises(DimensionError, match="^supermap body needs exactly two output factors, got 1$"):
            supermap_from_process(one_output, (2, 2), (2, 2))

    def test_bad_records_raise(self):
        w = fixed_order_a_then_b(2, 2, 2, 2)
        d = supermap_to_dict(w)
        with pytest.raises(DimensionError):
            supermap_from_dict({"process": d["process"]})
        bad = {"process": d["process"], "slots": {"a": [2, 2], "b": [2]}}
        with pytest.raises(DimensionError):
            supermap_from_dict(bad)
        mismatched = {"process": d["process"], "slots": {"a": [4, 1], "b": [2, 2]}}
        with pytest.raises(DimensionError):
            supermap_from_dict(mismatched)

    def test_body_shape_is_validated(self):
        with pytest.raises(DimensionError):
            BipartiteSupermap(identity_process(System((2, 2))))
