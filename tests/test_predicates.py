import os
import subprocess
import sys
import tracemalloc
from math import hypot, prod, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soclab
from soclab.errors import DimensionError, ReconstructionError
from soclab.extras import spoiled_supermap
from soclab.predicates import (
    CausalVerdict,
    _defect,
    causal_affine_basis,
    is_causal,
    is_nonsignalling,
    is_soc,
    is_soc2,
    is_soc2_oracle,
    is_soc_oracle,
    make_strongly_nonsignalling,
    probe_states,
    reconstruct_from_causal_states,
)
from soclab.process import (
    Process,
    _discard_outputs,
    _sides,
    apply_to_state,
    channel_from_kraus,
    compose_par,
    identity_process,
    processes_close,
    random_causal_channel,
    random_density,
    rewire,
    swap_process,
)
from soclab.supermap import (
    BipartiteSupermap,
    fixed_order_a_then_b,
    fixed_order_b_then_a,
    insert,
    insert_merged,
    insert_stacked,
    merged_slot_process,
    mix,
    supermap_from_process,
)
from soclab.tensor import DEFAULT_EPS, System, UNIT, hermitian_basis, is_psd, kron, partial_trace, permute_subsystems

seeds = st.integers(0, 2**32 - 1)

Q = System((2,))


def random_hermitian_process(rng, in_sys, out_sys):
    side = in_sys.total * out_sys.total
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return Process(in_sys, out_sys, g + g.conj().T)


def classical_copy_channel():
    # Reads out the first qubit in the computational basis and overwrites
    # the second with the outcome; signals left-to-right only.
    kraus = []
    for i in range(2):
        for b in range(2):
            e_i = np.zeros((2, 2))
            e_i[i, i] = 1
            k = np.zeros((2, 2))
            k[i, b] = 1
            kraus.append(kron(e_i, k))
    return channel_from_kraus(kraus, System((2, 2)), System((2, 2)))


# The identity-embedding closed forms that the factor-defect ones replaced,
# kept verbatim as differential references.
def _embed_identity(small: np.ndarray, small_dims: tuple[int, ...], pos: int, d: int) -> np.ndarray:
    """Insert an identity factor of size ``d`` at position ``pos``."""
    raw = kron(np.eye(d, dtype=complex), small)
    n = len(small_dims) + 1
    perm = list(range(1, pos + 1)) + [0] + list(range(pos + 1, n))
    return permute_subsystems(raw, (d,) + tuple(small_dims), perm)


def is_nonsignalling_b_to_a_reference(f: Process, in_split: int = 1, out_split: int = 1, eps: float = DEFAULT_EPS) -> CausalVerdict:
    ai = prod(f.in_sys.dims[:in_split])
    bi = prod(f.in_sys.dims[in_split:])
    ao = prod(f.out_sys.dims[:out_split])
    bo = prod(f.out_sys.dims[out_split:])
    m = partial_trace(f.choi, (ai, bi, ao, bo), keep=(0, 1, 2))
    k = partial_trace(m, (ai, bi, ao), keep=(0, 2)) / bi
    residual = float(np.linalg.norm(m - _embed_identity(k, (ai, ao), 1, bi)))
    return CausalVerdict(residual <= eps, residual, None)


def is_nonsignalling_a_to_b_reference(f: Process, in_split: int = 1, out_split: int = 1, eps: float = DEFAULT_EPS) -> CausalVerdict:
    ai = prod(f.in_sys.dims[:in_split])
    bi = prod(f.in_sys.dims[in_split:])
    ao = prod(f.out_sys.dims[:out_split])
    bo = prod(f.out_sys.dims[out_split:])
    m = partial_trace(f.choi, (ai, bi, ao, bo), keep=(0, 1, 3))
    k = partial_trace(m, (ai, bi, bo), keep=(1, 2)) / ai
    residual = float(np.linalg.norm(m - _embed_identity(k, (bi, bo), 0, ai)))
    return CausalVerdict(residual <= eps, residual, None)


def is_soc_reference(w: Process, in_split: int = 1, out_split: int = 1, eps: float = DEFAULT_EPS) -> CausalVerdict:
    si = prod(w.in_sys.dims[:in_split])
    so = prod(w.in_sys.dims[in_split:])
    ci = prod(w.out_sys.dims[:out_split])
    co = prod(w.out_sys.dims[out_split:])
    m = partial_trace(w.choi, (si, so, ci, co), keep=(0, 1, 2))
    n = partial_trace(m, (si, so, ci), keep=(0, 2)) / so
    gap_slot = float(np.linalg.norm(m - _embed_identity(n, (si, ci), 1, so)))
    gap_norm = float(np.linalg.norm(partial_trace(n, (si, ci), keep=(1,)) - np.eye(ci)))
    residual = hypot(gap_slot, gap_norm)
    return CausalVerdict(residual <= eps, residual, None)


def is_soc2_reference(w: BipartiteSupermap, eps: float = DEFAULT_EPS) -> CausalVerdict:
    a1, a2, b1, b2 = w.a_in, w.a_out, w.b_in, w.b_out
    c1 = w.c_in
    m = partial_trace(w.body.choi, w.body.factor_dims, keep=(0, 1, 2, 3, 4))
    d5 = (a1, a2, b1, b2, c1)

    ma = partial_trace(m, d5, keep=(0, 1, 4)) / b2
    na = partial_trace(ma, (a1, a2, c1), keep=(0, 2)) / a2
    gap_a = float(np.linalg.norm(ma - _embed_identity(na, (a1, c1), 1, a2)))

    mb = partial_trace(m, d5, keep=(2, 3, 4)) / a2
    nb = partial_trace(mb, (b1, b2, c1), keep=(0, 2)) / b2
    gap_b = float(np.linalg.norm(mb - _embed_identity(nb, (b1, c1), 1, b2)))

    # The overall normalization gap is shared between the two sides, so it
    # is counted once (Tr over A1 of na equals Tr over B1 of nb identically).
    gap_norm = float(np.linalg.norm(partial_trace(na, (a1, c1), keep=(1,)) - np.eye(c1)))

    pa = _embed_identity(partial_trace(m, d5, keep=(0, 2, 3, 4)) / a2, (a1, b1, b2, c1), 1, a2)
    pb = _embed_identity(partial_trace(m, d5, keep=(0, 1, 2, 4)) / b2, (a1, a2, b1, c1), 3, b2)
    papb = _embed_identity(
        _embed_identity(partial_trace(m, d5, keep=(0, 2, 4)) / (a2 * b2), (a1, b1, c1), 2, b2),
        (a1, b1, b2, c1),
        1,
        a2,
    )
    gap_cross = float(np.linalg.norm(m - pa - pb + papb))

    residual = sqrt(gap_a**2 + gap_b**2 + gap_norm**2 + gap_cross**2)
    return CausalVerdict(residual <= eps, float(residual), None)


# The per-pair oracles that the stacked ones replaced, kept verbatim as
# differential references: one apply_to_state, or one insertion, per argument.
def is_soc_oracle_reference(w: Process, in_split: int = 1, out_split: int = 1, eps: float = DEFAULT_EPS) -> CausalVerdict:
    si, so, ci, co = _sides(w, in_split, out_split)
    points = causal_affine_basis(si, so)

    def witness(x):
        out = Process(System((ci,)), System((co,)), apply_to_state(w, x))
        return is_causal(out, eps).witness

    wit = np.array([witness(x) for x in points])
    # The base point's witness, then each direction's change from it.
    wit[1:] -= wit[:1]
    residual = float(np.linalg.norm(wit))
    return CausalVerdict(residual <= eps, residual, None)


def is_soc2_oracle_reference(w: BipartiteSupermap, eps: float = DEFAULT_EPS) -> CausalVerdict:
    procs_a = [Process(System((w.a_in,)), System((w.a_out,)), x) for x in causal_affine_basis(w.a_in, w.a_out)]
    procs_b = [Process(System((w.b_in,)), System((w.b_out,)), x) for x in causal_affine_basis(w.b_in, w.b_out)]
    wit = np.array([[insert(w, pa, pb).causal.witness for pb in procs_b] for pa in procs_a])
    # Successive differences leave the base pair's witness at [0, 0], each
    # hole's first-order changes along the edges, and the mixed second
    # differences inside.
    wit[1:] -= wit[:1]
    wit[:, 1:] -= wit[:, :1]
    residual = float(np.linalg.norm(wit))
    return CausalVerdict(residual <= eps, residual, None)


# The stacked oracles as they were before they discarded the channel output
# first: they fill the whole body and trace C2 out of every filling.  Kept
# verbatim as differential references.
def is_soc_oracle_fill_then_trace(w: Process, in_split: int = 1, out_split: int = 1, eps: float = DEFAULT_EPS) -> CausalVerdict:
    si, so, ci, co = _sides(w, in_split, out_split)
    outs = apply_to_state(w, causal_affine_basis(si, so))
    wit = partial_trace(outs, (ci, co), keep=(0,)) - np.eye(ci)
    # The base point's witness, then each direction's change from it.
    wit[1:] -= wit[:1]
    residual = float(np.linalg.norm(wit))
    return CausalVerdict(residual <= eps, residual, None)


def is_soc2_oracle_fill_then_trace(w: BipartiteSupermap, eps: float = DEFAULT_EPS) -> CausalVerdict:
    grid = insert_stacked(w, causal_affine_basis(w.a_in, w.a_out), causal_affine_basis(w.b_in, w.b_out))
    wit = partial_trace(grid, (w.c_in, w.c_out), keep=(0,)) - np.eye(w.c_in)
    # Successive differences leave the base pair's witness at [0, 0], each
    # hole's first-order changes along the edges, and the mixed second
    # differences inside.
    wit[1:] -= wit[:1]
    wit[:, 1:] -= wit[:, :1]
    residual = float(np.linalg.norm(wit))
    return CausalVerdict(residual <= eps, residual, None)


class TestStackedOraclesMatchPerPairReference:
    @given(seeds, st.sampled_from([(2, 3, 3, 2), (3, 2, 2, 4)]), st.sampled_from(["random", "a_then_b", "b_then_a"]), st.booleans())
    @settings(max_examples=5, deadline=None)
    def test_same_verdict_and_residual(self, seed, slots, kind, spoil):
        # A random complex body, or a fixed order (both slot shapes chain
        # A2 into B1 and B2 into A1 where the order needs it) with or
        # without a random complex bump that spoils it.
        rng = np.random.default_rng(seed)
        a1, a2, b1, b2 = slots
        if kind == "a_then_b" and a2 == b1:
            order = fixed_order_a_then_b(*slots)
        elif kind == "b_then_a" and b2 == a1:
            order = fixed_order_b_then_a(*slots)
        else:
            order = None
        if order is None:
            in_sys, out_sys, base, scale = System(slots), System((2, 2)), 0, 1.0
        else:
            in_sys, out_sys, base, scale = order.body.in_sys, order.body.out_sys, order.body.choi, 1e-2 * spoil
        side = in_sys.total * out_sys.total
        bump = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        w = BipartiteSupermap(Process(in_sys, out_sys, base + scale * bump))

        def same(got, want):
            assert got.holds is want.holds
            assert abs(got.residual - want.residual) <= 1e-12 * max(1.0, want.residual)

        same(is_soc2_oracle(w), is_soc2_oracle_reference(w))
        same(is_soc2_oracle(w), is_soc2_oracle_fill_then_trace(w))
        # The one-hole oracle on the merged slot A1 B1 -> A2 B2.
        merged = merged_slot_process(w)
        same(is_soc_oracle(merged, 2, 1), is_soc_oracle_reference(merged, 2, 1))
        same(is_soc_oracle(merged, 2, 1), is_soc_oracle_fill_then_trace(merged, 2, 1))

    @pytest.mark.parametrize("w", [fixed_order_a_then_b(3, 3, 3, 3), fixed_order_b_then_a(3, 3, 3, 3), spoiled_supermap(3)], ids=["a_then_b", "b_then_a", "spoiled"])
    def test_qutrit_oracle_agrees_with_the_closed_form(self, w):
        closed, oracle = is_soc2(w), is_soc2_oracle(w)
        assert oracle.holds is closed.holds
        assert abs(oracle.residual - closed.residual) <= 1e-9 * max(1.0, closed.residual)


class TestDefectMatchesEmbeddingReference:
    @given(
        seeds,
        st.sampled_from([(2, 3, 3, 2), (3, 2, 2, 4)]),
        st.sampled_from([(1, 1), (2, 1), (1, 3)]),
        st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_closed_form_matches(self, seed, slots, chan, causal):
        # A random complex body, or the A-then-B order (causality
        # preserving; both slot shapes chain A2 into B1) with a random
        # complex bump of size 1e-3.
        rng = np.random.default_rng(seed)
        in_sys, out_sys = System(slots), System(chan)
        base = 0
        if causal:
            order = fixed_order_a_then_b(*slots)
            in_sys, out_sys, base = order.body.in_sys, order.body.out_sys, order.body.choi
        side = in_sys.total * out_sys.total
        bump = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        body = Process(in_sys, out_sys, base + (1e-3 if causal else 1.0) * bump)

        def close(got, want):
            assert abs(got - want) <= 1e-12 * max(1.0, want)

        close(is_soc2(BipartiteSupermap(body)).residual, is_soc2_reference(BipartiteSupermap(body)).residual)
        for in_split in (1, 2, 3):
            for out_split in (0, 1, 2):
                parts = is_nonsignalling(body, in_split, out_split).parts
                close(parts["b_to_a"], is_nonsignalling_b_to_a_reference(body, in_split, out_split).residual)
                close(parts["a_to_b"], is_nonsignalling_a_to_b_reference(body, in_split, out_split).residual)
                close(is_soc(body, in_split, out_split).residual, is_soc_reference(body, in_split, out_split).residual)


def _defect_broadcast_reference(m: np.ndarray, dims: tuple[int, ...], k: int) -> np.ndarray:
    """The one-factor broadcast form that the in-place ``_defect`` replaced,
    kept verbatim: ``m - Tr_k(m)/d_k (x) I_k`` through full-size temporaries."""
    left, d, right = prod(dims[:k]), dims[k], prod(dims[k + 1 :])
    t = m.reshape(left, d, right, left, d, right)
    mean = np.trace(t, axis1=1, axis2=4)[:, None, :, :, None, :] / d
    return (t - mean * np.eye(d).reshape(d, 1, 1, d, 1)).reshape(m.shape)


class TestInPlaceDefect:
    @given(
        seeds,
        st.lists(st.integers(1, 4), min_size=1, max_size=4).flatmap(
            lambda dims: st.tuples(
                st.just(tuple(dims)),
                st.lists(st.integers(0, len(dims) - 1), min_size=1, max_size=2, unique=True),
            )
        ),
        st.sampled_from(["contiguous", "read_only", "strided"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_broadcast_form_once_per_factor(self, seed, dims_ks, layout):
        dims, ks = dims_ks
        side = prod(dims)
        rng = np.random.default_rng(seed)
        wide = rng.standard_normal((side, 2 * side)) + 1j * rng.standard_normal((side, 2 * side))
        m = wide[:, ::2] if layout == "strided" else wide[:, :side].copy()
        if layout == "read_only":
            # What ``_discard_outputs`` returns when nothing is dropped.
            m = _discard_outputs(Process(System(dims), UNIT, m), [])
            assert not m.flags.writeable
        before = m.copy()
        want = m
        for k in ks:
            want = _defect_broadcast_reference(want, dims, k)
        got = _defect(m, dims, *ks)
        # The same floating-point operations on every entry; off-diagonal
        # blocks may differ only in the sign of a zero, which compares equal.
        assert np.array_equal(got, want)
        assert np.array_equal(m, before)
        assert got.flags.writeable and not np.shares_memory(got, m)

    # The qutrit fixed order's discarded body is 243 x 243 (0.94 MB).  The
    # cross term copies it once; a projection (a ninth of it) and the
    # buffers of the in-place subtraction come on top.  The broadcast form
    # peaked at 3.11 times the marginal, and ``is_soc2`` with it at 4.11.
    W = fixed_order_a_then_b(3, 3, 3, 3)

    def test_cross_term_allocates_one_copy(self):
        m = _discard_outputs(self.W.body, [1])
        tracemalloc.start()
        try:
            _defect(m, (3,) * 5, 3, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * m.nbytes

    def test_two_hole_verdict_holds_its_marginal_and_one_copy(self):
        nbytes = _discard_outputs(self.W.body, [1]).nbytes
        tracemalloc.start()
        try:
            is_soc2(self.W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * nbytes


def _noisy_qutrit_order(seed: int) -> BipartiteSupermap:
    """The qutrit A-then-B order plus a seeded Hermitian bump of size 1e-3."""
    rng = np.random.default_rng(seed)
    body = fixed_order_a_then_b(3, 3, 3, 3).body
    side = body.choi.shape[0]
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return BipartiteSupermap(Process(body.in_sys, body.out_sys, body.choi + 1e-3 * (g + g.conj().T)))


class TestClosedFormBitPins:
    # float.hex of every residual and part, taken from the broadcast
    # ``_defect``: a reordering of the projector arithmetic changes a bit.
    # Seed 1 is one on which even applying the two cross-term projections
    # in the other order does.
    PINS = {
        "noisy_qutrit": {
            "soc2": ("0x1.8457c96ba98e7p-1", {"gap_a": "0x1.68eeb6c44703dp-4", "gap_b": "0x1.6c097c8bad725p-4", "gap_norm": "0x1.845dcf62290c2p-7", "gap_cross": "0x1.7ef8b8baef275p-1"}),
            "soc_merged": ("0x1.d6f334623ac44p+3", {"gap_slot": "0x1.d6f32a601d4b6p+3", "gap_norm": "0x1.845dcf62290c3p-7"}),
            "nonsignalling": ("0x1.d9937f8a58d9dp-1", {"b_to_a": "0x1.ea106946fbb34p-2", "a_to_b": "0x1.9541ee646deedp-1"}),
        },
        "spoiled": {
            "soc2": ("0x1.0000000000000p+0", {"gap_a": "0x0.0p+0", "gap_b": "0x0.0p+0", "gap_norm": "0x1.0000000000000p+0", "gap_cross": "0x0.0p+0"}),
            "soc_merged": ("0x1.4000000000000p+2", {"gap_slot": "0x1.3988e1409212ep+2", "gap_norm": "0x1.0000000000000p+0"}),
            "nonsignalling": ("0x1.6a09e667f3bcdp-1", {"b_to_a": "0x0.0p+0", "a_to_b": "0x1.6a09e667f3bcdp-1"}),
        },
    }

    @pytest.mark.parametrize("name, make", [("noisy_qutrit", lambda: _noisy_qutrit_order(1)), ("spoiled", lambda: spoiled_supermap(2))])
    def test_residuals_and_parts_are_bit_identical(self, name, make):
        assert closed_form_hex(make()) == self.PINS[name]

    # Run in a child process: the noisy qutrit's verdicts and a seeded
    # theorem1 run, the two outputs whose pins a thread count could move.
    SCRIPT = (
        "import sys\n"
        "from soclab.cli import main\n"
        "from test_predicates import _noisy_qutrit_order, closed_form_hex\n"
        "print(closed_form_hex(_noisy_qutrit_order(1)))\n"
        "main(['verify', 'theorem1', sys.argv[1], '--trials', '3', '--seed', '1', '--dims', '2'])\n"
    )

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        tests = Path(__file__).parent
        path = os.pathsep.join([str(Path(soclab.__file__).parent.parent), str(tests)])
        runs = []
        for n in ("1", "2"):
            threads = dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], n)
            env = {**os.environ, **threads, "PYTHONPATH": path}
            argv = [sys.executable, "-c", self.SCRIPT, str(tests / "golden" / "fixed_order_a_then_b.json")]
            runs.append(subprocess.run(argv, capture_output=True, text=True, check=True, env=env).stdout)
        assert runs[0] == runs[1] and "summary" in runs[0]


def closed_form_hex(w: BipartiteSupermap) -> dict:
    """``float.hex`` of the residual and parts of three closed-form verdicts on ``w``."""
    verdicts = {
        "soc2": is_soc2(w),
        "soc_merged": is_soc(merged_slot_process(w), 2, 1),
        "nonsignalling": is_nonsignalling(flip(w), 1, 1),
    }
    return {k: (v.residual.hex(), {n: g.hex() for n, g in v.parts.items()}) for k, v in verdicts.items()}


class TestIsCausal:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_random_channels_are_causal(self, seed):
        ch = random_causal_channel(System((2, 2)), System((3,)), seed=seed)
        v = is_causal(ch)
        assert v.holds and v.residual < 1e-10

    def test_scaled_channel_fails_with_exact_residual(self):
        ch = random_causal_channel(Q, Q, seed=0)
        v = is_causal(Process(Q, Q, 1.1 * ch.choi))
        assert not v.holds
        assert np.isclose(v.residual, 0.1 * np.sqrt(2))

    def test_states_are_causal_iff_normalized(self):
        assert is_causal(Process(UNIT, Q, np.diag([0.5, 0.5]))).holds
        assert not is_causal(Process(UNIT, Q, np.diag([0.5, 0.6]))).holds

    def test_verdict_is_truthy(self):
        assert bool(is_causal(identity_process(Q)))


def signals(f: Process) -> dict[str, bool]:
    """Which directions of ``f`` signal, read from ``is_nonsignalling``'s parts."""
    return {k: gap > DEFAULT_EPS for k, gap in is_nonsignalling(f).parts.items()}


class TestNonSignalling:
    def test_product_channels_do_not_signal(self):
        f = compose_par(random_causal_channel(Q, Q, seed=1), random_causal_channel(Q, System((3,)), seed=2))
        assert signals(f) == {"b_to_a": False, "a_to_b": False}
        assert is_nonsignalling(f).holds

    def test_swap_signals_both_ways(self):
        f = swap_process(Q, Q)
        assert signals(f) == {"b_to_a": True, "a_to_b": True}
        assert not is_nonsignalling(f).holds

    def test_classical_copy_signals_one_way_only(self):
        f = classical_copy_channel()
        assert signals(f) == {"b_to_a": False, "a_to_b": True}
        assert not is_nonsignalling(f).holds

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_shared_state_channels_do_not_signal(self, seed):
        rng = np.random.default_rng(seed)
        psi_a = random_causal_channel(System((2, 2)), Q, seed=rng)
        psi_b = random_causal_channel(System((2, 2)), Q, seed=rng)
        shared = Process(UNIT, System((2, 2)), random_density(System((2, 2)), seed=rng))
        f = make_strongly_nonsignalling(psi_a, psi_b, shared)
        assert f.in_sys.dims == (2, 2) and f.out_sys.dims == (2, 2)
        assert is_causal(f).holds
        assert is_nonsignalling(f).residual < 1e-10

    @pytest.mark.parametrize(
        "check,split",
        [
            (is_nonsignalling, (5, 1)),
            (is_nonsignalling, (1, 3)),
            (is_nonsignalling, (-1, 1)),
            (is_soc, (-1, 1)),
            (is_soc, (1, -1)),
            (is_soc_oracle, (3, 1)),
        ],
    )
    def test_out_of_range_splits_are_rejected(self, check, split):
        # Two inputs and two outputs: a split is in range from 0 to 2 on
        # each side; -1 must not read as "all but the last factor".
        f = compose_par(random_causal_channel(Q, Q, seed=1), random_causal_channel(Q, Q, seed=2))
        with pytest.raises(DimensionError, match="out of range"):
            check(f, *split)

    def test_memory_shape_is_validated(self):
        psi_a = random_causal_channel(System((2, 2)), Q, seed=0)
        psi_b = random_causal_channel(System((2, 2)), Q, seed=1)
        shared = Process(UNIT, System((2, 3)), random_density(System((2, 3)), seed=2))
        with pytest.raises(DimensionError):
            make_strongly_nonsignalling(psi_a, psi_b, shared)

    def test_the_shared_part_must_be_a_state(self):
        psi_a = random_causal_channel(System((2, 2)), Q, seed=0)
        psi_b = random_causal_channel(System((2, 2)), Q, seed=1)
        not_a_state = identity_process(System((2, 2)))
        with pytest.raises(DimensionError, match=r"^the shared resource must be a state \(no inputs\)$"):
            make_strongly_nonsignalling(psi_a, psi_b, not_a_state)


def causal_affine_basis_by_kron(d_in: int, d_out: int) -> np.ndarray:
    """The basis as it was built before it was written in place: one kron
    per direction, stacked, kept verbatim as a reference."""
    base = np.eye(d_in * d_out, dtype=complex) / d_out
    dirs = [np.kron(g, h) for g in hermitian_basis(d_in) for h in hermitian_basis(d_out)[1:]]
    return base + np.stack([np.zeros_like(base), *dirs])


class TestCausalAffineBasis:
    @pytest.mark.parametrize("d_in,d_out", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (4, 3)])
    def test_equals_the_kron_construction(self, d_in, d_out):
        assert np.array_equal(causal_affine_basis(d_in, d_out), causal_affine_basis_by_kron(d_in, d_out))

    @pytest.mark.parametrize("d_in,d_out", [(2, 2), (2, 3), (3, 2)])
    def test_chart_stays_trace_preserving(self, d_in, d_out):
        points = causal_affine_basis(d_in, d_out)
        assert points.shape == (d_in**2 * (d_out**2 - 1) + 1, d_in * d_out, d_in * d_out)
        assert not points.flags.writeable
        for x in points[:: max(1, len(points) // 7)]:
            assert is_causal(Process(System((d_in,)), System((d_out,)), x)).holds

    def test_a_basis_too_large_to_hold_raises_before_allocating(self):
        # 65 281 points of side 256 would take 68 GB.  The one-hole oracle
        # on a 16 x 16 slot asks for that basis before it traces its body
        # (16 MB, whose traced marginal alone would take 4 MB).
        body = Process(System((16, 16)), System((2, 2)), np.zeros((1024, 1024)))
        tracemalloc.start()
        try:
            for ask in (lambda: causal_affine_basis(16, 16), lambda: is_soc_oracle(body)):
                with pytest.raises(DimensionError, match="exceeds limit"):
                    ask()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_the_cache_keeps_at_most_four_bases(self):
        # A two-hole verdict needs two bases; a large one must not stay
        # alive for the life of the process.
        causal_affine_basis.cache_clear()
        try:
            assert causal_affine_basis.cache_info().maxsize <= 4
            for key in [(1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2)]:
                causal_affine_basis(*key)
                assert causal_affine_basis.cache_info().currsize <= 4
            w = fixed_order_a_then_b(2, 3, 3, 2)
            is_soc2_oracle(w)
            before = causal_affine_basis.cache_info()
            is_soc2_oracle(w)
            after = causal_affine_basis.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
        finally:
            causal_affine_basis.cache_clear()

    def test_base_point_is_total_depolarization(self):
        points = causal_affine_basis(2, 2)
        rho = random_density(Q, seed=3)
        out = apply_to_state(Process(Q, Q, points[0]), rho)
        assert np.allclose(out, np.eye(2) / 2)


class TestOneHolePreservation:
    def test_discard_and_reprepare_preserves_causality(self):
        rho = random_density(Q, seed=4)
        sigma = random_causal_channel(Q, Q, seed=5)
        body = Process(System((2, 2)), System((2, 2)), kron(rho, np.eye(2), sigma.choi))
        for check in (is_soc, is_soc_oracle):
            v = check(body)
            assert v.holds and v.residual < 1e-9

    def test_loop_through_a_pair_of_cups_is_not_preserving(self):
        # Body that feeds the hole a half of a maximally correlated pair and
        # reads the other half back: the identity filling then outputs four
        # copies' worth of weight instead of one.
        sigma = random_causal_channel(Q, Q, seed=6)
        v = np.eye(2, dtype=complex).ravel()
        body = Process(System((2, 2)), System((2, 2)), kron(np.outer(v, v), sigma.choi))
        closed = is_soc(body)
        sweep = is_soc_oracle(body)
        assert not closed.holds and not sweep.holds
        assert abs(closed.residual - sweep.residual) < 1e-8
        out = apply_to_state(body, np.outer(v, v))
        verdict = is_causal(Process(Q, Q, out))
        assert np.isclose(verdict.residual, 3 * np.sqrt(2))

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_closed_form_matches_argument_sweep(self, seed):
        rng = np.random.default_rng(seed)
        body = random_hermitian_process(rng, System((2, 2)), System((2, 2)))
        closed = is_soc(body)
        sweep = is_soc_oracle(body)
        assert abs(closed.residual - sweep.residual) < 1e-8

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_closed_form_matches_sweep_on_non_hermitian_bodies(self, seed):
        rng = np.random.default_rng(seed)
        side = 16
        m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        body = Process(System((2, 2)), System((2, 2)), m)
        assert abs(is_soc(body).residual - is_soc_oracle(body).residual) < 1e-8

    def test_split_flattening(self):
        # Multi-factor wires are grouped by the split counts.
        rho = random_density(System((2, 2)), seed=7)
        sigma = random_causal_channel(Q, Q, seed=8)
        body = Process(System((2, 2, 2)), System((2, 2)), kron(rho, np.eye(2), sigma.choi))
        v = is_soc(body, in_split=2, out_split=1)
        assert v.holds


class TestTwoHolePreservation:
    @pytest.mark.parametrize(
        "w",
        [
            fixed_order_a_then_b(2, 2, 2, 2),
            fixed_order_b_then_a(2, 2, 2, 2),
            mix([(0.5, fixed_order_a_then_b(2, 2, 2, 2)), (0.5, fixed_order_b_then_a(2, 2, 2, 2))]),
            mix([(1.5, fixed_order_a_then_b(2, 2, 2, 2)), (-0.5, fixed_order_b_then_a(2, 2, 2, 2))]),
        ],
    )
    def test_fixed_orders_and_their_mixtures_hold(self, w):
        closed = is_soc2(w)
        sweep = is_soc2_oracle(w)
        assert closed.holds and sweep.holds
        assert closed.residual < 1e-9 and sweep.residual < 1e-9

    def test_heterogeneous_dims_hold(self):
        w = fixed_order_a_then_b(2, 3, 3, 2)
        assert is_soc2(w).holds
        assert is_soc2_oracle(w).holds

    def test_corrupted_body_fails_with_unit_residual(self):
        bad = spoiled_supermap()
        closed = is_soc2(bad)
        sweep = is_soc2_oracle(bad)
        assert not closed.holds and not sweep.holds
        assert abs(closed.residual - sweep.residual) < 1e-8
        assert closed.residual >= 1.0 - 1e-9
        # Every causal filling of the spoiled wiring misses causality by the
        # same margin.
        pa = random_causal_channel(Q, Q, seed=9)
        pb = random_causal_channel(Q, Q, seed=10)
        res = insert(bad, pa, pb)
        assert not res.causal.holds
        assert np.isclose(res.causal.residual, 1.0)

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_closed_form_matches_insertion_sweep(self, seed):
        rng = np.random.default_rng(seed)
        side = 64
        m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        m = m + m.conj().T
        w = supermap_from_process(Process(System((4, 4)), System((2, 2)), m), (2, 2), (2, 2))
        closed = is_soc2(w)
        sweep = is_soc2_oracle(w)
        assert abs(closed.residual - sweep.residual) < 1e-8

    def test_merged_hole_of_a_fixed_order_is_not_one_hole_preserving(self):
        # Jointly correlated fillings (the swap) can close a loop, so the
        # merged single-hole view must fail even though the two-hole check
        # holds.
        w = fixed_order_a_then_b(2, 2, 2, 2)
        assert is_soc2(w).holds
        merged = merged_slot_process(w)
        v = is_soc(merged, in_split=2, out_split=1)
        assert not v.holds
        assert v.residual > 0.5

    def test_swap_loop_insertion_is_caught(self):
        w = fixed_order_a_then_b(2, 2, 2, 2)
        res = insert_merged(w, swap_process(Q, Q))
        assert not res.causal.holds
        assert res.causal.residual >= 0.5


class TestNamedParts:
    @given(seeds, st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_parts_make_up_the_residual(self, seed, causal):
        rng = np.random.default_rng(seed)
        order = fixed_order_a_then_b(2, 3, 3, 2)
        side = order.body.choi.shape[0]
        bump = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        body = Process(order.body.in_sys, order.body.out_sys, order.body.choi + (1e-3 if causal else 1.0) * bump)
        verdicts = {
            ("gap_a", "gap_b", "gap_norm", "gap_cross"): is_soc2(BipartiteSupermap(body)),
            ("gap_slot", "gap_norm"): is_soc(body, 2, 1),
            ("b_to_a", "a_to_b"): is_nonsignalling(body, 2, 1),
        }
        for names, v in verdicts.items():
            assert tuple(v.parts) == names
            assert abs(sqrt(sum(g * g for g in v.parts.values())) - v.residual) <= 1e-12 * max(1.0, v.residual)

    def test_a_spoiled_supermap_names_the_broken_constraint(self):
        v = is_soc2(spoiled_supermap())
        assert not v.holds
        assert any(g > 0.5 for g in v.parts.values())
        assert is_soc2(fixed_order_a_then_b(2, 2, 2, 2)).parts == dict.fromkeys(v.parts, 0.0)


def flip(w):
    """The body read as a channel from [C1, A2, B2] to [A1, B1, C2]."""
    return rewire(w.body, [4, 1, 3], [0, 2, 5])


class TestMarginalsReadInPlace:
    # A qutrit fixed order has a 729 x 729 body (8.5 MB).  Its rewired views
    # are decided from the body's own memory, so no call may allocate even
    # half of that.
    W = fixed_order_a_then_b(3, 3, 3, 3)

    @pytest.mark.parametrize(
        "view, decide",
        [(flip, is_causal), (flip, is_nonsignalling), (merged_slot_process, lambda p: is_soc(p, 2, 1))],
        ids=["causal", "nonsignalling", "soc_merged"],
    )
    def test_peak_allocation_stays_below_half_the_body(self, view, decide):
        tracemalloc.start()
        try:
            got = decide(view(self.W))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.W.body.choi.nbytes / 2
        # The same verdict as on a contiguous copy of the rewired body.
        v = view(self.W)
        want = decide(Process(v.in_sys, v.out_sys, v.choi))
        assert got.holds is want.holds and abs(got.residual - want.residual) <= 1e-12 * max(1.0, want.residual)

    @pytest.mark.parametrize(
        "oracle, closed, slot",
        [
            (is_soc2_oracle, is_soc2, (3, 3)),
            (lambda w: is_soc_oracle(merged_slot_process(w), 2, 1), lambda w: is_soc(merged_slot_process(w), 2, 1), (9, 9)),
        ],
        ids=["soc2_oracle", "soc_oracle_merged"],
    )
    def test_oracles_fill_the_discarded_body_within_half_of_it(self, oracle, closed, slot):
        # Both oracles trace the channel output out of the body before they
        # fill it, so their fillings are 9 times smaller than the body's.  A
        # fresh supermap, so that the window pays for that trace; the basis
        # (the merged slot's is 680 MB) is built before it.
        w = fixed_order_a_then_b(3, 3, 3, 3)
        causal_affine_basis(*slot)
        tracemalloc.start()
        try:
            got = oracle(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            causal_affine_basis.cache_clear()
        assert peak < w.body.choi.nbytes / 2
        want = closed(w)
        assert got.holds is want.holds and abs(got.residual - want.residual) <= 1e-9 * max(1.0, want.residual)


def _huge_pages_always() -> bool:
    """Whether the kernel backs every anonymous mapping with huge pages."""
    try:
        return "[always]" in Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text()
    except OSError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status to read VmRSS")
@pytest.mark.skipif(_huge_pages_always(), reason="with huge pages always on, a private mapping takes them too")
class TestWiringBodiesStayUnbacked:
    # A ququart fixed order has a 4096 x 4096 body (268 MB) holding 4096
    # ones.  Its zeros must take no memory, neither when it is built nor
    # when the closed-form verdicts read it.  In a child process, so that
    # what earlier tests left in the allocator cannot move VmRSS.
    SCRIPT = (
        "from soclab.predicates import is_nonsignalling, is_soc, is_soc2\n"
        "from soclab.supermap import fixed_order_a_then_b, merged_slot_process\n"
        "from test_predicates import flip\n"
        "def rss():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith('VmRSS:'))\n"
        "before = rss()\n"
        "w = fixed_order_a_then_b(4, 4, 4, 4)\n"
        "built = rss()\n"
        "verdicts = is_soc2(w), is_nonsignalling(flip(w), 1, 1), is_soc(merged_slot_process(w), 2, 1)\n"
        "print(built - before, rss() - built, *(v.holds for v in verdicts))\n"
    )

    def test_building_and_deciding_a_ququart_order_back_few_pages(self):
        tests = Path(__file__).parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(soclab.__file__).parent.parent), str(tests)])}
        out = subprocess.run([sys.executable, "-c", self.SCRIPT], capture_output=True, text=True, check=True, env=env).stdout
        built, decided, *holds = out.split()
        assert holds == ["True", "True", "False"]
        assert int(built) < 16 << 20
        assert int(decided) < 32 << 20


class TestReconstruction:
    def test_probe_states_are_causal_and_complete(self):
        states = probe_states(3)
        assert len(states) == 9
        for s in states:
            assert is_psd(s)
            assert np.isclose(np.trace(s), 1.0)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_default_probes_recover_random_channels(self, seed):
        ch = random_causal_channel(System((2, 2)), Q, seed=seed)
        got = reconstruct_from_causal_states(
            lambda rho: apply_to_state(ch, rho), System((2, 2)), Q
        )
        assert processes_close(got, Process(ch.in_sys, ch.out_sys, ch.choi), 1e-9)

    def test_explicit_probes_agree_with_the_default(self):
        ch = random_causal_channel(Q, System((3,)), seed=11)
        black_box = lambda rho: apply_to_state(ch, rho)
        direct = reconstruct_from_causal_states(black_box, Q, System((3,)))
        # An overcomplete family of random states, not the default probes.
        probes = [random_density(Q, seed=k) for k in range(6)]
        solved = reconstruct_from_causal_states(black_box, Q, System((3,)), probes=probes)
        assert processes_close(direct, solved, 1e-9)
        assert processes_close(direct, ch, 1e-9)

    def test_deficient_probes_are_rejected(self):
        ch = random_causal_channel(Q, Q, seed=12)
        diag_only = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        with pytest.raises(ReconstructionError, match="probe family spans 2 of 4 dimensions"):
            reconstruct_from_causal_states(
                lambda rho: apply_to_state(ch, rho), Q, Q, probes=diag_only
            )

    def test_reconstruction_handles_non_cp_maps(self):
        p = Process(Q, Q, np.diag([1.0, -0.5, 0.25, 2.0]))
        got = reconstruct_from_causal_states(lambda rho: apply_to_state(p, rho), Q, Q)
        assert processes_close(got, p, 1e-9)
