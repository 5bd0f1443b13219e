import os
import subprocess
import sys
from functools import reduce
from math import prod, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import soclab
from soclab.errors import DimensionError, ReconstructionError
from soclab.extras import quantum_switch, spoiled_supermap
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
    relabel,
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
from soclab.tensor import DEFAULT_EPS, System, UNIT, hermitian_basis, is_psd, kron

import naive
from probe import allocates_nothing, slicing_forced, traced

seeds = st.integers(0, 2**32 - 1)

Q = System((2,))


def random_hermitian_process(rng, in_sys, out_sys):
    g = naive.random_matrix(rng, in_sys.total * out_sys.total)
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
# kept as differential references on the naive layer.  A marginal that acts
# as the identity on a factor is its trace beside the discard of that
# factor, whose Choi matrix is the identity: ``naive.par(x, dims, I, (d, 1))``.
def _totals(f: Process, in_split: int, out_split: int) -> tuple[int, int, int, int]:
    """The side totals (A in, B in, A out, B out), computed here rather than
    by ``process._sides``, which the subjects use."""
    ins, outs = f.in_sys.dims, f.out_sys.dims
    return prod(ins[:in_split]), prod(ins[in_split:]), prod(outs[:out_split]), prod(outs[out_split:])


def nonsignalling_parts_reference(f: Process, in_split: int = 1, out_split: int = 1) -> dict[str, float]:
    ai, bi, ao, bo = _totals(f, in_split, out_split)
    mb = naive.ptrace(f.choi, (ai, bi, ao, bo), (0, 1, 2))
    kb = naive.ptrace(mb, (ai, bi, ao), (0, 2)) / bi
    ma = naive.ptrace(f.choi, (ai, bi, ao, bo), (0, 1, 3))
    ka = naive.ptrace(ma, (ai, bi, bo), (1, 2)) / ai
    return {
        "b_to_a": float(np.linalg.norm(mb - naive.par(kb, (ai, ao), np.eye(bi), (bi, 1)))),
        "a_to_b": float(np.linalg.norm(ma - naive.par(np.eye(ai), (ai, 1), ka, (bi, bo)))),
    }


def soc2_residual_reference(body: np.ndarray, dims: tuple[int, ...]) -> float:
    """The closed form's residual for a body on ``dims = (A1, A2, B1, B2, C1,
    C2)``; one hole is two with a trivial B slot."""
    a1, a2, b1, b2, c1, _ = dims
    m = naive.ptrace(body, dims, range(5))
    d5 = (a1, a2, b1, b2, c1)

    ma = naive.ptrace(m, d5, (0, 1, 4)) / b2
    na = naive.ptrace(ma, (a1, a2, c1), (0, 2)) / a2
    gap_a = float(np.linalg.norm(ma - naive.par(na, (a1, c1), np.eye(a2), (a2, 1))))

    mb = naive.ptrace(m, d5, (2, 3, 4)) / a2
    nb = naive.ptrace(mb, (b1, b2, c1), (0, 2)) / b2
    gap_b = float(np.linalg.norm(mb - naive.par(nb, (b1, c1), np.eye(b2), (b2, 1))))

    # The overall normalization gap is shared between the two sides, so it
    # is counted once (Tr over A1 of na equals Tr over B1 of nb identically).
    gap_norm = float(np.linalg.norm(naive.ptrace(na, (a1, c1), (1,)) - np.eye(c1)))

    pa = naive.par(naive.ptrace(m, d5, (0, 2, 3, 4)) / a2, (a1, b1 * b2 * c1), np.eye(a2), (a2, 1))
    pb = naive.par(naive.ptrace(m, d5, (0, 1, 2, 4)) / b2, (a1 * a2 * b1, c1), np.eye(b2), (b2, 1))
    papb = naive.ptrace(m, d5, (0, 2, 4)) / (a2 * b2)
    papb = naive.par(naive.par(papb, (a1 * b1, c1), np.eye(b2), (b2, 1)), (a1, b1 * b2 * c1), np.eye(a2), (a2, 1))
    gap_cross = float(np.linalg.norm(m - pa - pb + papb))
    return sqrt(gap_a**2 + gap_b**2 + gap_norm**2 + gap_cross**2)


def soc2_oracle_reference(body: np.ndarray, dims: tuple[int, ...], eps: float = DEFAULT_EPS) -> CausalVerdict:
    """The oracle on the naive layer: both holes of a body on ``dims = (A1,
    A2, B1, B2, C1, C2)`` filled with every pair of ``naive.tp_basis``
    points, each filling's causality witness ``Tr_C2 - I``, and the norm of
    their successive differences."""
    a1, a2, b1, b2, c1, c2 = dims
    grid = naive.fill(body, dims, naive.tp_basis(a1, a2), naive.tp_basis(b1, b2))
    wit = naive.ptrace(grid, (c1, c2), (0,)) - np.eye(c1)
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
        bump = naive.random_matrix(rng, in_sys.total * out_sys.total)
        w = BipartiteSupermap(Process(in_sys, out_sys, base + scale * bump))

        def same(got, want):
            assert got.holds is want.holds
            assert abs(got.residual - want.residual) <= 1e-12 * max(1.0, want.residual)

        # The naive oracle on the body, and on the body with C2 discarded.
        # The one-hole oracle on the merged slot A1 B1 -> A2 B2 is the same
        # with a trivial B slot.
        merged = merged_slot_process(w)
        c1, c2 = w.c_in, w.c_out
        for got, body, dims in (
            (is_soc2_oracle(w), w.body.choi, (a1, a2, b1, b2, c1, c2)),
            (is_soc_oracle(merged, 2, 1), merged.choi, (a1 * b1, a2 * b2, 1, 1, c1, c2)),
        ):
            same(got, soc2_oracle_reference(body, dims))
            same(got, soc2_oracle_reference(naive.ptrace(body, dims, range(5)), dims[:5] + (1,)))

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
        bump = naive.random_matrix(rng, in_sys.total * out_sys.total)
        body = Process(in_sys, out_sys, base + (1e-3 if causal else 1.0) * bump)

        def close(got, want):
            assert abs(got - want) <= 1e-12 * max(1.0, want)

        close(is_soc2(BipartiteSupermap(body)).residual, soc2_residual_reference(body.choi, body.factor_dims))
        for in_split in (1, 2, 3):
            for out_split in (0, 1, 2):
                parts = is_nonsignalling(body, in_split, out_split).parts
                want = nonsignalling_parts_reference(body, in_split, out_split)
                close(parts["b_to_a"], want["b_to_a"])
                close(parts["a_to_b"], want["a_to_b"])
                si, so, ci, co = _totals(body, in_split, out_split)
                close(is_soc(body, in_split, out_split).residual, soc2_residual_reference(body.choi, (si, so, 1, 1, ci, co)))


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
        # A writable C-contiguous marginal is the caller's to give away: the
        # defect is written into it.  A read-only one (``p.choi``) or a
        # strided one is left as it is and copied once.
        dims, ks = dims_ks
        side = prod(dims)
        rng = np.random.default_rng(seed)
        wide = rng.standard_normal((side, 2 * side)) + 1j * rng.standard_normal((side, 2 * side))
        m = wide[:, ::2] if layout == "strided" else wide[:, :side].copy()
        if layout == "read_only":
            # What ``_discard_outputs`` returns when nothing is dropped.
            m = _discard_outputs(Process(System(dims), UNIT, m), [])
            assert not m.flags.writeable
        # Every view of a 1 x 1 matrix is contiguous.
        owned = layout == "contiguous" or (layout == "strided" and side == 1)
        assert owned is (m.flags.writeable and m.flags.c_contiguous)
        before = m.copy()
        want = before
        for k in ks:
            want = _defect_broadcast_reference(want, dims, k)
        got = _defect(m, dims, *ks)
        # The same floating-point operations on every entry; off-diagonal
        # blocks may differ only in the sign of a zero, which compares equal.
        assert np.array_equal(got, want)
        assert got.flags.writeable and got.flags.c_contiguous
        if owned:
            assert got is m
        else:
            assert np.array_equal(m, before) and not np.shares_memory(got, m)

    # The qutrit fixed order's discarded body is 243 x 243 (0.94 MB).  The
    # cross term is written into it; a projection (a ninth of it) and the
    # buffers of the in-place subtraction are all it allocates.  The
    # broadcast form peaked at 3.11 times the marginal, and ``is_soc2`` with
    # it at 4.11; with a copy of the marginal, at 1.3 and 2.3.
    W = fixed_order_a_then_b(3, 3, 3, 3)

    def test_cross_term_allocates_no_copy(self):
        m = _discard_outputs(self.W.body, [1])
        with traced() as t:
            _defect(m, (3,) * 5, 3, 1)
        assert t.peak <= 0.5 * m.nbytes

    def test_two_hole_verdict_holds_its_marginal(self):
        nbytes = _discard_outputs(self.W.body, [1]).nbytes
        with traced() as t:
            is_soc2(self.W)
        assert t.peak <= 1.5 * nbytes


class TestVerdictsHoldOneMarginal:
    # A ququart fixed order's largest marginal, the body with C2 or A1
    # discarded, is 1024 x 1024 (16 MiB).  Each d = 4 verdict writes it
    # once, and its defect into it.  ``is_soc2`` traces the body in its own
    # order, in one einsum; the two views are traced slice by slice, and a
    # slice's einsum output (a quarter of the marginal) comes on top.
    # Copying the views' marginals into C order and every marginal again
    # for the defect peaked at 2.0 to 2.1 times it.
    W = fixed_order_a_then_b(4, 4, 4, 4)
    MARGINAL = 1024 * 1024 * 16

    @pytest.mark.parametrize(
        "decide",
        [is_soc2, lambda w: is_nonsignalling(flip(w), 1, 1), lambda w: is_soc(merged_slot_process(w), 2, 1)],
        ids=["soc2", "nonsignalling", "soc_merged"],
    )
    def test_peak_stays_within_the_marginal_and_a_slice(self, decide):
        decide(self.W)  # plans and views, so that only the verdict is counted
        with traced() as t:
            decide(self.W)
        assert t.peak <= 1.3 * self.MARGINAL


def _noisy_qutrit_order(seed: int) -> BipartiteSupermap:
    """The qutrit A-then-B order plus a seeded Hermitian bump of size 1e-3."""
    rng = np.random.default_rng(seed)
    body = fixed_order_a_then_b(3, 3, 3, 3).body
    g = naive.random_matrix(rng, body.choi.shape[0])
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

    CASES = pytest.mark.parametrize("name, make", [("noisy_qutrit", lambda: _noisy_qutrit_order(1)), ("spoiled", lambda: spoiled_supermap(2))])

    @CASES
    def test_residuals_and_parts_are_bit_identical(self, name, make):
        assert closed_form_hex(make()) == self.PINS[name]

    @CASES
    def test_the_bits_hold_with_every_trace_sliced(self, name, make):
        # Neither body's marginals reach the line at which a trace is
        # written slice by slice; with the line at one byte, every trace
        # out of its input's memory order is.
        with slicing_forced():
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
        with allocates_nothing():
            for ask in (lambda: causal_affine_basis(16, 16), lambda: is_soc_oracle(body)):
                with pytest.raises(DimensionError, match="exceeds limit"):
                    ask()

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
        m = naive.random_matrix(rng, 16)
        body = Process(System((2, 2)), System((2, 2)), m)
        assert abs(is_soc(body).residual - is_soc_oracle(body).residual) < 1e-8

    @given(seeds, st.sampled_from([(2, 3), (3, 1, 2)]), st.sampled_from([(2, 3), (1, 2, 2)]))
    @settings(max_examples=8, deadline=None)
    def test_one_hole_is_two_holes_with_a_trivial_b_slot(self, seed, ins, outs):
        # The body read as a supermap with slots (si, so, 1, 1) and outputs
        # (ci, co), built here with relabel, at every split: unequal slots,
        # a trivial one, and all outputs on the channel input or none.
        body = random_hermitian_process(np.random.default_rng(seed), System(ins), System(outs))
        for in_split in range(len(ins) + 1):
            for out_split in range(len(outs) + 1):
                si, so, ci, co = _sides(body, in_split, out_split)
                w = BipartiteSupermap(relabel(body, (si, so, 1, 1), (ci, co)))
                one, two = is_soc(body, in_split, out_split).parts, is_soc2(w).parts
                assert (one["gap_slot"].hex(), one["gap_norm"].hex()) == (two["gap_a"].hex(), two["gap_norm"].hex())
                assert two["gap_b"].hex() == two["gap_cross"].hex() == "0x0.0p+0"
                want = is_soc2_oracle(w).residual
                assert abs(is_soc_oracle(body, in_split, out_split).residual - want) <= 1e-12 * max(1.0, want)

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
        m = naive.random_matrix(rng, 64)
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
        bump = naive.random_matrix(rng, order.body.choi.shape[0])
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


def swap_holes(w: BipartiteSupermap) -> BipartiteSupermap:
    """``w`` with its A and B slots exchanged, built by transposing the
    factor tensor [A1, A2, B1, B2, C1, C2] on rows and columns, not by the
    ``rewire`` that the verdicts share."""
    body = w.body
    rows = (2, 3, 0, 1, 4, 5)
    t = np.transpose(body.tensor, rows + tuple(6 + k for k in rows))
    return BipartiteSupermap(Process(System((w.b_in, w.b_out, w.a_in, w.a_out)), body.out_sys, t.reshape(body.choi.shape)))


def relabel_fixture(kind: str, slots: tuple[int, int, int, int], chan: tuple[int, int], rng) -> BipartiteSupermap | None:
    """A supermap of ``kind``: a random PSD body with ``slots`` and C dims
    ``chan``, a fixed order with ``slots`` (``None`` where its wires do not
    chain), or a qubit switch, spoiled supermap or mixture of both orders."""
    if kind == "random":
        side = prod(slots) * prod(chan)
        g = naive.random_matrix(rng, side)
        return BipartiteSupermap(Process(System(slots), System(chan), g @ g.conj().T / side))
    a1, a2, b1, b2 = slots
    if kind == "a_then_b":
        return fixed_order_a_then_b(*slots) if a2 == b1 else None
    if kind == "b_then_a":
        return fixed_order_b_then_a(*slots) if b2 == a1 else None
    if kind == "switch":
        return quantum_switch(2)
    if kind == "spoiled":
        return spoiled_supermap(2)
    return mix([(0.3, fixed_order_a_then_b(2, 2, 2, 2)), (0.7, fixed_order_b_then_a(2, 2, 2, 2))])


def bumped_fixture(seed: int, kind: str, slots, chan, bumped: bool):
    """A :func:`relabel_fixture` kept as it is or with a random complex bump
    of size 1e-2, so that its parts are not all zero, and the generator that
    drew it."""
    rng = np.random.default_rng(seed)
    w = relabel_fixture(kind, slots, chan, rng)
    assume(w is not None)
    if bumped and kind != "random":
        bump = naive.random_matrix(rng, w.body.choi.shape[0])
        w = BipartiteSupermap(Process(w.body.in_sys, w.body.out_sys, w.body.choi + 1e-2 * bump))
    return w, rng


FIXTURES = (
    seeds,
    st.sampled_from(["random", "a_then_b", "b_then_a", "switch", "spoiled", "mix"]),
    st.sampled_from([(2, 3, 3, 2), (3, 2, 2, 3), (1, 2, 3, 1), (2, 2, 2, 2)]),
    st.sampled_from([(2, 2), (3, 1), (2, 3)]),
)


def assert_close(got, want):
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestSymmetryRelations:
    # Relations fixed by the maths between the verdicts on two related
    # supermaps.  Both forms read the shared layer (discarding, partial
    # traces, link), so a bug there moves them together, where an agreement
    # test cannot see it; a relation can.  The related supermap is built
    # with numpy, not with the package's rewiring or dressing.
    @given(*FIXTURES, st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_swapping_the_holes_swaps_gap_a_and_gap_b_and_keeps_the_rest(self, seed, kind, slots, chan, bumped):
        w, _ = bumped_fixture(seed, kind, slots, chan, bumped)
        v = swap_holes(w)
        closed, swapped = is_soc2(w).parts, is_soc2(v).parts
        assert_close(swapped["gap_a"], closed["gap_b"])
        assert_close(swapped["gap_b"], closed["gap_a"])
        assert_close(swapped["gap_norm"], closed["gap_norm"])
        assert_close(swapped["gap_cross"], closed["gap_cross"])
        assert_close(is_soc2_oracle(v).residual, is_soc2_oracle(w).residual)

    @given(*FIXTURES)
    @settings(max_examples=10, deadline=None)
    def test_local_unitaries_on_the_slot_wires_keep_every_part_and_the_oracle(self, seed, kind, slots, chan):
        # U = u1 (x) u2 (x) u3 (x) u4 (x) I on [A1, A2, B1, B2, C1, C2], Haar
        # unitaries on the slot wires; U W U^dag fills as W does with each
        # argument conjugated by local unitaries, which maps the causal
        # channels' affine hull onto itself.
        w, rng = bumped_fixture(seed, kind, slots, chan, True)
        body = w.body
        u = reduce(np.kron, [naive.random_unitary(rng, d) for d in body.in_sys.dims] + [np.eye(body.out_sys.total)])
        v = BipartiteSupermap(Process(body.in_sys, body.out_sys, u @ body.choi @ u.conj().T))
        closed, dressed = is_soc2(w).parts, is_soc2(v).parts
        for name, gap in closed.items():
            assert_close(dressed[name], gap)
        assert_close(is_soc2_oracle(v).residual, is_soc2_oracle(w).residual)

    @given(seeds, st.tuples(*[st.integers(1, 3)] * 4))
    @settings(max_examples=20, deadline=None)
    def test_swapping_the_sides_swaps_b_to_a_and_a_to_b(self, seed, dims):
        # A random complex process on [A1, B1 | A2, B2], and the same with
        # its sides exchanged by transposing its factor tensor.
        f = Process(System(dims[:2]), System(dims[2:]), naive.random_matrix(np.random.default_rng(seed), prod(dims)))
        rows = (1, 0, 3, 2)
        t = np.transpose(f.tensor, rows + tuple(4 + k for k in rows))
        g = Process(System(dims[1::-1]), System(dims[:1:-1]), t.reshape(f.choi.shape))
        parts, swapped = is_nonsignalling(f).parts, is_nonsignalling(g).parts
        assert_close(swapped["b_to_a"], parts["a_to_b"])
        assert_close(swapped["a_to_b"], parts["b_to_a"])

    @given(seeds, FIXTURES[2], FIXTURES[3])
    @settings(max_examples=20, deadline=None)
    def test_the_oracles_grid_is_linear_in_the_body(self, seed, slots, chan):
        # The grid that is_soc2_oracle reads, of a B1 + b B2 with C2
        # discarded, is the same sum of the two bodies' grids.
        rng = np.random.default_rng(seed)
        b1, b2 = (naive.random_matrix(rng, prod(slots) * prod(chan)) for _ in range(2))
        a, b = rng.uniform(-2, 2, 2)
        qa, qb = causal_affine_basis(*slots[:2]), causal_affine_basis(*slots[2:])

        def grid(body):
            m = naive.ptrace(body, slots + chan, (0, 1, 2, 3, 4))
            return insert_stacked(BipartiteSupermap(Process(System(slots), System((chan[0], 1)), m)), qa, qb)

        want = a * grid(b1) + b * grid(b2)
        assert np.linalg.norm(grid(a * b1 + b * b2) - want) <= 1e-12 * np.linalg.norm(want)


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
        with traced() as t:
            got = decide(view(self.W))
        assert t.peak < self.W.body.choi.nbytes / 2
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
        try:
            with traced() as t:
                got = oracle(w)
        finally:
            causal_affine_basis.cache_clear()
        assert t.peak < w.body.choi.nbytes / 2
        want = closed(w)
        assert got.holds is want.holds and abs(got.residual - want.residual) <= 1e-9 * max(1.0, want.residual)


def _reversed_view(p: Process) -> Process:
    """``p`` as a strided view: a contiguous process on its factors in
    reverse order, rewired back."""
    n_in, n = p.n_in, len(p.factor_dims)
    back = rewire(p, range(n_in - 1, -1, -1), range(n - 1, n_in - 1, -1))
    rev = Process(back.in_sys, back.out_sys, back.choi)
    return rewire(rev, range(n_in - 1, -1, -1), range(n - 1, n_in - 1, -1))


class TestDimensionOneDiscards:
    # A discard of outputs of dimension 1 only, and the trace of a trivial
    # B slot, are reshapes: a read-only view of the frozen tensor where its
    # strides allow, which a defect copies before it writes.
    RNG = np.random.default_rng(17)
    ONE_HOLE = [
        (random_hermitian_process(RNG, System((2, 3)), System((2, 3))), 2),
        (random_hermitian_process(RNG, System((3, 2)), System((3, 1))), 1),
    ]
    TWO_HOLE = random_hermitian_process(RNG, System((2, 3, 3, 2)), System((2, 1)))

    @staticmethod
    def same(got, want):
        assert got.holds is want.holds and abs(got.residual - want.residual) <= 1e-12 * max(1.0, want.residual)
        for name, gap in want.parts.items():
            assert abs(got.parts[name] - gap) <= 1e-12 * max(1.0, gap)

    @pytest.mark.parametrize("rewired", [False, True], ids=["contiguous", "rewired"])
    @pytest.mark.parametrize("case", [0, 1], ids=["all_outputs_on_c1", "c2_of_dimension_1"])
    def test_a_one_hole_verdict_leaves_the_tensor_unwritten(self, case, rewired):
        body, out_split = self.ONE_HOLE[case]
        body = _reversed_view(body) if rewired else body
        assert body.tensor.flags.c_contiguous is not rewired
        before = body.tensor.tobytes()
        copy = Process(body.in_sys, body.out_sys, body.choi)
        for decide in (is_soc, is_soc_oracle, is_nonsignalling):
            self.same(decide(body, 1, out_split), decide(copy, 1, out_split))
        assert body.tensor.tobytes() == before

    @pytest.mark.parametrize("rewired", [False, True], ids=["contiguous", "rewired"])
    def test_a_two_hole_verdict_with_c2_of_dimension_1_leaves_the_tensor_unwritten(self, rewired):
        body = _reversed_view(self.TWO_HOLE) if rewired else self.TWO_HOLE
        before = body.tensor.tobytes()
        w, copy = BipartiteSupermap(body), BipartiteSupermap(Process(body.in_sys, body.out_sys, body.choi))
        assert np.shares_memory(w._discarded.body.tensor, body.tensor) is not rewired
        for decide in (is_soc2, is_soc2_oracle):
            self.same(decide(w), decide(copy))
        assert body.tensor.tobytes() == before


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
