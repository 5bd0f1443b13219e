import numpy as np
import pytest

from soclab.extras import quantum_switch, spoiled_supermap
from soclab.predicates import is_soc2, is_soc2_oracle
from soclab.process import (
    channel_from_kraus,
    processes_close,
    random_causal_channel,
)
from soclab.supermap import fixed_order_a_then_b, fixed_order_b_then_a, insert
from soclab.tensor import System

from naive import random_unitary


class TestQuantumSwitch:
    def test_preserves_causality(self):
        sw = quantum_switch(2)
        for check in (is_soc2, is_soc2_oracle):
            v = check(sw)
            assert v.holds and v.residual < 1e-9

    def test_causal_fillings_give_causal_channels(self):
        sw = quantum_switch(2)
        rng = np.random.default_rng(0)
        q = System((2,))
        for _ in range(3):
            pa = random_causal_channel(q, q, seed=rng)
            pb = random_causal_channel(q, q, seed=rng)
            assert insert(sw, pa, pb).causal.holds

    def test_unitary_fillings_control_the_order(self):
        rng = np.random.default_rng(1)
        d = 2
        sw = quantum_switch(d)
        q = System((d,))
        u = random_unitary(rng, d)
        v = random_unitary(rng, d)
        got = insert(sw, channel_from_kraus([u], q, q), channel_from_kraus([v], q, q)).process
        blocks = np.zeros((2 * d, 2 * d), dtype=complex)
        blocks[:d, :d] = v @ u
        blocks[d:, d:] = u @ v
        want = channel_from_kraus([blocks], System((2 * d,)), System((2 * d,)))
        assert processes_close(got, want, eps=1e-9)

    def test_control_coherence_survives(self):
        # a classical mixture of the two orders would leave the blocks with
        # different control values on the two sides empty
        rng = np.random.default_rng(3)
        d = 2
        sw = quantum_switch(d)
        q = System((d,))
        u = random_unitary(rng, d)
        v = random_unitary(rng, d)
        got = insert(sw, channel_from_kraus([u], q, q), channel_from_kraus([v], q, q)).process
        whole = got.choi.reshape(2, d, 2, d, 2, d, 2, d)
        cross = whole[0, :, 0, :, 1, :, 1, :]
        assert np.linalg.norm(cross) > 0.5

    def test_typing(self):
        sw = quantum_switch(2)
        assert sw.c_in == 4 and sw.c_out == 4
        assert sw.a_in == sw.a_out == sw.b_in == sw.b_out == 2

    def test_qutrit_target(self):
        sw = quantum_switch(3)
        v = is_soc2(sw)
        assert v.holds and v.residual < 1e-8

    def test_qutrit_oracle(self):
        # 73 x 73 basis pairs through one stacked insertion of a 2916-side
        # body; about 0.5 GB at peak.
        sw = quantum_switch(3)
        closed, oracle = is_soc2(sw), is_soc2_oracle(sw)
        assert oracle.holds and oracle.residual < 1e-8
        assert abs(oracle.residual - closed.residual) < 1e-9


class TestDecoheredControl:
    def test_measured_control_is_a_classical_mixture(self):
        # projecting the control on both sides collapses the switch to the
        # matching fixed order
        d = 2
        sw = quantum_switch(d)
        rng = np.random.default_rng(2)
        q = System((d,))
        pa = random_causal_channel(q, q, seed=rng)
        pb = random_causal_channel(q, q, seed=rng)
        whole = insert(sw, pa, pb).process.choi.reshape(2, d, 2, d, 2, d, 2, d)
        for c, order in ((0, fixed_order_a_then_b), (1, fixed_order_b_then_a)):
            block = whole[c, :, c, :, c, :, c, :].reshape(d * d, d * d)
            piece = insert(order(d, d, d, d), pa, pb).process.choi
            assert np.allclose(block, piece, atol=1e-9)


def spoiled_body_reference(d):
    """The dense construction that spoiled_supermap replaced, kept as a
    reference: the fixed order plus a kron of the C1 projector."""
    good = fixed_order_a_then_b(d, d, d, d)
    proj = np.zeros((d, d))
    proj[0, 0] = 1.0
    bump = np.kron(np.eye(d**4), np.kron(proj, np.eye(d))) / d**3
    return good.body.choi + bump


@pytest.mark.parametrize("d", [2, 3])
def test_spoiled_body_is_byte_identical_to_the_dense_construction(d):
    got, want = spoiled_supermap(d).body.choi, spoiled_body_reference(d)
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
