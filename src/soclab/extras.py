"""Two-slot supermaps beyond the plain fixed orders.

:func:`quantum_switch` coherently controls the slot order.  Its body is
rank one: a superposition of the two fixed-order wirings, entangled with a
control qubit that rides along both the global input and the global
output.  Filling the slots with unitary conjugations produces conjugation
by ``|0><0| (x) VU + |1><1| (x) UV``, which no single ordering reproduces,
yet every pair of causal fillings still yields a causal channel.  The body
is one ``process._wiring`` call, one branch per order.

:func:`spoiled_supermap` is a fixed order with a bump that breaks
causality, the negative control of the tests and the verification script.
"""

from __future__ import annotations

import numpy as np

from .process import Process, _wiring
from .supermap import BipartiteSupermap, fixed_order_a_then_b
from .tensor import System


def quantum_switch(d: int = 2) -> BipartiteSupermap:
    """Both slots carry ``d``-dimensional wires; the global wires are a
    control qubit joined with the target, flattened to one factor of 2d.
    A body whose side ``4 d**6`` passes ``MAX_SIDE`` raises
    :class:`DimensionError` before anything is allocated."""
    # Factors [A1, A2, B1, B2, C1, C2].  Control 0 runs A then B, control 1
    # B then A; the control rides from C1 to C2 as the high digit, d.
    a_then_b = [(4, 0), (1, 2), (3, 5), (4, 5, 0)]
    b_then_a = [(4, 2), (3, 0), (1, 5), (4, 5, d)]
    return BipartiteSupermap(_wiring(System((d, d, d, d)), System((2 * d, 2 * d)), a_then_b, b_then_a))


def spoiled_supermap(d: int = 2) -> BipartiteSupermap:
    """The A-then-B order on wires of dimension ``d`` plus
    ``I (x) |0><0| (x) I / d**3`` on the body, with the projector on the
    ``C1`` factor: every causal filling misses causality by the same
    margin."""
    good = fixed_order_a_then_b(d, d, d, d)
    proj = np.zeros((d, d))
    proj[0, 0] = 1.0
    bump = np.kron(np.eye(d**4), np.kron(proj, np.eye(d))) / d**3
    return BipartiteSupermap(Process(good.body.in_sys, good.body.out_sys, good.body.choi + bump))
