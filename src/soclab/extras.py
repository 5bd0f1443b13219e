"""Two-slot supermaps beyond the plain fixed orders.

:func:`quantum_switch` coherently controls the slot order.  Its body is
rank one: a superposition of the two fixed-order wirings, entangled with a
control qubit that rides along both the global input and the global
output.  Filling the slots with unitary conjugations produces conjugation
by ``|0><0| (x) VU + |1><1| (x) UV``, which no single ordering reproduces,
yet every pair of causal fillings still yields a causal channel.  The body
is one ``process._wiring`` call, one branch per fixed order's wires.

:func:`spoiled_supermap` is a fixed order with a bump that breaks
causality, the negative control of the tests and the verification script.
"""

from __future__ import annotations

import numpy as np

from .process import Process, _wiring
from .supermap import _A_THEN_B, _B_THEN_A, BipartiteSupermap, fixed_order_a_then_b
from .tensor import System, _zeros


def quantum_switch(d: int = 2) -> BipartiteSupermap:
    """Both slots carry ``d``-dimensional wires; the global wires are a
    control qubit joined with the target, flattened to one factor of 2d.
    A body whose side ``4 d**6`` passes ``MAX_SIDE`` raises
    :class:`DimensionError` before anything is allocated."""
    # Control 0 runs A then B, control 1 B then A; the control rides from
    # C1 to C2 (factors 4 and 5) as the high digit, d.
    a_then_b = (*_A_THEN_B, (4, 5, 0))
    b_then_a = (*_B_THEN_A, (4, 5, d))
    return BipartiteSupermap(_wiring(System((d, d, d, d)), System((2 * d, 2 * d)), a_then_b, b_then_a))


def spoiled_supermap(d: int = 2) -> BipartiteSupermap:
    """The A-then-B order on wires of dimension ``d`` plus
    ``I (x) |0><0| (x) I / d**3`` on the body, with the projector on the
    ``C1`` factor: every causal filling misses causality by the same
    margin.  The order's nonzeros are copied into ``tensor._zeros`` and the
    bump is added on its diagonal entries alone, to the bits of the dense
    sum, so a large body takes memory only for the pages written."""
    good = fixed_order_a_then_b(d, d, d, d).body
    c = _zeros(good.choi.shape)
    t, flat = good.choi.reshape(-1), c.reshape(-1)
    idx = np.flatnonzero(t != 0)
    flat[idx] = t[idx]
    # The basis vectors of [A1 A2 B1 B2, C1, C2] whose C1 value is 0.
    diag = np.arange(d**6).reshape(d**4, d, d)[:, 0].reshape(-1)
    c[diag, diag] += 1 / d**3
    return BipartiteSupermap(Process._adopt(good.in_sys, good.out_sys, c))
