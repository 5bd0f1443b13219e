"""Two-hole supermaps on channels, stored as six-wire comb bodies.

A :class:`BipartiteSupermap` turns a pair of channels ``A1 -> A2`` and
``B1 -> B2`` into a channel ``C1 -> C2``.  Its body is a process with
input factors ``[A1, A2, B1, B2]`` (one factor per slot wire) and output
factors ``[C1, C2]``; filling the holes contracts the slot factors of the
body against the Choi matrices of the inserted channels.  Because the
body is an ordinary process, supermaps can be mixed, dressed, and probed
with non-CP arguments without any extra machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .errors import DimensionError, WireMismatchError
from .process import Process, _split_groups, process_from_dict, process_to_dict, relabel, rewire
from .tensor import DEFAULT_EPS, MAX_SIDE, System, as_stack, link


@dataclass(frozen=True, eq=False)
class BipartiteSupermap:
    body: Process

    def __post_init__(self):
        if self.body.n_in != 4 or len(self.body.out_sys) != 2:
            raise DimensionError(
                f"body must have four slot factors and two output factors, "
                f"got {self.body.n_in} in / {len(self.body.out_sys)} out"
            )

    @property
    def a_in(self) -> int:
        return self.body.in_sys[0]

    @property
    def a_out(self) -> int:
        return self.body.in_sys[1]

    @property
    def b_in(self) -> int:
        return self.body.in_sys[2]

    @property
    def b_out(self) -> int:
        return self.body.in_sys[3]

    @property
    def c_in(self) -> int:
        return self.body.out_sys[0]

    @property
    def c_out(self) -> int:
        return self.body.out_sys[1]

    def __repr__(self) -> str:
        return (
            f"BipartiteSupermap(a={self.a_in}->{self.a_out}, "
            f"b={self.b_in}->{self.b_out}, c={self.c_in}->{self.c_out})"
        )


@dataclass(eq=False)
class InsertionResult:
    """A filled supermap, with the causality check deferred until asked for."""

    process: Process
    eps: float = DEFAULT_EPS

    @cached_property
    def causal(self):
        from .predicates import is_causal

        return is_causal(self.process, eps=self.eps)


def supermap_from_process(p: Process, a_dims: tuple[int, int], b_dims: tuple[int, int]) -> BipartiteSupermap:
    """Read a process as a supermap body, flattening its slot factors."""
    if len(p.out_sys) != 2:
        raise DimensionError(f"supermap body needs exactly two output factors, got {len(p.out_sys)}")
    if p.in_sys.total != prod(a_dims) * prod(b_dims):
        raise DimensionError(
            f"input dimension {p.in_sys.total} does not match slots {a_dims} and {b_dims}"
        )
    return BipartiteSupermap(relabel(p, a_dims + b_dims, p.out_sys.dims))


def supermap_to_dict(w: BipartiteSupermap) -> dict:
    return {
        "process": process_to_dict(w.body),
        "slots": {"a": [w.a_in, w.a_out], "b": [w.b_in, w.b_out]},
    }


def supermap_from_dict(d: dict) -> BipartiteSupermap:
    try:
        p = process_from_dict(d["process"])
        a = tuple(int(x) for x in d["slots"]["a"])
        b = tuple(int(x) for x in d["slots"]["b"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionError(f"malformed supermap record: {exc}") from exc
    if len(a) != 2 or len(b) != 2:
        raise DimensionError(f"slot entries must be [in, out] pairs, got a={a} b={b}")
    if p.in_sys.dims != a + b:
        raise DimensionError(f"process inputs {p.in_sys.dims} do not match slots {a + b}")
    return BipartiteSupermap(p)


def _fit_holes(w: BipartiteSupermap, parts: tuple[int, ...], what: str) -> None:
    """Check the dimensions of what goes into the holes ``[A1, A2, B1, B2]``."""
    holes = [w.a_in, w.a_out, w.b_in, w.b_out]
    if list(parts) != holes:
        raise WireMismatchError(f"{what} {list(parts)} do not fit holes {holes}")


def insert_stacked(
    w: BipartiteSupermap,
    pa: np.ndarray,
    pb: np.ndarray,
    a_ancilla: tuple[int, int] = (1, 1),
    b_ancilla: tuple[int, int] = (1, 1),
) -> np.ndarray:
    """Fill both holes with every pair from two stacks of Choi matrices.

    The last two axes of ``pa`` hold a Choi matrix on inputs ``[ancilla,
    A1]`` and outputs ``[ancilla, A2]``, its ancillas of dimensions
    ``a_ancilla = (in, out)``; ``pb`` likewise.  Any axes before those are
    stack axes, so a ``(Ka, sa, sa)`` and a ``(Kb, sb, sb)`` stack give the
    ``(Ka, Kb, side, side)`` grid of all pairs, and two single matrices give
    one filling.  Filling is linear in each hole, so every pair takes the
    same two contractions.  Each result keeps the side wires open: inputs
    ``[a ancilla, b ancilla, C1]``, outputs ``[a ancilla, b ancilla, C2]``.
    """
    a_dims = (a_ancilla[0], w.a_in, a_ancilla[1], w.a_out)
    b_dims = (b_ancilla[0], w.b_in, b_ancilla[1], w.b_out)
    pa, pb = as_stack(pa, prod(a_dims)), as_stack(pb, prod(b_dims))
    # Contract pa's slot wires into the body, then pb's, so pa (x) pb is
    # never formed.  Free factors after the first link:
    # [B1, B2, C1, C2, a ancilla in, a ancilla out]; after the second,
    # [C1, C2, a in, a out, b in, b out], gathered into [a in, b in, C1 | a out, b out, C2].
    c = link(w.body.choi, w.body.factor_dims, [0, 1], pa, a_dims, [1, 3])
    dims = (w.b_in, w.b_out, w.c_in, w.c_out, a_dims[0], a_dims[2])
    return link(c, dims, [0, 1], pb, b_dims, [1, 3], (2, 4, 0, 3, 5, 1))


def insert_with_ancilla(
    w: BipartiteSupermap,
    pa: Process,
    pb: Process,
    a_split: tuple[int, int] = (0, 0),
    b_split: tuple[int, int] = (0, 0),
    eps: float = DEFAULT_EPS,
) -> InsertionResult:
    """Fill both holes with channels that may carry extra side wires.

    ``pa`` must have inputs ``[ancilla..., A1 part...]`` and outputs
    ``[ancilla..., A2 part...]`` with ``a_split`` counting the ancilla
    factors on each side (``pb`` likewise).  The result keeps the side
    wires open: inputs ``[pa ancillas, pb ancillas, C1]``, outputs
    ``[pa ancillas, pb ancillas, C2]``.  This is :func:`insert_stacked`
    on one pair.
    """
    a_anc_in, a_slot_in = _split_groups(pa.in_sys, a_split[0])
    a_anc_out, a_slot_out = _split_groups(pa.out_sys, a_split[1])
    b_anc_in, b_slot_in = _split_groups(pb.in_sys, b_split[0])
    b_anc_out, b_slot_out = _split_groups(pb.out_sys, b_split[1])
    _fit_holes(w, (prod(a_slot_in), prod(a_slot_out), prod(b_slot_in), prod(b_slot_out)), "slot parts")
    # Merging adjacent factors leaves the data as it is, so each channel
    # reads [ancilla in, slot in, ancilla out, slot out].
    c = insert_stacked(
        w, pa.choi, pb.choi, (prod(a_anc_in), prod(a_anc_out)), (prod(b_anc_in), prod(b_anc_out))
    )
    cp = True if (pa.cp_flag and pb.cp_flag and w.body.cp_flag) else None
    in_sys = System(a_anc_in + b_anc_in + (w.c_in,))
    out_sys = System(a_anc_out + b_anc_out + (w.c_out,))
    return InsertionResult(Process._adopt(in_sys, out_sys, c, cp_flag=cp), eps=eps)


def insert(w: BipartiteSupermap, pa: Process, pb: Process, eps: float = DEFAULT_EPS) -> InsertionResult:
    """Fill both holes with plainly typed channels (no side wires)."""
    return insert_with_ancilla(w, pa, pb, (0, 0), (0, 0), eps=eps)


def insert_merged(
    w: BipartiteSupermap,
    phi: Process,
    in_split: int = 1,
    out_split: int = 1,
    eps: float = DEFAULT_EPS,
) -> InsertionResult:
    """Fill both holes with one joint channel ``A1 (x) B1 -> A2 (x) B2``.

    ``in_split``/``out_split`` say how many leading input/output factors of
    ``phi`` belong to the A hole.  This is the linear extension of hole
    filling to correlated arguments, which is what lets wires loop.
    """
    a_in_fs, b_in_fs = _split_groups(phi.in_sys, in_split)
    a_out_fs, b_out_fs = _split_groups(phi.out_sys, out_split)
    _fit_holes(w, (prod(a_in_fs), prod(a_out_fs), prod(b_in_fs), prod(b_out_fs)), "joint channel parts")
    # phi's factors merged per hole wire are [A1, B1, A2, B2].
    phi_dims = (w.a_in, w.b_in, w.a_out, w.b_out)
    c = link(w.body.choi, w.body.factor_dims, [0, 1, 2, 3], phi.choi, phi_dims, [0, 2, 1, 3])
    cp = True if (phi.cp_flag and w.body.cp_flag) else None
    return InsertionResult(Process._adopt(System((w.c_in,)), System((w.c_out,)), c, cp_flag=cp), eps=eps)


def _wiring_body(in_sys: System, out_sys: System, wires) -> Process:
    """The body that only connects wires: each ``(i, j)`` in ``wires`` joins
    factor ``i`` to factor ``j`` with an unnormalized identity.  Its Choi
    matrix is ``|v><v|``, where ``v`` sums the basis vectors on which every
    pair of joined factors agrees, so it is 1 on the rows and columns of
    those vectors and 0 elsewhere."""
    dims = in_sys.dims + out_sys.dims
    side = prod(dims)
    if side > MAX_SIDE:
        raise DimensionError(f"wiring body side {side} exceeds limit {MAX_SIDE}")
    strides = [prod(dims[k + 1 :]) for k in range(len(dims))]
    rows = np.zeros(1, dtype=np.intp)
    for i, j in wires:
        rows = np.add.outer(rows, np.arange(dims[i]) * (strides[i] + strides[j])).ravel()
    c = np.zeros((side, side), dtype=complex)
    c[np.ix_(rows, rows)] = 1
    return Process._adopt(in_sys, out_sys, c, cp_flag=True)


def fixed_order_a_then_b(a_in: int, a_out: int, b_in: int, b_out: int) -> BipartiteSupermap:
    """The wiring that runs the A channel first and pipes it into B."""
    if a_out != b_in:
        raise WireMismatchError(f"cannot pipe A output {a_out} into B input {b_in}")
    # Factors [A1, A2, B1, B2, C1, C2]: C1 feeds A1, A2 feeds B1, B2 feeds C2.
    slots = System((a_in, a_out, b_in, b_out))
    return BipartiteSupermap(_wiring_body(slots, System((a_in, b_out)), [(0, 4), (1, 2), (3, 5)]))


def fixed_order_b_then_a(a_in: int, a_out: int, b_in: int, b_out: int) -> BipartiteSupermap:
    """The wiring that runs the B channel first and pipes it into A."""
    if b_out != a_in:
        raise WireMismatchError(f"cannot pipe B output {b_out} into A input {a_in}")
    # Factors [A1, A2, B1, B2, C1, C2]: C1 feeds B1, B2 feeds A1, A2 feeds C2.
    slots = System((a_in, a_out, b_in, b_out))
    return BipartiteSupermap(_wiring_body(slots, System((b_in, a_out)), [(2, 4), (3, 0), (1, 5)]))


def mix(pairs) -> BipartiteSupermap:
    """Affine combination ``sum_k weight_k W_k`` of same-shaped supermaps."""
    pairs = list(pairs)
    if not pairs:
        raise DimensionError("cannot mix an empty collection of supermaps")
    first = pairs[0][1].body
    acc = np.zeros_like(first.choi)
    convex = True
    for weight, w in pairs:
        if w.body.in_sys.dims != first.in_sys.dims or w.body.out_sys.dims != first.out_sys.dims:
            raise WireMismatchError("mixed supermaps must share slot and output types")
        acc = acc + weight * w.body.choi
        convex = convex and weight >= 0 and w.body.cp_flag is True
    body = Process._adopt(first.in_sys, first.out_sys, acc, cp_flag=True if convex else None)
    return BipartiteSupermap(body)


def dress_slots(
    w: BipartiteSupermap,
    pre_a: Process,
    post_a: Process,
    pre_b: Process,
    post_b: Process,
) -> BipartiteSupermap:
    """Wrap each hole, so slot A now accepts channels ``pre_a.out -> post_a.in``
    and behaves like ``post_a . phi . pre_a`` fed to the original supermap."""
    slot_ends = (pre_a.in_sys.total, post_a.out_sys.total, pre_b.in_sys.total, post_b.out_sys.total)
    _fit_holes(w, slot_ends, "dressing channel ends")
    # Contract the slot wires from the last one back, each with the matching
    # end of its dressing channel; the wire that leaves goes to the front, so
    # the last step leaves [x_a, y_a, x_b, y_b, C1, C2].
    c, dims = w.body.choi, w.body.factor_dims
    for ch, end in ((post_b, 1), (pre_b, 0), (post_a, 1), (pre_a, 0)):
        ch_dims = (ch.in_sys.total, ch.out_sys.total)
        c = link(c, dims, [3], ch.choi, ch_dims, [end], (5, 0, 1, 2, 3, 4))
        dims = (ch_dims[1 - end],) + dims[:3] + dims[4:]
    cp = True if all(p.cp_flag for p in (w.body, pre_a, post_a, pre_b, post_b)) else None
    return BipartiteSupermap(Process._adopt(System(dims[:4]), w.body.out_sys, c, cp_flag=cp))


def merged_slot_process(w: BipartiteSupermap) -> Process:
    """View the body as a one-hole comb whose single slot is the joint
    ``A1 (x) B1 -> A2 (x) B2`` hole; inputs ``[A1, B1, A2, B2]``, outputs
    ``[C1, C2]``."""
    return rewire(w.body, [0, 2, 1, 3], [4, 5])
