"""Two-hole supermaps on channels, stored as six-wire comb bodies.

A :class:`BipartiteSupermap` turns a pair of channels ``A1 -> A2`` and
``B1 -> B2`` into a channel ``C1 -> C2``.  Its body is a process with
input factors ``[A1, A2, B1, B2]`` (one factor per slot wire) and output
factors ``[C1, C2]``; filling the holes contracts the slot factors of the
body against the Choi matrices of the inserted channels.  Because the
body is an ordinary process, supermaps can be mixed, dressed, and probed
with non-CP arguments without any extra machinery.

Causality is decided on the discarded body: discarding commutes with
filling (the link product is associative), so an insertion's ``causal``,
both oracles and the verification runs trace ``C2`` out of the body (once
per supermap) and the ancilla outputs out of the arguments before they
link the small marginals.  A discard returns its marginal as a plain
matrix; only the cached discarded body wraps it as a process again.  The
runs' premise, ``is_soc2``, is likewise decided once per supermap and kept
on it (``_premise``), while a direct ``is_soc2`` call always computes.  An
insertion checks its types at once and builds ``process`` on first use.
:func:`insert_stacked` fills stacks of arguments: the oracle's grid of all
pairs, or with ``paired`` a verification run's trials, where trial ``t``'s
arguments are linked with each other only, each rounded as that one pair
alone would be.  A joint filling goes through ``_insert_joint``, which
:func:`insert_merged` and the runs share.  The fixed orders are pure
wiring, written by ``process._wiring`` from wire lists that
``extras.quantum_switch`` shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from typing import Callable

import numpy as np

from .errors import DimensionError, WireMismatchError
from .process import Process, _discard_outputs, _json_dims, _split_groups, _wiring, process_from_dict, process_to_dict, relabel, rewire
from .tensor import UNIT, System, as_stack, check_size, link


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

    @cached_property
    def _discarded(self) -> "BipartiteSupermap":
        """This supermap with ``C2`` discarded from its body."""
        return BipartiteSupermap(Process._adopt(self.body.in_sys, System((self.c_in, 1)), _discard_outputs(self.body, [1])))

    @cached_property
    def _premise(self):
        """``is_soc2(self)``: the residual and parts that every verification
        run on this supermap judges at its own tolerance."""
        from .predicates import is_soc2

        return is_soc2(self)

    def __repr__(self) -> str:
        return (
            f"BipartiteSupermap(a={self.a_in}->{self.a_out}, "
            f"b={self.b_in}->{self.b_out}, c={self.c_in}->{self.c_out})"
        )


@dataclass(eq=False)
class InsertionResult:
    """A filled supermap, typed when made and contracted only when asked:
    ``_fill(discard)`` gives the filled Choi matrix (:attr:`process`), or
    with ``discard`` the marginal on ``in_sys`` that :attr:`causal` judges
    as ``is_causal`` does at ``DEFAULT_EPS``, never building :attr:`process`."""

    in_sys: System
    out_sys: System
    _fill: Callable[[bool], np.ndarray] = field(repr=False)

    @cached_property
    def process(self) -> Process:
        return Process._adopt(self.in_sys, self.out_sys, self._fill(False))

    @cached_property
    def causal(self):
        from .predicates import is_causal

        # Filling and then discarding every output is an effect on the
        # inputs; the filled process is causal when that effect is the discard.
        return is_causal(Process._adopt(self.in_sys, UNIT, self._fill(True)))


def supermap_from_process(p: Process, a_dims: tuple[int, int], b_dims: tuple[int, int]) -> BipartiteSupermap:
    """Read a process as a supermap body, flattening its slot factors; slots
    whose product is not the input dimension raise :class:`DimensionError`."""
    if len(p.out_sys) != 2:
        raise DimensionError(f"supermap body needs exactly two output factors, got {len(p.out_sys)}")
    return BipartiteSupermap(relabel(p, a_dims + b_dims, p.out_sys.dims))


def supermap_to_dict(w: BipartiteSupermap) -> dict:
    return {
        "process": process_to_dict(w.body),
        "slots": {"a": [w.a_in, w.a_out], "b": [w.b_in, w.b_out]},
    }


def supermap_from_dict(d: dict) -> BipartiteSupermap:
    try:
        p = process_from_dict(d["process"])
        a = _json_dims(d["slots"]["a"], "slot a")
        b = _json_dims(d["slots"]["b"], "slot b")
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
    paired: bool = False,
) -> np.ndarray:
    """Fill both holes with pairs from two stacks of Choi matrices.

    The last two axes of ``pa`` hold a Choi matrix on inputs ``[ancilla,
    A1]`` and outputs ``[ancilla, A2]``, its ancillas of dimensions
    ``a_ancilla = (in, out)``; ``pb`` likewise.  Any axes before those are
    stack axes.  A ``(Ka, sa, sa)`` and a ``(Kb, sb, sb)`` stack give the
    ``(Ka, Kb, side, side)`` grid of all pairs; with ``paired``, two ``(T,
    ...)`` stacks give the ``T`` fillings of ``pa[t]`` with ``pb[t]``, each
    rounded as that one pair alone would be.  Two single matrices give one
    filling.  Filling is linear in each hole, so every pair takes the same
    two contractions.  Each result keeps the side wires open: inputs ``[a
    ancilla, b ancilla, C1]``, outputs ``[a ancilla, b ancilla, C2]``.  The
    result's size is checked before the first contraction.
    """
    a_dims = (a_ancilla[0], w.a_in, a_ancilla[1], w.a_out)
    b_dims = (b_ancilla[0], w.b_in, b_ancilla[1], w.b_out)
    pa, pb = as_stack(pa, prod(a_dims)), as_stack(pb, prod(b_dims))
    side = prod(a_ancilla) * prod(b_ancilla) * w.c_in * w.c_out
    stack = np.broadcast_shapes(pa.shape[:-2], pb.shape[:-2]) if paired else pa.shape[:-2] + pb.shape[:-2]
    check_size(stack + (side, side), "filled result")
    # Contract pa's slot wires into the body, then pb's, so pa (x) pb is
    # never formed.  Free factors after the first link:
    # [B1, B2, C1, C2, a ancilla in, a ancilla out]; after the second,
    # [C1, C2, a in, a out, b in, b out], gathered into [a in, b in, C1 | a out, b out, C2].
    c = link(w.body.choi, w.body.factor_dims, [0, 1], pa, a_dims, [1, 3], paired=paired)
    dims = (w.b_in, w.b_out, w.c_in, w.c_out, a_dims[0], a_dims[2])
    return link(c, dims, [0, 1], pb, b_dims, [1, 3], (2, 4, 0, 3, 5, 1), paired=paired)


def _insert_joint(w: BipartiteSupermap, phi: np.ndarray) -> np.ndarray:
    """Fill both holes with the joint channel ``phi`` on ``[A1, B1, A2, B2]``,
    or with each of a stack of them, each rounded as it alone would be."""
    phi_dims = (w.a_in, w.b_in, w.a_out, w.b_out)
    return link(w.body.choi, w.body.factor_dims, [0, 1, 2, 3], phi, phi_dims, [0, 2, 1, 3], paired=True)


def insert_with_ancilla(
    w: BipartiteSupermap,
    pa: Process,
    pb: Process,
    a_split: tuple[int, int] = (0, 0),
    b_split: tuple[int, int] = (0, 0),
) -> InsertionResult:
    """Fill both holes with channels that may carry extra side wires.

    ``pa`` must have inputs ``[ancilla..., A1 part...]`` and outputs
    ``[ancilla..., A2 part...]`` with ``a_split`` counting the ancilla
    factors on each side (``pb`` likewise).  The result keeps the side
    wires open: inputs ``[pa ancillas, pb ancillas, C1]``, outputs
    ``[pa ancillas, pb ancillas, C2]``.  This is :func:`insert_stacked`
    on one pair, or, for the causality check, on the discarded supermap
    and arguments.
    """
    a_anc_in, a_slot_in = _split_groups(pa.in_sys, a_split[0])
    a_anc_out, a_slot_out = _split_groups(pa.out_sys, a_split[1])
    b_anc_in, b_slot_in = _split_groups(pb.in_sys, b_split[0])
    b_anc_out, b_slot_out = _split_groups(pb.out_sys, b_split[1])
    _fit_holes(w, (prod(a_slot_in), prod(a_slot_out), prod(b_slot_in), prod(b_slot_out)), "slot parts")
    ai, ao, bi, bo = prod(a_anc_in), prod(a_anc_out), prod(b_anc_in), prod(b_anc_out)

    def fill(discard: bool) -> np.ndarray:
        # Merging adjacent factors leaves the data as it is, so each channel
        # reads [ancilla in, slot in, ancilla out, slot out]; a traced-out
        # factor stays there with dimension 1.
        if not discard:
            return insert_stacked(w, pa.choi, pb.choi, (ai, ao), (bi, bo))
        qa, qb = _discard_outputs(pa, range(a_split[1])), _discard_outputs(pb, range(b_split[1]))
        return insert_stacked(w._discarded, qa, qb, (ai, 1), (bi, 1))

    in_sys = System(a_anc_in + b_anc_in + (w.c_in,))
    out_sys = System(a_anc_out + b_anc_out + (w.c_out,))
    return InsertionResult(in_sys, out_sys, fill)


def insert(w: BipartiteSupermap, pa: Process, pb: Process) -> InsertionResult:
    """Fill both holes with plainly typed channels (no side wires)."""
    return insert_with_ancilla(w, pa, pb)


def insert_merged(w: BipartiteSupermap, phi: Process, in_split: int = 1, out_split: int = 1) -> InsertionResult:
    """Fill both holes with one joint channel ``A1 (x) B1 -> A2 (x) B2``.

    ``in_split``/``out_split`` say how many leading input/output factors of
    ``phi`` belong to the A hole.  This is the linear extension of hole
    filling to correlated arguments, which is what lets wires loop.
    """
    a_in_fs, b_in_fs = _split_groups(phi.in_sys, in_split)
    a_out_fs, b_out_fs = _split_groups(phi.out_sys, out_split)
    _fit_holes(w, (prod(a_in_fs), prod(a_out_fs), prod(b_in_fs), prod(b_out_fs)), "joint channel parts")

    def fill(discard: bool) -> np.ndarray:
        return _insert_joint(w._discarded if discard else w, phi.choi)

    return InsertionResult(System((w.c_in,)), System((w.c_out,)), fill)


# The fixed orders' wires over the body factors [A1, A2, B1, B2, C1, C2].
# A then B: C1 feeds A1, A2 feeds B1, B2 feeds C2.  B then A: C1 feeds B1,
# B2 feeds A1, A2 feeds C2.
_A_THEN_B = ((0, 4), (1, 2), (3, 5))
_B_THEN_A = ((2, 4), (3, 0), (1, 5))


def fixed_order_a_then_b(a_in: int, a_out: int, b_in: int, b_out: int) -> BipartiteSupermap:
    """The wiring that runs the A channel first and pipes it into B."""
    if a_out != b_in:
        raise WireMismatchError(f"cannot pipe A output {a_out} into B input {b_in}")
    return BipartiteSupermap(_wiring(System((a_in, a_out, b_in, b_out)), System((a_in, b_out)), _A_THEN_B))


def fixed_order_b_then_a(a_in: int, a_out: int, b_in: int, b_out: int) -> BipartiteSupermap:
    """The wiring that runs the B channel first and pipes it into A."""
    if b_out != a_in:
        raise WireMismatchError(f"cannot pipe B output {b_out} into A input {a_in}")
    return BipartiteSupermap(_wiring(System((a_in, a_out, b_in, b_out)), System((b_in, a_out)), _B_THEN_A))


def mix(pairs) -> BipartiteSupermap:
    """Affine combination ``sum_k weight_k W_k`` of same-shaped supermaps."""
    pairs = list(pairs)
    if not pairs:
        raise DimensionError("cannot mix an empty collection of supermaps")
    for weight, _ in pairs:
        if not np.isfinite(weight):
            raise DimensionError(f"mix weights must be finite numbers, got {weight!r}")
    first = pairs[0][1].body
    acc = np.zeros_like(first.choi)
    for weight, w in pairs:
        if w.body.in_sys.dims != first.in_sys.dims or w.body.out_sys.dims != first.out_sys.dims:
            raise WireMismatchError("mixed supermaps must share slot and output types")
        acc = acc + weight * w.body.choi
    return BipartiteSupermap(Process._adopt(first.in_sys, first.out_sys, acc))


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
    return BipartiteSupermap(Process._adopt(System(dims[:4]), w.body.out_sys, c))


def merged_slot_process(w: BipartiteSupermap) -> Process:
    """View the body as a one-hole comb whose single slot is the joint
    ``A1 (x) B1 -> A2 (x) B2`` hole; inputs ``[A1, B1, A2, B2]``, outputs
    ``[C1, C2]``."""
    return rewire(w.body, [0, 2, 1, 3], [4, 5])
