"""Causality, signalling structure, and order-preservation checks.

Every predicate returns a :class:`CausalVerdict` carrying a numeric
residual (Frobenius distance from the constraint set being tested), so
callers can both branch on ``holds`` and report how badly something
fails; a residual made of several constraints names each one's share in
``parts``.  Order preservation comes in two independent forms, each of
which decides one hole as two with a trivial B slot (1 -> 1): a closed
form on the body's marginals (:func:`_gaps`), and an oracle that fills
the holes with a spanning family of arguments (:func:`_fill_oracle`).
Both read the body with ``C2`` discarded, traced by
``process._discard_outputs`` from the factor tensor in place, and compute
the same residual up to floating point error.  The closed form asks
whether a marginal acts as the identity on a factor; :func:`_defect`
measures that in the marginal's own memory, so a verdict reads all else
from it first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import hypot, prod, sqrt

import numpy as np

from .errors import DimensionError, ReconstructionError
from .process import Process, _discard_outputs, _sides
from .supermap import BipartiteSupermap, insert_stacked
from .tensor import DEFAULT_EPS, System, UNIT, check_size, hermitian_basis, link, norm, partial_trace


@dataclass(frozen=True)
class CausalVerdict:
    holds: bool
    residual: float
    witness: np.ndarray | None = None
    # Named constraints and their gaps; ``residual`` is their root sum of squares.
    parts: dict[str, float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.holds


def _defect(m: np.ndarray, dims: tuple[int, ...], *ks: int) -> np.ndarray:
    """``m`` with ``1 - P_k`` applied for each factor ``k`` of ``ks`` in
    turn, where ``P_k m = Tr_k(m)/d_k (x) I_k`` in ``m``'s own factor order:
    the part of ``m`` that acts as the identity on none of them.  Each
    projection is subtracted in place from the ``d_k`` diagonal blocks, in
    ``m`` itself when it is writable and C-contiguous, else in one copy."""
    out = m if m.flags.writeable and m.flags.c_contiguous else m.copy()
    for k in ks:
        left, d, right = prod(dims[:k]), dims[k], prod(dims[k + 1 :])
        t = out.reshape(left, d, right, left, d, right)
        mean = np.trace(t, axis1=1, axis2=4)
        mean /= d
        for i in range(d):
            t[:, i, :, :, i, :] -= mean
    return out


def is_causal(f: Process, eps: float = DEFAULT_EPS) -> CausalVerdict:
    """Trace preservation: discarding the outputs leaves the identity effect.

    For states (no inputs) this is normalization.
    """
    marginal = _discard_outputs(f, range(len(f.out_sys)))
    witness = marginal - np.eye(f.in_sys.total)
    residual = norm(witness)
    return CausalVerdict(residual <= eps, residual, witness)


def is_nonsignalling(f: Process, in_split: int = 1, out_split: int = 1, eps: float = DEFAULT_EPS) -> CausalVerdict:
    """No signalling in either direction: ``parts`` holds how far the A-side
    marginal output depends on the B-side input (``b_to_a``) and the converse.

    ``f`` acts on a bipartite system; ``in_split``/``out_split`` count how
    many leading input/output factors belong to side A.
    """
    ai, bi, ao, bo = _sides(f, in_split, out_split)
    outs = range(len(f.out_sys))
    b_to_a = norm(_defect(_discard_outputs(f, outs[out_split:]), (ai, bi, ao), 1))
    a_to_b = norm(_defect(_discard_outputs(f, outs[:out_split]), (ai, bi, bo), 0))
    residual = hypot(b_to_a, a_to_b)
    return CausalVerdict(residual <= eps, residual, None, {"b_to_a": b_to_a, "a_to_b": a_to_b})


def make_strongly_nonsignalling(psi_a: Process, psi_b: Process, shared: Process) -> Process:
    """Local channels consuming the two halves of one pre-shared state.

    ``psi_a`` takes ``[A1..., memory]`` (its last input factor is its
    memory), ``psi_b`` takes ``[memory', B1...]`` (its first), and
    ``shared`` is a state on ``[memory, memory']``; a memory made of
    several factors is merged into one first.  The result is a bipartite
    channel ``A1 (x) B1 -> A2 (x) B2``; channels of this shape cannot
    signal in either direction.
    """
    if shared.in_sys != UNIT:
        raise DimensionError("the shared resource must be a state (no inputs)")
    for name, psi, end in (("psi_a", psi_a, "last"), ("psi_b", psi_b, "first")):
        if not psi.in_sys.dims:
            raise DimensionError(f"{name} has no input factor to take its memory (its {end} input factor)")
    mem_a, mem_b = psi_a.in_sys.dims[-1:], psi_b.in_sys.dims[:1]
    if shared.out_sys.dims != mem_a + mem_b:
        raise DimensionError(
            f"shared state on {shared.out_sys.dims} does not match memories {mem_a + mem_b}"
        )
    a1, b1 = psi_a.in_sys.dims[:-1], psi_b.in_sys.dims[1:]
    # Merge adjacent factors, which leaves the data as it is, so that the
    # channels read [A1, memory, A2] and [memory', B1, B2].
    a_dims = (prod(a1),) + mem_a + (psi_a.out_sys.total,)
    b_dims = mem_b + (prod(b1), psi_b.out_sys.total)
    c = _strongly_nonsignalling(shared.choi, psi_a.choi, psi_b.choi, a_dims, b_dims)
    return Process._adopt(System(a1 + b1), psi_a.out_sys + psi_b.out_sys, c)


def _strongly_nonsignalling(shared: np.ndarray, psi_a: np.ndarray, psi_b: np.ndarray, a_dims, b_dims) -> np.ndarray:
    """The Choi matrix of :func:`make_strongly_nonsignalling` from those of
    its parts: ``psi_a`` on ``a_dims = (A1, memory, A2)``, ``psi_b`` on
    ``b_dims = (memory', B1, B2)`` and ``shared`` on ``[memory, memory']``.
    Leading axes are paired stacks: part ``t`` of each makes channel ``t``."""
    # Feed each half of the shared state into its channel's memory input.
    # Free factors after the first link: [memory', A1, A2]; after the
    # second, [A1, A2, B1, B2], gathered into [A1, B1, A2, B2].
    c = link(shared, (a_dims[1], b_dims[0]), [0], psi_a, a_dims, [1], paired=True)
    return link(c, (b_dims[0], a_dims[0], a_dims[2]), [0], psi_b, b_dims, [0], (0, 2, 1, 3), paired=True)


# A two-hole verdict asks for two bases.  The bound lets a large basis, such
# as the (9, 9) one (680 MB), be evicted instead of kept for the life of the
# process.
@lru_cache(maxsize=4)
def causal_affine_basis(d_in: int, d_out: int) -> np.ndarray:
    """Affine basis of the Choi matrices of trace-preserving maps, as one
    read-only ``(K, side, side)`` stack.

    Row 0 is the base point, the Choi matrix of total depolarization; each
    later row is the base point moved along one of the orthonormal
    traceless-on-output directions.  Adding any real combination of the
    directions stays trace preserving, and the affine hull of the causal
    channels is exactly the hull of these rows.  A stack over ``MAX_SIDE**2``
    elements raises :class:`DimensionError` before anything is allocated.
    """
    side, k = d_in * d_out, d_in * d_in * (d_out * d_out - 1) + 1
    check_size((k, side, side), "causal basis")
    g, h = np.stack(hermitian_basis(d_in)), np.stack(hermitian_basis(d_out))[1:]
    points = np.zeros((k, side, side), dtype=complex)
    # Row 1 + a (d_out**2 - 1) + b is kron(g_a, h_b), written in place.
    np.multiply(g[:, None, :, None, :, None], h[None, :, None, :, None, :], out=points[1:].reshape(len(g), len(h), d_in, d_out, d_in, d_out))
    points += np.eye(side) / d_out
    points.setflags(write=False)
    return points


def _gaps(m: np.ndarray, dims: tuple[int, int, int, int, int]) -> dict[str, float]:
    """The four gaps of a body ``m`` with ``C2`` discarded, on ``dims = (A1,
    A2, B1, B2, C1)``.  A defect on a factor of dimension 1 is exactly 0 for
    finite entries, so it takes no pass.  A side marginal is a view of ``m``
    when the other slot is 1 -> 1, so ``gap_norm`` reads ``m`` first."""
    a1, a2, b1, b2, c1 = dims
    # The normalization gap is shared between the two sides: counted once.
    gaps = {"gap_a": 0.0, "gap_b": 0.0, "gap_norm": norm(partial_trace(m, dims, (4,)) / (a2 * b2) - np.eye(c1)), "gap_cross": 0.0}
    for name, keep, d, other in (("gap_a", (0, 1, 4), a2, b2), ("gap_b", (2, 3, 4), b2, a2)):
        if d > 1:
            side = partial_trace(m, dims, keep)
            gaps[name] = norm(_defect(side / other if other > 1 else side, (dims[keep[0]], d, c1), 1))
    if a2 > 1 and b2 > 1:
        # With P_k m = Tr_k(m)/d_k (x) I_k, the cross term m - P_A2 m - P_B2 m
        # + P_A2 P_B2 m is (1 - P_A2)(1 - P_B2) m, written into m: it comes last.
        gaps["gap_cross"] = norm(_defect(m, dims, 3, 1))
    return gaps


def _fill_oracle(w: BipartiteSupermap, eps: float) -> CausalVerdict:
    """Two-hole order preservation of ``w`` with ``C2`` discarded: both
    holes filled with affine bases of causal channels, a ``(Ka, Kb, C1,
    C1)`` grid of effects from one stacked insertion."""
    wit = insert_stacked(w, causal_affine_basis(w.a_in, w.a_out), causal_affine_basis(w.b_in, w.b_out)) - np.eye(w.c_in)
    # Successive differences leave the base pair's witness at [0, 0], each hole's
    # first-order changes along the edges, and the mixed second differences inside.
    wit[1:] -= wit[:1]
    wit[:, 1:] -= wit[:, :1]
    residual = norm(wit)
    return CausalVerdict(residual <= eps, residual, None)


def is_soc(w: Process, in_split: int = 1, out_split: int = 1, eps: float = DEFAULT_EPS) -> CausalVerdict:
    """One-hole order preservation, by a closed form on body marginals.

    ``w`` is the body of a one-hole supermap: inputs are the slot wires
    ``[slot-in..., slot-out...]`` (split by ``in_split``), outputs are the
    produced channel's wires ``[chan-in..., chan-out...]`` (split by
    ``out_split``).  Holds iff filling the hole with any causal channel
    yields a causal channel: :func:`is_soc2` with B 1 -> 1, ``gap_a`` named
    ``gap_slot``."""
    si, so, ci, _ = _sides(w, in_split, out_split)
    gaps = _gaps(_discard_outputs(w, range(out_split, len(w.out_sys))), (si, so, 1, 1, ci))
    gap_slot, gap_norm = gaps["gap_a"], gaps["gap_norm"]
    residual = hypot(gap_slot, gap_norm)
    return CausalVerdict(residual <= eps, residual, None, {"gap_slot": gap_slot, "gap_norm": gap_norm})


def is_soc_oracle(w: Process, in_split: int = 1, out_split: int = 1, eps: float = DEFAULT_EPS) -> CausalVerdict:
    """Same predicate as :func:`is_soc`, decided as :func:`is_soc2_oracle`
    decides the body with a trivial B slot."""
    si, so, ci, _ = _sides(w, in_split, out_split)
    causal_affine_basis(si, so)  # first, so that an oversized basis raises before any trace
    m = _discard_outputs(w, range(out_split, len(w.out_sys)))
    return _fill_oracle(BipartiteSupermap(Process._adopt(System((si, so, 1, 1)), System((ci, 1)), m)), eps)


def is_soc2(w: BipartiteSupermap, eps: float = DEFAULT_EPS) -> CausalVerdict:
    """Two-hole order preservation: every pair of causal fillings (applied
    to either hole independently) must come out causal.  Closed form."""
    parts = _gaps(_discard_outputs(w.body, [1]), (w.a_in, w.a_out, w.b_in, w.b_out, w.c_in))
    residual = hypot(*parts.values())
    return CausalVerdict(residual <= eps, residual, None, parts)


def is_soc2_oracle(w: BipartiteSupermap, eps: float = DEFAULT_EPS) -> CausalVerdict:
    """Same predicate as :func:`is_soc2`, decided by filling both holes
    through the public insertion path."""
    return _fill_oracle(w._discarded, eps)


def probe_states(d: int) -> list[np.ndarray]:
    """An informationally complete family of ``d**2`` density matrices:
    basis projectors plus two superposition probes per index pair."""
    check_size((d * d, d, d), "probe states")
    states = []
    for i in range(d):
        p = np.zeros((d, d), dtype=complex)
        p[i, i] = 1
        states.append(p)
    for i in range(d):
        for j in range(i + 1, d):
            plus = np.zeros(d, dtype=complex)
            plus[i] = plus[j] = 1 / sqrt(2)
            phase = np.zeros(d, dtype=complex)
            phase[i] = 1 / sqrt(2)
            phase[j] = 1j / sqrt(2)
            states.append(np.outer(plus, plus.conj()))
            states.append(np.outer(phase, phase.conj()))
    return states


def reconstruct_from_causal_states(black_box, in_sys: System, out_sys: System, probes=None) -> Process:
    """Recover a process from its action on states alone.

    The responses to a family of probe states (:func:`probe_states` by
    default) fix the Choi matrix through one least-squares system; a family
    that does not span state space raises :class:`ReconstructionError`.
    The rank comes from that same solve, so the black box is queried on
    every probe before a deficient family is rejected.
    """
    d, dout = in_sys.total, out_sys.total
    probes = [np.asarray(p, dtype=complex) for p in (probe_states(d) if probes is None else probes)]
    a = np.stack([p.ravel() for p in probes])
    b = np.stack([np.asarray(black_box(p), dtype=complex).ravel() for p in probes])
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < d * d:
        raise ReconstructionError(f"probe family spans {rank} of {d * d} dimensions")
    choi4 = x.reshape(d, d, dout, dout).transpose(0, 2, 1, 3)
    return Process(in_sys, out_sys, choi4.reshape(d * dout, d * dout))
