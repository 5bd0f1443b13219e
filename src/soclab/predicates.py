"""Causality, signalling structure, and order-preservation checks.

Every predicate returns a :class:`CausalVerdict` carrying a numeric
residual (Frobenius distance from the constraint set being tested), so
callers can both branch on ``holds`` and report how badly something
fails; a residual made of several constraints names each one's share in
``parts``.  The hole-preservation checks come in two independent flavours: a
closed form on the body's marginals, and an oracle that actually fills
the holes with a spanning family of arguments and checks every output.
Both compute the same residual up to floating point error.

The no-signalling and order-preservation closed forms all ask one
question of a marginal of the Choi matrix: does it act as the identity on
one factor?  :func:`_defect` measures how far it is from doing so.  The
marginals are traced from the factor tensor in place, so a rewired process
(a strided view) is never copied into its new order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import hypot, prod, sqrt

import numpy as np

from .errors import DimensionError, ReconstructionError
from .process import Process, _sides, apply_to_state
from .supermap import BipartiteSupermap, insert_stacked
from .tensor import DEFAULT_EPS, System, UNIT, frobenius_distance, hermitian_basis, link, partial_trace


@dataclass(frozen=True)
class CausalVerdict:
    holds: bool
    residual: float
    witness: np.ndarray | None = None
    # Named constraints and their gaps; ``residual`` is their root sum of squares.
    parts: dict[str, float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.holds


def _defect(m: np.ndarray, dims: tuple[int, ...], k: int) -> np.ndarray:
    """``m - Tr_k(m)/d_k (x) I_k`` in ``m``'s own factor order: the part of
    ``m`` that does not act as the identity on factor ``k``."""
    left, d, right = prod(dims[:k]), dims[k], prod(dims[k + 1 :])
    t = m.reshape(left, d, right, left, d, right)
    mean = np.trace(t, axis1=1, axis2=4)[:, None, :, :, None, :] / d
    return (t - mean * np.eye(d).reshape(d, 1, 1, d, 1)).reshape(m.shape)


def _marginal(f: Process, out_split: int, side_a: bool) -> np.ndarray:
    """Trace of ``f`` over the outputs of one side, from its tensor in place:
    the result keeps every input and the A-side outputs (the first
    ``out_split``) when ``side_a``, else the B-side ones."""
    outs = list(range(f.n_in, len(f.factor_dims)))
    kept = outs[:out_split] if side_a else outs[out_split:]
    return partial_trace(f.tensor, f.factor_dims, keep=[*range(f.n_in), *kept])


def is_causal(f: Process, eps: float = DEFAULT_EPS) -> CausalVerdict:
    """Trace preservation: discarding the outputs leaves the identity effect.

    For states (no inputs) this is normalization.
    """
    marginal = partial_trace(f.tensor, f.factor_dims, keep=range(f.n_in))
    witness = marginal - np.eye(f.in_sys.total)
    residual = float(np.linalg.norm(witness))
    return CausalVerdict(residual <= eps, residual, witness)


def is_nonsignalling_b_to_a(f: Process, in_split: int = 1, out_split: int = 1, eps: float = DEFAULT_EPS) -> CausalVerdict:
    """The A-side marginal output cannot depend on the B-side input.

    ``f`` acts on a bipartite system; ``in_split``/``out_split`` count how
    many leading input/output factors belong to side A.
    """
    ai, bi, ao, bo = _sides(f, in_split, out_split)
    m = _marginal(f, out_split, side_a=True)
    residual = float(np.linalg.norm(_defect(m, (ai, bi, ao), 1)))
    return CausalVerdict(residual <= eps, residual, None)


def is_nonsignalling_a_to_b(f: Process, in_split: int = 1, out_split: int = 1, eps: float = DEFAULT_EPS) -> CausalVerdict:
    ai, bi, ao, bo = _sides(f, in_split, out_split)
    m = _marginal(f, out_split, side_a=False)
    residual = float(np.linalg.norm(_defect(m, (ai, bi, bo), 0)))
    return CausalVerdict(residual <= eps, residual, None)


def is_nonsignalling(f: Process, in_split: int = 1, out_split: int = 1, eps: float = DEFAULT_EPS) -> CausalVerdict:
    """No signalling in either direction; residual combines both checks."""
    va = is_nonsignalling_b_to_a(f, in_split, out_split, eps)
    vb = is_nonsignalling_a_to_b(f, in_split, out_split, eps)
    residual = hypot(va.residual, vb.residual)
    return CausalVerdict(residual <= eps, residual, None, {"b_to_a": va.residual, "a_to_b": vb.residual})


def make_strongly_nonsignalling(
    psi_a: Process,
    psi_b: Process,
    shared: Process,
    a_mem: int = 1,
    b_mem: int = 1,
) -> Process:
    """Local channels consuming the two halves of one pre-shared state.

    ``psi_a`` takes ``[A1..., memory...]`` (memory factors last), ``psi_b``
    takes ``[memory'..., B1...]`` (memory factors first), and ``shared`` is
    a state on ``memory + memory'``.  The result is a bipartite channel
    ``A1 (x) B1 -> A2 (x) B2``; channels of this shape cannot signal in
    either direction.
    """
    if shared.in_sys != UNIT:
        raise DimensionError("the shared resource must be a state (no inputs)")
    mem_a = psi_a.in_sys.dims[psi_a.n_in - a_mem:]
    mem_b = psi_b.in_sys.dims[:b_mem]
    if shared.out_sys.dims != mem_a + mem_b:
        raise DimensionError(
            f"shared state on {shared.out_sys.dims} does not match memories {mem_a + mem_b}"
        )
    a1 = psi_a.in_sys.dims[: psi_a.n_in - a_mem]
    b1 = psi_b.in_sys.dims[b_mem:]
    # Merge adjacent factors, which leaves the data as it is, so that the
    # channels read [A1, memory..., A2] and [memory'..., B1, B2].
    a_dims = (prod(a1),) + mem_a + (psi_a.out_sys.total,)
    b_dims = mem_b + (prod(b1), psi_b.out_sys.total)
    # Feed each half of the shared state into its channel's memory inputs.
    # Free factors after the first link: [memory'..., A1, A2]; after the
    # second, [A1, A2, B1, B2], gathered into [A1, B1, A2, B2].
    c = link(shared.choi, mem_a + mem_b, range(a_mem), psi_a.choi, a_dims, range(1, 1 + a_mem))
    c = link(c, mem_b + (a_dims[0], a_dims[-1]), range(b_mem), psi_b.choi, b_dims, range(b_mem), (0, 2, 1, 3))
    cp = True if (shared.cp_flag and psi_a.cp_flag and psi_b.cp_flag) else None
    return Process._adopt(System(a1 + b1), psi_a.out_sys + psi_b.out_sys, c, cp_flag=cp)


@lru_cache(maxsize=None)
def causal_affine_basis(d_in: int, d_out: int) -> np.ndarray:
    """Affine basis of the Choi matrices of trace-preserving maps, as one
    read-only ``(K, side, side)`` stack.

    Row 0 is the base point, the Choi matrix of total depolarization; each
    later row is the base point moved along one of the orthonormal
    traceless-on-output directions.  Adding any real combination of the
    directions stays trace preserving, and the affine hull of the causal
    channels is exactly the hull of these rows.
    """
    base = np.eye(d_in * d_out, dtype=complex) / d_out
    dirs = [np.kron(g, h) for g in hermitian_basis(d_in) for h in hermitian_basis(d_out)[1:]]
    points = base + np.stack([np.zeros_like(base), *dirs])
    points.setflags(write=False)
    return points


def is_soc(w: Process, in_split: int = 1, out_split: int = 1, eps: float = DEFAULT_EPS) -> CausalVerdict:
    """One-hole order preservation, by a closed form on body marginals.

    ``w`` is the body of a one-hole supermap: inputs are the slot wires
    ``[slot-in..., slot-out...]`` (split by ``in_split``), outputs are the
    produced channel's wires ``[chan-in..., chan-out...]`` (split by
    ``out_split``).  Holds iff filling the hole with any causal channel
    yields a causal channel.
    """
    si, so, ci, co = _sides(w, in_split, out_split)
    m = _marginal(w, out_split, side_a=True)
    gap_slot = float(np.linalg.norm(_defect(m, (si, so, ci), 1)))
    gap_norm = frobenius_distance(partial_trace(m, (si, so, ci), keep=(2,)) / so, np.eye(ci))
    residual = hypot(gap_slot, gap_norm)
    return CausalVerdict(residual <= eps, residual, None, {"gap_slot": gap_slot, "gap_norm": gap_norm})


def is_soc_oracle(w: Process, in_split: int = 1, out_split: int = 1, eps: float = DEFAULT_EPS) -> CausalVerdict:
    """Same predicate as :func:`is_soc`, decided by exhausting an affine
    basis of causal arguments through the hole and checking every output.
    The whole basis goes through the hole as one stack."""
    si, so, ci, co = _sides(w, in_split, out_split)
    outs = apply_to_state(w, causal_affine_basis(si, so))
    wit = partial_trace(outs, (ci, co), keep=(0,)) - np.eye(ci)
    # The base point's witness, then each direction's change from it.
    wit[1:] -= wit[:1]
    residual = float(np.linalg.norm(wit))
    return CausalVerdict(residual <= eps, residual, None)


def is_soc2(w: BipartiteSupermap, eps: float = DEFAULT_EPS) -> CausalVerdict:
    """Two-hole order preservation: every pair of causal fillings (applied
    to either hole independently) must come out causal.  Closed form."""
    a1, a2, b1, b2, c1 = w.a_in, w.a_out, w.b_in, w.b_out, w.c_in
    d5 = (a1, a2, b1, b2, c1)
    m = partial_trace(w.body.tensor, w.body.factor_dims, keep=(0, 1, 2, 3, 4))

    gap_a = float(np.linalg.norm(_defect(partial_trace(m, d5, keep=(0, 1, 4)) / b2, (a1, a2, c1), 1)))
    gap_b = float(np.linalg.norm(_defect(partial_trace(m, d5, keep=(2, 3, 4)) / a2, (b1, b2, c1), 1)))
    # The overall normalization gap is shared between the two sides, so it
    # is counted once.
    gap_norm = frobenius_distance(partial_trace(m, d5, keep=(4,)) / (a2 * b2), np.eye(c1))
    # With P_k m = Tr_k(m)/d_k (x) I_k, the cross term m - P_A2 m - P_B2 m
    # + P_A2 P_B2 m is (1 - P_A2)(1 - P_B2) m.
    gap_cross = float(np.linalg.norm(_defect(_defect(m, d5, 3), d5, 1)))

    residual = sqrt(gap_a**2 + gap_b**2 + gap_norm**2 + gap_cross**2)
    parts = {"gap_a": gap_a, "gap_b": gap_b, "gap_norm": gap_norm, "gap_cross": gap_cross}
    return CausalVerdict(residual <= eps, float(residual), None, parts)


def is_soc2_oracle(w: BipartiteSupermap, eps: float = DEFAULT_EPS) -> CausalVerdict:
    """Same predicate as :func:`is_soc2`, decided by filling both holes with
    affine bases of causal channels through the public insertion path.
    Every pair of basis arguments is filled by one stacked insertion."""
    grid = insert_stacked(w, causal_affine_basis(w.a_in, w.a_out), causal_affine_basis(w.b_in, w.b_out))
    wit = partial_trace(grid, (w.c_in, w.c_out), keep=(0,)) - np.eye(w.c_in)
    # Successive differences leave the base pair's witness at [0, 0], each
    # hole's first-order changes along the edges, and the mixed second
    # differences inside.
    wit[1:] -= wit[:1]
    wit[:, 1:] -= wit[:, :1]
    residual = float(np.linalg.norm(wit))
    return CausalVerdict(residual <= eps, residual, None)


def probe_states(d: int) -> list[np.ndarray]:
    """An informationally complete family of ``d**2`` density matrices:
    basis projectors plus two superposition probes per index pair."""
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
    """
    d, dout = in_sys.total, out_sys.total
    probes = [np.asarray(p, dtype=complex) for p in (probe_states(d) if probes is None else probes)]
    a = np.stack([p.ravel() for p in probes])
    s = np.linalg.svd(a, compute_uv=False)
    rank = int(np.sum(s > max(a.shape) * np.finfo(float).eps * s[0])) if s.size else 0
    if rank < d * d:
        raise ReconstructionError(f"probe family spans {rank} of {d * d} dimensions")
    b = np.stack([np.asarray(black_box(p), dtype=complex).ravel() for p in probes])
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    choi4 = x.reshape(d, d, dout, dout).transpose(0, 2, 1, 3)
    return Process(in_sys, out_sys, choi4.reshape(d * dout, d * dout))
