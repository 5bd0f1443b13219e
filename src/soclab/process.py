"""Linear maps between multipartite systems, stored as Choi matrices.

Conventions, fixed once for the whole package:

* ``choi(f) = sum_ij |i><j| (x) f(|i><j|)``, unnormalized, so the identity
  channel on dimension d has Choi matrix ``sum_ij |ii><jj|`` with trace d.
* A process's Choi matrix lives on the factor list ``in_sys + out_sys``
  (inputs first), in row-major kron order, leftmost factor first.
* States are processes from the empty system; effects are processes to it.
* Moving a factor between the input and output lists while keeping its
  position in the concatenated list does not change the Choi data at all,
  which is what :func:`bend` and :func:`unbend` exploit.

Processes are not forced to be completely positive: ``cp_flag`` records
whether positivity is known (True), known to fail (False), or untracked
(None).  Several constructions here deliberately produce non-CP data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Sequence

import numpy as np

from .errors import DimensionError, WireMismatchError
from .tensor import System, UNIT, as_matrix, as_stack, frobenius_distance, is_psd, link, permute_subsystems


@dataclass(frozen=True, eq=False)
class Process:
    in_sys: System
    out_sys: System
    choi: np.ndarray = field(repr=False)
    cp_flag: bool | None = None

    def __post_init__(self):
        side = self.in_sys.total * self.out_sys.total
        m = as_matrix(self.choi, side).copy()
        m.setflags(write=False)
        object.__setattr__(self, "choi", m)

    @property
    def factor_dims(self) -> tuple[int, ...]:
        """All Choi factors in order: input dims then output dims."""
        return self.in_sys.dims + self.out_sys.dims

    @property
    def n_in(self) -> int:
        return len(self.in_sys)

    def __repr__(self) -> str:
        return f"Process(in={self.in_sys.dims}, out={self.out_sys.dims}, cp={self.cp_flag})"


def processes_close(f: Process, g: Process, eps: float) -> bool:
    """Same wiring types and Choi matrices within ``eps`` in Frobenius norm."""
    if f.in_sys.dims != g.in_sys.dims or f.out_sys.dims != g.out_sys.dims:
        return False
    return frobenius_distance(f.choi, g.choi) <= eps


def _omega(total: int) -> np.ndarray:
    v = np.eye(total, dtype=complex).ravel()
    return np.outer(v, v)


def identity_process(sys: System) -> Process:
    return Process(sys, sys, _omega(sys.total), cp_flag=True)


def cup(sys: System) -> Process:
    """State on ``sys + sys`` whose halves are maximally correlated (unnormalized)."""
    return Process(UNIT, sys + sys, _omega(sys.total), cp_flag=True)


def cap(sys: System) -> Process:
    """Effect on ``sys + sys`` pairing the two halves; the partner of :func:`cup`."""
    return Process(sys + sys, UNIT, _omega(sys.total), cp_flag=True)


def discard_process(sys: System) -> Process:
    """The trace effect: sends any state on ``sys`` to its trace."""
    return Process(sys, UNIT, np.eye(sys.total, dtype=complex), cp_flag=True)


def make_state(rho: np.ndarray, sys: System) -> Process:
    return Process(UNIT, sys, as_matrix(rho, sys.total))


def make_effect(e: np.ndarray, sys: System) -> Process:
    """Effect ``rho -> Tr(e rho)``; its Choi matrix is ``e`` transposed."""
    return Process(sys, UNIT, as_matrix(e, sys.total).T)


def channel_from_kraus(kraus: Sequence[np.ndarray], in_sys: System, out_sys: System) -> Process:
    c = np.zeros((in_sys.total * out_sys.total,) * 2, dtype=complex)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        if k.shape != (out_sys.total, in_sys.total):
            raise DimensionError(f"Kraus operator shape {k.shape} does not match {out_sys.total}x{in_sys.total}")
        v = k.T.ravel()
        c += np.outer(v, v.conj())
    return Process(in_sys, out_sys, c, cp_flag=True)


def channel_from_unitary(u: np.ndarray, in_sys: System, out_sys: System) -> Process:
    return channel_from_kraus([u], in_sys, out_sys)


def swap_process(a: System, b: System) -> Process:
    """The channel conjugating by the swap unitary ``A (x) B -> B (x) A``."""
    da, db = a.total, b.total
    u = np.eye(da * db).reshape(da, db, da * db).transpose(1, 0, 2).reshape(da * db, da * db)
    return channel_from_unitary(u, a + b, b + a)


def compose_seq(f: Process, g: Process) -> Process:
    """Run ``f`` then ``g`` (so the result is ``g`` after ``f``)."""
    if f.out_sys.dims != g.in_sys.dims:
        raise WireMismatchError(f"cannot plug output {f.out_sys.dims} into input {g.in_sys.dims}")
    x, y, z = f.in_sys.total, f.out_sys.total, g.out_sys.total
    c = link(f.choi, (x, y), [1], g.choi, (y, z), [0])
    cp = True if (f.cp_flag and g.cp_flag) else None
    return Process(f.in_sys, g.out_sys, c, cp_flag=cp)


def compose_par(f: Process, g: Process) -> Process:
    """Place ``f`` and ``g`` side by side: inputs concatenate, outputs concatenate."""
    fd, gd = (f.in_sys.total, f.out_sys.total), (g.in_sys.total, g.out_sys.total)
    # Free factors [f.in, f.out, g.in, g.out], gathered into [ins | outs].
    c = link(f.choi, fd, [], g.choi, gd, [], (0, 2, 1, 3))
    cp = True if (f.cp_flag and g.cp_flag) else None
    return Process(f.in_sys + g.in_sys, f.out_sys + g.out_sys, c, cp_flag=cp)


def move_boundary(p: Process, n_in: int) -> Process:
    """Re-read the same Choi data with the first ``n_in`` factors as inputs.

    The concatenated factor list is untouched, so this is free: it neither
    permutes nor transposes anything.
    """
    dims = p.factor_dims
    if not 0 <= n_in <= len(dims):
        raise DimensionError(f"n_in={n_in} out of range for {len(dims)} factors")
    return Process(System(dims[:n_in]), System(dims[n_in:]), p.choi, cp_flag=p.cp_flag)


def bend(p: Process) -> Process:
    """Turn every input wire into an output, yielding a state."""
    return move_boundary(p, 0)


def unbend(p: Process, n_in: int) -> Process:
    return move_boundary(p, n_in)


def relabel(p: Process, in_dims: Sequence[int], out_dims: Sequence[int]) -> Process:
    """Regroup factors (merge or split) without reordering the underlying basis."""
    if prod(in_dims) != p.in_sys.total or prod(out_dims) != p.out_sys.total:
        raise DimensionError(
            f"relabel to in={tuple(in_dims)} out={tuple(out_dims)} changes totals "
            f"{p.in_sys.total}x{p.out_sys.total}"
        )
    return Process(System(tuple(in_dims)), System(tuple(out_dims)), p.choi, cp_flag=p.cp_flag)


def _sides(p: Process, in_split: int, out_split: int) -> tuple[int, int, int, int]:
    """Totals ``(A-in, B-in, A-out, B-out)`` of ``p`` read as a bipartite
    map whose first ``in_split`` inputs and ``out_split`` outputs are A's."""
    ins, outs = p.in_sys.dims, p.out_sys.dims
    return prod(ins[:in_split]), prod(ins[in_split:]), prod(outs[:out_split]), prod(outs[out_split:])


def rewire(p: Process, in_positions: Sequence[int], out_positions: Sequence[int]) -> Process:
    """Pick a new input/output split of the factor list, in any order.

    Positions index into ``p.factor_dims``.  Together they must use every
    factor exactly once.  Combines a factor permutation with a boundary
    move, so wires keep their identity while the matrix is reindexed.
    """
    order = tuple(in_positions) + tuple(out_positions)
    dims = p.factor_dims
    c = permute_subsystems(p.choi, dims, order)
    new_in = System(tuple(dims[q] for q in in_positions))
    new_out = System(tuple(dims[q] for q in out_positions))
    return Process(new_in, new_out, c, cp_flag=p.cp_flag)


def permute_input_factors(p: Process, perm: Sequence[int]) -> Process:
    full = list(perm) + [p.n_in + k for k in range(len(p.out_sys))]
    c = permute_subsystems(p.choi, p.factor_dims, full)
    return Process(System(tuple(p.in_sys.dims[q] for q in perm)), p.out_sys, c, cp_flag=p.cp_flag)


def permute_output_factors(p: Process, perm: Sequence[int]) -> Process:
    full = list(range(p.n_in)) + [p.n_in + q for q in perm]
    c = permute_subsystems(p.choi, p.factor_dims, full)
    return Process(p.in_sys, System(tuple(p.out_sys.dims[q] for q in perm)), c, cp_flag=p.cp_flag)


def apply_to_state(f: Process, rho: np.ndarray) -> np.ndarray:
    """Evaluate the map on a concrete input matrix, or on every matrix of a
    stack of them (axes before the last two), in one contraction."""
    x, y = f.in_sys.total, f.out_sys.total
    return link(as_stack(rho, x), (x,), [0], f.choi, (x, y), [0])


def random_density(sys: System, seed=None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    d = sys.total
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_causal_channel(in_sys: System, out_sys: System, env_dim: int | None = None, seed=None) -> Process:
    """Haar-style random trace-preserving CP map via a random isometry."""
    rng = np.random.default_rng(seed)
    d_in, d_out = in_sys.total, out_sys.total
    env = env_dim if env_dim is not None else d_in * d_out
    if d_out * env < d_in:
        raise DimensionError(f"environment {env} too small to embed input {d_in}")
    g = rng.standard_normal((d_out * env, d_in)) + 1j * rng.standard_normal((d_out * env, d_in))
    q, r = np.linalg.qr(g)
    # Fix the phase ambiguity so the column span is a proper isometry draw.
    diag = np.diagonal(r).copy()
    diag[np.abs(diag) == 0] = 1.0
    q = q * (diag / np.abs(diag))
    v = q.reshape(d_out, env, d_in)
    return channel_from_kraus([v[:, k, :] for k in range(env)], in_sys, out_sys)


def process_to_dict(p: Process) -> dict:
    """Wire format: dims plus the Choi matrix as nested [re, im] pairs."""
    c = np.stack([p.choi.real, p.choi.imag], axis=-1)
    return {"in": list(p.in_sys.dims), "out": list(p.out_sys.dims), "choi": c.tolist()}


def process_from_dict(d: dict) -> Process:
    try:
        in_sys = System(tuple(d["in"]))
        out_sys = System(tuple(d["out"]))
        arr = np.asarray(d["choi"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionError(f"malformed process record: {exc}") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"choi entries must be square [re, im] pairs, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionError("choi entries must be finite numbers")
    choi = arr[..., 0] + 1j * arr[..., 1]
    p = Process(in_sys, out_sys, choi)
    return Process(p.in_sys, p.out_sys, p.choi, cp_flag=True if is_psd(p.choi) else False)
