"""Linear maps between multipartite systems, stored as Choi matrices.

Conventions, fixed once for the whole package:

* ``choi(f) = sum_ij |i><j| (x) f(|i><j|)``, unnormalized, so the identity
  channel on dimension d has Choi matrix ``sum_ij |ii><jj|`` with trace d.
* A process's Choi matrix lives on the factor list ``in_sys + out_sys``
  (inputs first), in row-major kron order, leftmost factor first.
* States are processes from the empty system; effects are processes to it.
* Moving a factor between the input and output lists while keeping its
  position in the concatenated list does not change the Choi data at all,
  which is what :func:`move_boundary` and :func:`bend` exploit.

A process stores its data once, as a read-only *factor tensor* with one row
axis and one column axis per factor (shape ``factor_dims + factor_dims``).
Reordering or regrouping factors returns a strided view of that tensor, not
a copy, and the 2-D :attr:`Process.choi` is made from it on first use.  The
public constructor copies the caller's array, so no caller can change a
process after the fact, and rejects non-finite entries.

Processes are not forced to be completely positive: ``cp_flag`` records
whether positivity is known (True), known to fail (False), or untracked
(None).  Several constructions here deliberately produce non-CP data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from typing import Sequence

import numpy as np

from .errors import DimensionError, WireMismatchError
from .tensor import System, UNIT, as_matrix, as_stack, frobenius_distance, is_psd, link


@dataclass(frozen=True, eq=False, init=False)
class Process:
    in_sys: System
    out_sys: System
    tensor: np.ndarray = field(repr=False)
    cp_flag: bool | None = None

    def __init__(self, in_sys: System, out_sys: System, choi: np.ndarray, cp_flag: bool | None = None):
        _set_fields(self, in_sys, out_sys, None, cp_flag)
        self.__post_init__(choi)

    def __post_init__(self, choi: np.ndarray):
        """Check ``choi`` against the wiring and keep a read-only copy of it."""
        side = self.in_sys.total * self.out_sys.total
        dims = self.factor_dims
        t = as_matrix(choi, side).copy().reshape(dims + dims)
        if not np.isfinite(t).all():
            raise DimensionError("choi entries must be finite numbers")
        t.setflags(write=False)
        object.__setattr__(self, "tensor", t)

    @classmethod
    def _adopt(cls, in_sys: System, out_sys: System, data: np.ndarray, cp_flag: bool | None = None) -> "Process":
        """The no-copy constructor, for a complex array that soclab has just
        made or for a view of a frozen parent's tensor.  ``data`` is the Choi
        matrix or any array of its size in factor-tensor order; it is
        reshaped, which copies nothing unless its strides demand it, and
        frozen, so nobody may write to it afterwards."""
        p = object.__new__(cls)
        dims = in_sys.dims + out_sys.dims
        _set_fields(p, in_sys, out_sys, data.reshape(dims + dims), cp_flag)
        p.tensor.setflags(write=False)
        return p

    @cached_property
    def choi(self) -> np.ndarray:
        """The read-only Choi matrix: a reshape of :attr:`tensor`, which is
        a copy only when the tensor is a reordering view."""
        side = self.in_sys.total * self.out_sys.total
        m = self.tensor.reshape(side, side)
        m.setflags(write=False)
        return m

    @property
    def factor_dims(self) -> tuple[int, ...]:
        """All Choi factors in order: input dims then output dims."""
        return self.in_sys.dims + self.out_sys.dims

    @property
    def n_in(self) -> int:
        return len(self.in_sys)

    def __repr__(self) -> str:
        return f"Process(in={self.in_sys.dims}, out={self.out_sys.dims}, cp={self.cp_flag})"


def _set_fields(p: Process, in_sys: System, out_sys: System, tensor, cp_flag) -> None:
    for name, value in (("in_sys", in_sys), ("out_sys", out_sys), ("tensor", tensor), ("cp_flag", cp_flag)):
        object.__setattr__(p, name, value)


def processes_close(f: Process, g: Process, eps: float) -> bool:
    """Same wiring types and Choi matrices within ``eps`` in Frobenius norm."""
    if f.in_sys.dims != g.in_sys.dims or f.out_sys.dims != g.out_sys.dims:
        return False
    return frobenius_distance(f.choi, g.choi) <= eps


def _omega(total: int) -> np.ndarray:
    v = np.eye(total, dtype=complex).ravel()
    return np.outer(v, v)


def identity_process(sys: System) -> Process:
    return Process._adopt(sys, sys, _omega(sys.total), cp_flag=True)


def cup(sys: System) -> Process:
    """State on ``sys + sys`` whose halves are maximally correlated (unnormalized)."""
    return Process._adopt(UNIT, sys + sys, _omega(sys.total), cp_flag=True)


def cap(sys: System) -> Process:
    """Effect on ``sys + sys`` pairing the two halves; the partner of :func:`cup`."""
    return Process._adopt(sys + sys, UNIT, _omega(sys.total), cp_flag=True)


def discard_process(sys: System) -> Process:
    """The trace effect: sends any state on ``sys`` to its trace."""
    return Process._adopt(sys, UNIT, np.eye(sys.total, dtype=complex), cp_flag=True)


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
    return Process._adopt(in_sys, out_sys, c, cp_flag=True)


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
    return Process._adopt(f.in_sys, g.out_sys, c, cp_flag=cp)


def compose_par(f: Process, g: Process) -> Process:
    """Place ``f`` and ``g`` side by side: inputs concatenate, outputs concatenate."""
    fd, gd = (f.in_sys.total, f.out_sys.total), (g.in_sys.total, g.out_sys.total)
    # Free factors [f.in, f.out, g.in, g.out], gathered into [ins | outs].
    c = link(f.choi, fd, [], g.choi, gd, [], (0, 2, 1, 3))
    cp = True if (f.cp_flag and g.cp_flag) else None
    return Process._adopt(f.in_sys + g.in_sys, f.out_sys + g.out_sys, c, cp_flag=cp)


def move_boundary(p: Process, n_in: int) -> Process:
    """Re-read the same Choi data with the first ``n_in`` factors as inputs.

    The concatenated factor list is untouched, so this is free: the result
    shares ``p``'s tensor.
    """
    dims = p.factor_dims
    if not 0 <= n_in <= len(dims):
        raise DimensionError(f"n_in={n_in} out of range for {len(dims)} factors")
    return Process._adopt(System(dims[:n_in]), System(dims[n_in:]), p.tensor, cp_flag=p.cp_flag)


def bend(p: Process) -> Process:
    """Turn every input wire into an output, yielding a state."""
    return move_boundary(p, 0)


def relabel(p: Process, in_dims: Sequence[int], out_dims: Sequence[int]) -> Process:
    """Regroup factors (merge or split) without reordering the underlying
    basis; a view of ``p``'s tensor when that tensor is contiguous."""
    if prod(in_dims) != p.in_sys.total or prod(out_dims) != p.out_sys.total:
        raise DimensionError(
            f"relabel to in={tuple(in_dims)} out={tuple(out_dims)} changes totals "
            f"{p.in_sys.total}x{p.out_sys.total}"
        )
    return Process._adopt(System(tuple(in_dims)), System(tuple(out_dims)), p.tensor, cp_flag=p.cp_flag)


def _split_groups(sys: System, first: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The factors of ``sys`` before and from position ``first``."""
    if not 0 <= first <= len(sys):
        raise DimensionError(f"split {first} out of range for {len(sys)} factors")
    return sys.dims[:first], sys.dims[first:]


def _sides(p: Process, in_split: int, out_split: int) -> tuple[int, int, int, int]:
    """Totals ``(A-in, B-in, A-out, B-out)`` of ``p`` read as a bipartite
    map whose first ``in_split`` inputs and ``out_split`` outputs are A's."""
    a_in, b_in = _split_groups(p.in_sys, in_split)
    a_out, b_out = _split_groups(p.out_sys, out_split)
    return prod(a_in), prod(b_in), prod(a_out), prod(b_out)


def rewire(p: Process, in_positions: Sequence[int], out_positions: Sequence[int]) -> Process:
    """Pick a new input/output split of the factor list, in any order.

    Positions index into ``p.factor_dims``.  Together they must use every
    factor exactly once.  Combines a factor permutation with a boundary
    move, so wires keep their identity while the matrix is reindexed.  The
    result is a strided view of ``p``'s tensor: nothing is copied.
    """
    order = tuple(in_positions) + tuple(out_positions)
    dims = p.factor_dims
    n = len(dims)
    if sorted(order) != list(range(n)):
        raise DimensionError(f"positions {order} do not use each of {n} factors exactly once")
    view = p.tensor.transpose(order + tuple(n + q for q in order))
    new_in = System(tuple(dims[q] for q in in_positions))
    new_out = System(tuple(dims[q] for q in out_positions))
    return Process._adopt(new_in, new_out, view, cp_flag=p.cp_flag)


def permute_input_factors(p: Process, perm: Sequence[int]) -> Process:
    return rewire(p, perm, range(p.n_in, len(p.factor_dims)))


def permute_output_factors(p: Process, perm: Sequence[int]) -> Process:
    return rewire(p, range(p.n_in), [p.n_in + q for q in perm])


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
    p = Process(in_sys, out_sys, arr[..., 0] + 1j * arr[..., 1])
    return Process._adopt(p.in_sys, p.out_sys, p.tensor, cp_flag=is_psd(p.choi))
