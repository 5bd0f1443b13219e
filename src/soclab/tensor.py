"""Dense tensor helpers for finite-dimensional multipartite systems.

Everything here works on plain complex numpy matrices.  A composite system
is described by the tuple of its factor dimensions, leftmost factor first,
and the matrix indexes the factors in row-major (kron) order.

:func:`link` and :func:`partial_trace` work out their checks and index
bookkeeping once per set of shapes, as a plan kept in an ``lru_cache``
(the idea of opt_einsum's reusable contraction expressions, Smith & Gray,
JOSS 3(26):753, 2018).  A call then only reshapes, transposes and makes
one ``np.dot``, ``np.matmul``, ``np.multiply`` or ``np.einsum``.  A link
that sums is one GEMM, ``np.dot`` or, for paired stacks, one per pair;
a link that sums nothing is an exact product, the bits ``np.kron``
gives.  A failing check is never cached, so each call still raises
before anything is allocated.  Every residual is summed by :func:`norm`,
in one ``np.einsum``, not in BLAS dots that split the sum across threads,
so its bits do not depend on the BLAS thread count.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from math import isfinite, prod, sqrt
from operator import index
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError

DEFAULT_EPS = 1e-9

# Guard against building matrices that will not fit in memory.
MAX_SIDE = 1 << 13

# Contraction plans remembered per kind; a run uses a few dozen shapes.
PLANS = 256

# numpy asks Linux for huge pages for every allocation this large (2**18 complex
# entries): :func:`_zeros` maps such arrays, ``partial_trace`` slices such results.
HUGE_PAGE_BYTES = 1 << 22


def check_size(shape: Sequence[int], what: str) -> None:
    """Raise :class:`DimensionError` when an array of ``shape`` would hold
    more than ``MAX_SIDE**2`` elements; call it before allocating one."""
    if prod(shape) > MAX_SIDE * MAX_SIDE:
        raise DimensionError(f"{what} of shape {tuple(shape)} exceeds limit of {MAX_SIDE}**2 elements")


def _check_weights(weights: Sequence[float], what: str) -> None:
    """Refuse a weight that is NaN or infinite, naming ``what`` it weighs (a mix, a pseudo-state)."""
    for r in weights:
        if not np.isfinite(r):
            raise DimensionError(f"{what} weights must be finite numbers, got {r!r}")


def _zeros(shape: Sequence[int]) -> np.ndarray:
    """A writable complex array of zeros, for a sparse body to be written
    into.  One of :data:`HUGE_PAGE_BYTES` or more is a private anonymous
    mapping (POSIX), whose pages all read the kernel's zero page until
    written, so only the pages written take memory; ``np.zeros`` would get
    huge pages there, which scattered writes back in full.  A smaller one
    comes from ``np.zeros``, which is faster to make."""
    nbytes = prod(shape) * np.dtype(complex).itemsize
    if nbytes < HUGE_PAGE_BYTES:
        return np.zeros(shape, dtype=complex)
    return np.frombuffer(mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE), dtype=complex).reshape(shape)


@dataclass(frozen=True)
class System:
    """An ordered list of tensor factors, e.g. ``System((2, 3))``."""

    dims: tuple[int, ...]

    def __post_init__(self):
        # operator.index takes Python and numpy integers and refuses floats
        # and strings, which int() would truncate or parse; to it a bool is
        # an int, so bools are refused by type.  One pass over the dims.
        dims = []
        try:
            for d in self.dims:
                if type(d) is bool or (d := index(d)) < 1:
                    raise TypeError
                dims.append(d)
        except TypeError:
            raise DimensionError(f"factor dimensions must be positive integers, got {self.dims!r}") from None
        object.__setattr__(self, "dims", tuple(dims))

    @property
    def total(self) -> int:
        return prod(self.dims)

    def __add__(self, other: "System") -> "System":
        return System(self.dims + other.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, i) -> int:
        return self.dims[i]

    def __iter__(self):
        return iter(self.dims)


UNIT = System(())


def as_matrix(m: np.ndarray | Iterable, side: int | None = None) -> np.ndarray:
    """Coerce to a square complex matrix, optionally checking its side."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if side is not None and a.shape[0] != side:
        raise DimensionError(f"expected side {side}, got {a.shape[0]}")
    return a


def kron(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of any number of matrices (empty product is [[1]])."""
    if not mats:
        return np.eye(1, dtype=complex)
    side = prod(m.shape[0] for m in mats)
    check_size((side, side), "kron result")
    return reduce(np.kron, [np.asarray(m, dtype=complex) for m in mats])


def _check_stack(shape: tuple[int, ...], side: int) -> tuple[int, ...]:
    if len(shape) < 2 or shape[-2:] != (side, side):
        raise DimensionError(f"expected a stack of {side} x {side} matrices, got shape {shape}")
    return shape


def as_stack(m: np.ndarray | Iterable, side: int) -> np.ndarray:
    """Coerce to a complex array whose last two axes are ``side x side``;
    any axes before them are batch axes, so one matrix is a stack of none."""
    a = np.asarray(m, dtype=complex)
    _check_stack(a.shape, side)
    return a


class _Plan(NamedTuple):
    """How :func:`link` contracts one set of shapes.  Each operand is
    reshaped, transposed and reshaped again, ``op`` takes the two, and its
    result is reshaped, transposed and reshaped to ``shape``."""

    op: Callable
    p: tuple[tuple, tuple, tuple]
    q: tuple[tuple, tuple, tuple]
    t: tuple[tuple, tuple]
    shape: tuple[int, ...]


@lru_cache(maxsize=PLANS)
def _link_plan(p_dims, p_wires, q_dims, q_wires, order, pb, qb, paired) -> _Plan:
    """Every check and every index list of :func:`link`, from shapes alone:
    one ``np.dot``, or stacked ``np.matmul`` for paired stacks, when the
    link sums, and a broadcast ``np.multiply`` when it sums nothing."""
    if [p_dims[i] for i in p_wires] != [q_dims[j] for j in q_wires]:
        raise DimensionError(f"cannot link wires {p_wires} of {p_dims} with wires {q_wires} of {q_dims}")
    free = [d for k, d in enumerate(p_dims) if k not in p_wires] + [d for k, d in enumerate(q_dims) if k not in q_wires]
    side = prod(free)
    batch = np.broadcast_shapes(pb, qb) if paired else pb + qb
    shape = batch + (side, side)
    check_size(shape, "link result")
    n, m = len(p_dims), len(q_dims)
    pt, qt = pb + p_dims + p_dims, qb + q_dims + q_dims
    # Wire axes of each factor tensor, rows then columns, and its other axes
    # in order, batch axes first.
    kp, kq = len(pb), len(qb)
    pw, qw = [kp + i for i in p_wires] + [kp + n + i for i in p_wires], [kq + j for j in q_wires] + [kq + m + j for j in q_wires]
    pf, qf = [i for i in range(len(pt)) if i not in pw], [j for j in range(len(qt)) if j not in qw]
    fps, fqs = tuple(pt[i] for i in pf[kp:]), tuple(qt[j] for j in qf[kq:])
    inner = prod(p_dims[i] for i in p_wires) ** 2  # entries summed per result entry
    # The result's rows then columns, as positions in [p rows, p columns,
    # q rows, q columns], the rows and columns being those of the free factors.
    fp, fq = n - len(p_wires), m - len(q_wires)
    rows = [*range(fp), *range(2 * fp, 2 * fp + fq)]
    cols = [*range(fp, 2 * fp), *range(2 * fp + fq, 2 * (fp + fq))]
    if order is not None:
        rows, cols = [rows[k] for k in order], [cols[k] for k in order]
    final = rows + cols
    if inner == 1:
        # Nothing is summed: a broadcast np.multiply writes the product
        # C-ordered in the result's order, so the last reshape is a view,
        # not a copy (numpy's default would follow the operands' order).  Each
        # operand's view is permuted to that order, with dimension-1 axes for
        # the other's factors and, unless paired, q's batch axes after p's;
        # its dimension-1 wires go last and the reshape drops them.
        pa = pf[:kp] + [pf[kp + k] for k in final if k < 2 * fp] + pw
        qa = qf[:kq] + [qf[kq + k - 2 * fp] for k in final if k >= 2 * fp] + qw
        pm = pb + (() if paired else (1,) * kq) + tuple(fps[k] if k < 2 * fp else 1 for k in final)
        qm = qb + tuple(fqs[k - 2 * fp] if k >= 2 * fp else 1 for k in final)
        return _Plan(partial(np.multiply, order="C"), (pt, tuple(pa), pm), (qt, tuple(qa), qm), (shape, tuple(range(len(shape)))), shape)
    if paired and pb + qb:
        # Each pair's free axes against its wires, times the wires against
        # q's free axes: one stacked matmul makes each pair's own product.
        op, pa, qa = np.matmul, pf + pw, qf[:kq] + qw + qf[kq:]
        pm, qm = pb + (prod(fps), inner), qb + (inner, prod(fqs))
        t, kp, kq = batch + fps + fqs, len(batch), 0
    else:
        op, pa, qa = np.dot, pf + pw, qw + qf
        pm, qm = (prod(pb + fps), inner), (inner, prod(qb + fqs))
        t = pb + fps + qb + fqs
    # t holds [p batch, p rows, p columns, q batch, q rows, q columns].
    q0 = kp + 2 * fp + kq  # q's first row axis
    axes = (*range(kp), *range(kp + 2 * fp, q0), *(kp + k if k < 2 * fp else q0 + k - 2 * fp for k in final))
    return _Plan(op, (pt, tuple(pa), pm), (qt, tuple(qa), qm), (t, axes), shape)


def _contract(plan: _Plan, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    (ps, pa, pm), (qs, qa, qm), (ts, ta) = plan.p, plan.q, plan.t
    c = plan.op(p.reshape(ps).transpose(pa).reshape(pm), q.reshape(qs).transpose(qa).reshape(qm))
    return c.reshape(ts).transpose(ta).reshape(plan.shape)


def link(
    p: np.ndarray,
    p_dims: Sequence[int],
    p_wires: Sequence[int],
    q: np.ndarray,
    q_dims: Sequence[int],
    q_wires: Sequence[int],
    order: Sequence[int] | None = None,
    paired: bool = False,
) -> np.ndarray:
    """Contract factor ``p_wires[k]`` of ``p`` with factor ``q_wires[k]`` of ``q``.

    Rows pair with rows and columns with columns, the package's composition
    convention: ``c[a s, c t] = sum_pq p[a p, c q] q[p s, q t]``.  The free
    factors of ``p`` then those of ``q`` make the result, permuted so that
    its factor ``k`` is free factor ``order[k]``.  With no wires this is the
    tensor product.

    Every axis of ``p`` or ``q`` before its last two is a batch axis.  By
    default the batch axes are *outer*: the result carries ``p``'s batch
    axes, then ``q``'s, so that every pair from two stacks is linked by the
    same one contraction.  With ``paired`` they are matched as ``matmul``'s
    stack is: they broadcast against each other, so matrix ``t`` of one
    stack links with matrix ``t`` of the other, and a single matrix with
    every matrix of a stack.

    A link that sums is one GEMM, ``np.dot`` or, with ``paired``, one per
    pair in a stacked ``np.matmul``; a link that sums nothing (no wires, or
    wires of total dimension 1) is an exact product, the bits ``np.kron``
    gives.  The index bookkeeping is planned once per set of shapes, and
    every check runs before anything is allocated, including the result's
    size against ``MAX_SIDE**2`` elements.
    """
    key = (tuple(p_dims), tuple(p_wires), tuple(q_dims), tuple(q_wires), None if order is None else tuple(order))
    return _contract(_link_plan(*key, p.shape[:-2], q.shape[:-2], paired), p, q)


@lru_cache(maxsize=PLANS)
def _trace_plan(dims, keep, shape):
    """Every check and the einsum sublists of :func:`partial_trace` (none
    for a reshape), and for a large result those of one slice of its first
    kept factor's row axis."""
    n = len(dims)
    if len(set(keep)) != len(keep) or any(not 0 <= k < n for k in keep):
        raise DimensionError(f"bad keep={keep} for {n} factors")
    batch = () if shape == dims + dims else _check_stack(shape, prod(dims))[:-2]
    side = prod(dims[k] for k in keep)
    if list(keep) == sorted(keep) and side == prod(dims):
        return None, None, batch + (side, side), None
    # Sublist einsum: row axis i gets index i, column axis i gets index n+i,
    # then identify row with column on every traced factor.
    subs = list(range(2 * n))
    for i in range(n):
        if i not in keep:
            subs[n + i] = subs[i]
    t, out = batch + dims + dims, (*keep, *(n + k for k in keep))
    whole = (..., *subs), (..., *out)
    if batch or not keep or side * side * np.dtype(complex).itemsize < HUGE_PAGE_BYTES:
        return t, whole, batch + (side, side), None
    del subs[keep[0]]
    rows = tuple(dims[k] for k in keep)
    return t, whole, (side, side), (keep[0], rows + rows, tuple(subs), out[1:])


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all factors not listed in ``keep``.

    Output factors follow the order given in ``keep``; an empty ``keep``
    yields the full trace as a 1x1 matrix.  ``m`` is either a factor tensor
    of shape ``dims + dims`` (a process's :attr:`tensor`, strided views
    included), which is read in place, or a matrix; axes of a matrix before
    its last two are batch axes and are kept as they are.  Checks and
    einsum subscripts are planned once per set of shapes.  A result of
    :data:`HUGE_PAGE_BYTES` or more, not a stack, that one einsum would give
    out of C order for ``reshape`` to copy is written into one C-ordered
    array, one slice of its first kept factor at a time, to the same bits.
    A trace of factors of dimension 1 only, keeping the rest in order, is
    ``m.reshape``: a view of ``m`` where its strides allow, whose ``-0.0``
    entries stay (einsum's sum gives ``+0.0``).
    """
    m = np.asarray(m, dtype=complex)
    t, whole, shape, sliced = _trace_plan(tuple(dims), tuple(keep), m.shape)
    if whole is None:
        return m.reshape(shape)
    subs, out = whole
    # A contiguous input kept in its own order gives a C-ordered einsum output.
    if sliced is None or (m.flags.c_contiguous and list(keep) == sorted(keep)):
        return np.einsum(m.reshape(t), subs, out).reshape(shape)
    axis, rows, subs, out = sliced
    res = np.empty(rows, dtype=complex)
    for i, part in enumerate(np.moveaxis(m.reshape(t), axis, 0)):
        res[i] = np.einsum(part, subs, out)
    return res.reshape(shape)


def permute_subsystems(m: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors: factor ``k`` of the result is factor ``perm[k]`` of the input."""
    dims = tuple(dims)
    n = len(dims)
    m = as_matrix(m, prod(dims))
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise DimensionError(f"perm {perm} is not a permutation of range({n})")
    t = m.reshape(dims + dims)
    axes = perm + tuple(n + p for p in perm)
    return t.transpose(axes).reshape(m.shape)


def norm(x: np.ndarray | Iterable) -> float:
    """The Frobenius norm of every entry of ``x``: one ``np.einsum`` over its
    contiguous float view, complex entries read as interleaved re/im, so
    contiguous input is neither copied nor squared into a temporary."""
    v = np.ascontiguousarray(x, dtype=complex if np.iscomplexobj(x) else float).reshape(-1).view(float)
    total = np.einsum("i,i->", v, v)
    if not isfinite(total) and np.isfinite(v).all():
        # Squares of entries past about 1e154 overflow; scaling by a power
        # of two brings the largest below 1 and is exact.
        scale = 2.0 ** -int(np.frexp(np.abs(v).max())[1])
        v = v * scale
        return sqrt(np.einsum("i,i->", v, v)) / scale
    return sqrt(total)


def is_hermitian(m: np.ndarray, eps: float = DEFAULT_EPS) -> bool:
    m = np.asarray(m)
    return bool(norm(m - m.conj().T) <= eps)


def is_psd(m: np.ndarray, eps: float = DEFAULT_EPS) -> bool:
    m = np.asarray(m)
    if not is_hermitian(m, eps):
        return False
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return bool(w.min(initial=0.0) >= -eps)


@lru_cache(maxsize=None)
def hermitian_basis(d: int) -> tuple[np.ndarray, ...]:
    """Orthonormal Hermitian basis of d x d matrices under <A,B> = Tr(A†B).

    The first element is I/sqrt(d); the rest are traceless (generalized
    Gell-Mann matrices), so affine expansions read coefficients off by
    Hilbert-Schmidt inner products.
    """
    check_size((d * d, d, d), "Hermitian basis")
    out: list[np.ndarray] = [np.eye(d, dtype=complex) / sqrt(d)]
    for i in range(d):
        for j in range(i + 1, d):
            x = np.zeros((d, d), dtype=complex)
            x[i, j] = x[j, i] = 1 / sqrt(2)
            y = np.zeros((d, d), dtype=complex)
            y[i, j] = -1j / sqrt(2)
            y[j, i] = 1j / sqrt(2)
            out.extend([x, y])
    for k in range(1, d):
        z = np.zeros((d, d), dtype=complex)
        z[:k, :k] = np.eye(k)
        z[k, k] = -k
        out.append(z / sqrt(k * (k + 1)))
    for m in out:
        m.setflags(write=False)
    return tuple(out)
