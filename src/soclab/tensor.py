"""Dense tensor helpers for finite-dimensional multipartite systems.

Everything here works on plain complex numpy matrices.  A composite system
is described by the tuple of its factor dimensions, leftmost factor first,
and the matrix indexes the factors in row-major (kron) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import prod, sqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError

DEFAULT_EPS = 1e-9

# Guard against building matrices that will not fit in memory.
MAX_SIDE = 1 << 13


@dataclass(frozen=True)
class System:
    """An ordered list of tensor factors, e.g. ``System((2, 3))``."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise DimensionError(f"factor dimensions must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)

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
    if side > MAX_SIDE:
        raise DimensionError(f"kron result side {side} exceeds limit {MAX_SIDE}")
    return reduce(np.kron, [np.asarray(m, dtype=complex) for m in mats])


def link(
    p: np.ndarray,
    p_dims: Sequence[int],
    p_wires: Sequence[int],
    q: np.ndarray,
    q_dims: Sequence[int],
    q_wires: Sequence[int],
    order: Sequence[int] | None = None,
) -> np.ndarray:
    """Contract factor ``p_wires[k]`` of ``p`` with factor ``q_wires[k]`` of ``q``.

    Rows pair with rows and columns with columns, the package's composition
    convention: ``c[a s, c t] = sum_pq p[a p, c q] q[p s, q t]``.  The free
    factors of ``p`` then those of ``q`` make the result, permuted so that
    its factor ``k`` is free factor ``order[k]``.  With no wires this is the
    tensor product.  The result's side is checked against :data:`MAX_SIDE`
    before anything is allocated.
    """
    p_dims, q_dims, p_wires, q_wires = tuple(p_dims), tuple(q_dims), tuple(p_wires), tuple(q_wires)
    if [p_dims[i] for i in p_wires] != [q_dims[j] for j in q_wires]:
        raise DimensionError(f"cannot link wires {p_wires} of {p_dims} with wires {q_wires} of {q_dims}")
    free = [d for k, d in enumerate(p_dims) if k not in p_wires] + [d for k, d in enumerate(q_dims) if k not in q_wires]
    side = prod(free)
    if side > MAX_SIDE:
        raise DimensionError(f"link result side {side} exceeds limit {MAX_SIDE}")
    n, m = len(p_dims), len(q_dims)
    pt, qt = p.reshape(p_dims + p_dims), q.reshape(q_dims + q_dims)
    if p_wires:
        axes = (p_wires + tuple(n + i for i in p_wires), q_wires + tuple(m + j for j in q_wires))
        t = np.tensordot(pt, qt, axes=axes)
    else:
        # Exact products, as np.kron gives; a rank-one GEMM may round differently.
        t = np.multiply.outer(pt, qt)
    # t holds [p rows, p columns, q rows, q columns] of the free factors.
    fp, nf = n - len(p_wires), len(free)
    rows = [*range(fp), *range(2 * fp, fp + nf)]
    cols = [*range(fp, 2 * fp), *range(fp + nf, 2 * nf)]
    order = range(nf) if order is None else order
    return t.transpose([rows[k] for k in order] + [cols[k] for k in order]).reshape(side, side)


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all factors not listed in ``keep``.

    Output factors follow the order given in ``keep``; an empty ``keep``
    yields the full trace as a 1x1 matrix.
    """
    dims = tuple(dims)
    n = len(dims)
    m = as_matrix(m, prod(dims))
    keep = tuple(keep)
    if len(set(keep)) != len(keep) or any(not 0 <= k < n for k in keep):
        raise DimensionError(f"bad keep={keep} for {n} factors")
    t = m.reshape(dims + dims)
    # Sublist einsum: row axis i gets index i, column axis i gets index n+i,
    # then identify row with column on every traced factor.
    subs = list(range(2 * n))
    for i in range(n):
        if i not in keep:
            subs[n + i] = subs[i]
    out = [k for k in keep] + [n + k for k in keep]
    side = prod(dims[k] for k in keep)
    return np.einsum(t, subs, out).reshape(side, side)


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


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def is_hermitian(m: np.ndarray, eps: float = DEFAULT_EPS) -> bool:
    m = np.asarray(m)
    return bool(np.linalg.norm(m - m.conj().T) <= eps)


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
