"""Linear maps between multipartite systems, stored as Choi matrices.

Conventions, fixed once for the whole package:

* ``choi(f) = sum_ij |i><j| (x) f(|i><j|)``, unnormalized, so the identity
  channel on dimension d has Choi matrix ``sum_ij |ii><jj|`` with trace d.
* A process's Choi matrix lives on the factor list ``in_sys + out_sys``
  (inputs first), in row-major kron order, leftmost factor first.
* States are processes from the empty system; effects are processes to it.
* Only connectivity matters: crossing two wires and bending an input round
  into an output are both a new reading of the factor list, so
  :func:`rewire` does either without touching the Choi data.

A process stores its data once, as a read-only *factor tensor* with one row
axis and one column axis per factor (shape ``factor_dims + factor_dims``).
Reordering or regrouping factors returns a strided view of that tensor, not
a copy, and the 2-D :attr:`Process.choi` is made from it on first use.  The
public constructor copies the caller's array, so no caller can change a
process after the fact, and rejects non-finite entries.

Processes are not forced to be completely positive, and several
constructions here deliberately produce non-CP data.  Positivity is not
tracked: whoever needs it asks ``tensor.is_psd(p.choi)``.

Random causal channels have one construction, which works on a stack: a
Haar-random isometry from the phase-fixed QR of a complex Gaussian matrix
(Mezzadri, math-ph/0609050), made for a whole batch of channels at once
from Gaussians laid out as if they were drawn one at a time.  It takes the
Gaussians already drawn, from one stream or, for a verification run, one
row from each trial's own stream.  :func:`random_causal_channel` is its
one-channel case.
"""

from __future__ import annotations

import json
import mmap
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import prod
from typing import Sequence

import numpy as np

from .errors import DimensionError, WireMismatchError
from .tensor import System, UNIT, as_matrix, as_stack, check_size, link, norm, partial_trace


@dataclass(frozen=True, eq=False, init=False)
class Process:
    in_sys: System
    out_sys: System
    tensor: np.ndarray = field(repr=False)

    def __init__(self, in_sys: System, out_sys: System, choi: np.ndarray):
        _set_fields(self, in_sys, out_sys, None)
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
    def _adopt(cls, in_sys: System, out_sys: System, data: np.ndarray) -> "Process":
        """The no-copy constructor, for a complex array that soclab has just
        made or for a view of a frozen parent's tensor.  ``data`` is the Choi
        matrix or any array of its size in factor-tensor order; it is
        reshaped, which copies nothing unless its strides demand it, and
        frozen, so nobody may write to it afterwards."""
        p = object.__new__(cls)
        dims = in_sys.dims + out_sys.dims
        _set_fields(p, in_sys, out_sys, data.reshape(dims + dims))
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
        return f"Process(in={self.in_sys.dims}, out={self.out_sys.dims})"


def _set_fields(p: Process, in_sys: System, out_sys: System, tensor) -> None:
    for name, value in (("in_sys", in_sys), ("out_sys", out_sys), ("tensor", tensor)):
        object.__setattr__(p, name, value)


def processes_close(f: Process, g: Process, eps: float) -> bool:
    """Same wiring types and Choi matrices within ``eps`` in Frobenius norm."""
    if f.in_sys.dims != g.in_sys.dims or f.out_sys.dims != g.out_sys.dims:
        return False
    return norm(f.choi - g.choi) <= eps


# numpy asks for huge pages (MADV_HUGEPAGE) on Linux for every allocation
# this large, and _wiring maps a body of this size instead.
_MAPPED_BYTES = 1 << 22


def _wiring(in_sys: System, out_sys: System, *branches) -> Process:
    """The process that only connects wires; the one writer of a wiring
    pattern.  Each branch lists wires over the factors ``in_sys + out_sys``:
    ``(i, j)`` joins factors ``i`` and ``j`` on the basis values both have,
    and ``(i, j, k)`` holds both at value ``k``; values on one factor add.
    The Choi matrix is 1 on the rows and columns of the basis vectors on
    which every wire of one branch agrees (branches pick disjoint sets) and
    0 elsewhere.  Its size is checked before any index is computed.

    A body of :data:`_MAPPED_BYTES` or more starts as a private anonymous
    mapping (POSIX), whose pages all read the kernel's zero page until
    written, so only the pages that hold ones take memory; ``np.zeros``
    would get huge pages there, which the scattered ones back in full.  A
    smaller body comes from ``np.zeros``, which is faster to make."""
    dims = in_sys.dims + out_sys.dims
    side = prod(dims)
    check_size((side, side), "wiring body")
    strides = [prod(dims[k + 1 :]) for k in range(len(dims))]
    rows = []
    for wires in branches:
        found = [0]
        for i, j, *value in wires:
            step = strides[i] + strides[j]
            found = [r + v * step for r in found for v in value or range(min(dims[i], dims[j]))]
        rows += found
    rows = np.array(rows)
    nbytes = side * side * np.dtype(complex).itemsize
    if nbytes >= _MAPPED_BYTES:
        buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
        c = np.frombuffer(buf, dtype=complex).reshape(side, side)
    else:
        c = np.zeros((side, side), dtype=complex)
    c[rows[:, None], rows] = 1
    return Process._adopt(in_sys, out_sys, c)


def _pairs(sys: System) -> list[tuple[int, int]]:
    """The wires joining each factor of ``sys`` to its copy in ``sys + sys``."""
    n = len(sys)
    return [(k, n + k) for k in range(n)]


def identity_process(sys: System) -> Process:
    return _wiring(sys, sys, _pairs(sys))


def cup(sys: System) -> Process:
    """State on ``sys + sys`` whose halves are maximally correlated (unnormalized)."""
    return _wiring(UNIT, sys + sys, _pairs(sys))


def cap(sys: System) -> Process:
    """Effect on ``sys + sys`` pairing the two halves; the partner of :func:`cup`."""
    return _wiring(sys + sys, UNIT, _pairs(sys))


def discard_process(sys: System) -> Process:
    """The trace effect: sends any state on ``sys`` to its trace."""
    check_size((sys.total, sys.total), "discard effect")
    return Process._adopt(sys, UNIT, np.eye(sys.total, dtype=complex))


def make_effect(e: np.ndarray, sys: System) -> Process:
    """Effect ``rho -> Tr(e rho)``; its Choi matrix is ``e`` transposed."""
    return Process(sys, UNIT, as_matrix(e, sys.total).T)


def channel_from_kraus(kraus: Sequence[np.ndarray], in_sys: System, out_sys: System) -> Process:
    d_in, d_out = in_sys.total, out_sys.total
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    for k in ops:
        if k.shape != (d_out, d_in):
            raise DimensionError(f"Kraus operator shape {k.shape} does not match {d_out}x{d_in}")
    check_size((d_in * d_out, d_in * d_out), "channel")
    # Column k of v is vec(K_k^T); the Choi matrix is the sum of their outer products.
    v = np.array(ops, dtype=complex).reshape(len(ops), d_out, d_in).transpose(2, 1, 0).reshape(d_in * d_out, len(ops))
    return Process._adopt(in_sys, out_sys, v @ v.conj().T)


def swap_process(a: System, b: System) -> Process:
    """The channel ``A (x) B -> B (x) A`` that crosses the wires: the
    identity on ``a + b`` with its output factors reordered."""
    n, k = len(a), len(a) + len(b)
    return rewire(identity_process(a + b), range(k), [*range(k + n, 2 * k), *range(k, k + n)])


def compose_seq(f: Process, g: Process) -> Process:
    """Run ``f`` then ``g`` (so the result is ``g`` after ``f``)."""
    if f.out_sys.dims != g.in_sys.dims:
        raise WireMismatchError(f"cannot plug output {f.out_sys.dims} into input {g.in_sys.dims}")
    x, y, z = f.in_sys.total, f.out_sys.total, g.out_sys.total
    c = link(f.choi, (x, y), [1], g.choi, (y, z), [0])
    return Process._adopt(f.in_sys, g.out_sys, c)


def compose_par(f: Process, g: Process) -> Process:
    """Place ``f`` and ``g`` side by side: inputs concatenate, outputs concatenate."""
    fd, gd = (f.in_sys.total, f.out_sys.total), (g.in_sys.total, g.out_sys.total)
    # Free factors [f.in, f.out, g.in, g.out], gathered into [ins | outs].
    c = link(f.choi, fd, [], g.choi, gd, [], (0, 2, 1, 3))
    return Process._adopt(f.in_sys + g.in_sys, f.out_sys + g.out_sys, c)


def relabel(p: Process, in_dims: Sequence[int], out_dims: Sequence[int]) -> Process:
    """Regroup factors (merge or split) without reordering the underlying
    basis; a view of ``p``'s tensor when that tensor is contiguous."""
    if prod(in_dims) != p.in_sys.total or prod(out_dims) != p.out_sys.total:
        raise DimensionError(
            f"relabel to in={tuple(in_dims)} out={tuple(out_dims)} changes totals "
            f"{p.in_sys.total}x{p.out_sys.total}"
        )
    return Process._adopt(System(tuple(in_dims)), System(tuple(out_dims)), p.tensor)


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


def _discard_outputs(p: Process, drop: Sequence[int]) -> np.ndarray:
    """The Choi matrix of ``p`` with the output factors at positions ``drop``
    traced out of its tensor in place (``p.choi`` when ``drop`` is empty).
    Each dropped factor reads as a factor of dimension 1, so whatever wiring
    fits ``p`` fits the marginal.  Bodies are discarded here; the verify
    harness traces its argument stacks' ancillas with ``partial_trace``."""
    if not drop:
        return p.choi
    keep = [*range(p.n_in), *[p.n_in + j for j in range(len(p.out_sys)) if j not in drop]]
    return partial_trace(p.tensor, p.factor_dims, keep)


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
    return Process._adopt(new_in, new_out, view)


def apply_to_state(f: Process, rho: np.ndarray) -> np.ndarray:
    """Evaluate the map on a concrete input matrix, or on every matrix of a
    stack of them (axes before the last two), in one contraction."""
    x, y = f.in_sys.total, f.out_sys.total
    return link(as_stack(rho, x), (x,), [0], f.choi, (x, y), [0])


def random_density(sys: System, seed=None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    d = sys.total
    check_size((d, d), "random density")
    return _densities(rng.standard_normal((2, d, d)))


def _densities(g: np.ndarray) -> np.ndarray:
    """The density matrices ``g g^dagger / Tr(g g^dagger)`` of a stack of
    complex Gaussian matrices, given as ``(..., 2, d, d)`` real and
    imaginary parts."""
    g = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    rho = g @ np.swapaxes(g.conj(), -1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _channel_draw_size(specs: Sequence[tuple[System, System]], n: int) -> int:
    """How many Gaussians one row of channels with these ``specs`` takes in
    :func:`_random_causal_channels`; a stack of ``n`` rows over
    ``MAX_SIDE**2`` elements raises here, before anything is drawn."""
    size = 0
    for i, o in specs:
        side = i.total * o.total
        check_size((n, side, side), "random channel stack")
        size += 2 * side * side
    check_size((n, size), "random channel draw")
    return size


def _causal_chois(specs: Sequence[tuple[System, System]], draws: np.ndarray) -> list[np.ndarray]:
    """The Choi matrices of the random causal channels that ``draws``, one
    row of :func:`_channel_draw_size` Gaussians per row of channels, gives:
    one ``(rows, side, side)`` stack per spec.  Each spec takes one stacked
    QR, one stacked phase fix (which makes the isometry Haar distributed)
    and one stacked ``v v^dagger``."""
    n, start, chois = len(draws), 0, []
    for i, o in specs:
        d_in, d_out = i.total, o.total
        env = d_in * d_out
        stop = start + 2 * d_in * d_out * env
        g = draws[:, start:stop].reshape(n, 2, d_out * env, d_in)
        start = stop
        q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
        diag = np.diagonal(r, axis1=1, axis2=2).copy()
        diag[np.abs(diag) == 0] = 1.0
        q = q * (diag / np.abs(diag))[:, None, :]
        # Kraus operator k is rows k, env + k, ... of q; column k of v is vec(K_k^T).
        v = q.reshape(n, d_out, env, d_in).transpose(0, 3, 1, 2).reshape(n, d_in * d_out, env)
        chois.append(v @ v.conj().transpose(0, 2, 1))
    return chois


def _random_causal_channels(
    rng: np.random.Generator, specs: Sequence[tuple[System, System]], n: int
) -> list[tuple[Process, ...]]:
    """``n`` rows of Haar-style random causal channels, one per spec
    ``(in_sys, out_sys)`` in each row, built from random isometries
    ``C^{d_in} -> C^{d_out} (x) C^{env}`` with ``env = d_in * d_out``.

    Every Gaussian comes from one ``rng.standard_normal`` call whose layout
    is that of drawing the channels one at a time, row by row and spec by
    spec (real part, then imaginary part), so the stream and the channels
    do not depend on how the draw is batched; :func:`_causal_chois` makes
    the channels from it.  An oversized draw or stack raises first.
    """
    draws = rng.standard_normal((n, _channel_draw_size(specs, n)))
    stacks = [[Process._adopt(i, o, c) for c in chois] for (i, o), chois in zip(specs, _causal_chois(specs, draws))]
    return list(zip(*stacks))


def random_causal_channel(in_sys: System, out_sys: System, seed=None) -> Process:
    """Haar-style random trace-preserving CP map via a random isometry."""
    ((p,),) = _random_causal_channels(np.random.default_rng(seed), [(in_sys, out_sys)], 1)
    return p


def process_to_dict(p: Process) -> dict:
    """Wire format: dims plus the Choi matrix as nested [re, im] pairs."""
    c = np.stack([p.choi.real, p.choi.imag], axis=-1)
    return {"in": list(p.in_sys.dims), "out": list(p.out_sys.dims), "choi": c.tolist()}


def _read_json(path: str):
    """The JSON document in the file at ``path``.  A document nested too
    deeply for the parser is a :class:`DimensionError`, as other malformed
    records are."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise DimensionError(f"{path}: JSON nested too deeply to read") from None


def _json_dims(value, what: str) -> tuple[int, ...]:
    """Factor dimensions read from a file: a list of JSON integers, no bool."""
    if type(value) is not list or any(type(d) is not int for d in value):
        raise DimensionError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def process_from_dict(d: dict) -> Process:
    try:
        in_sys = System(_json_dims(d["in"], "in"))
        out_sys = System(_json_dims(d["out"], "out"))
        arr = np.asarray(d["choi"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionError(f"malformed process record: {exc}") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"choi entries must be square [re, im] pairs, got shape {arr.shape}")
    # np.asarray reads strings and bools as numbers; a file may hold only
    # JSON numbers, which json gives as int or float.  One pass over the pairs.
    odd = set(map(type, chain.from_iterable(chain.from_iterable(d["choi"])))) - {int, float}
    if odd:
        raise DimensionError(f"choi entries must be JSON numbers, got {', '.join(sorted(t.__name__ for t in odd))}")
    # arr is a fresh C-contiguous float array, so each [re, im] pair reads
    # in place as one complex entry.
    return Process(in_sys, out_sys, arr.view(complex)[..., 0])
