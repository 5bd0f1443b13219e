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

Process files are read by :func:`_read_json` and
:func:`process_from_dict`.  A long text of short numbers goes to a strict
reader, which parses its ``choi`` array into one float array with no Python
object per number; ``process_from_dict`` copies that array through the
constructor, as it does nested lists.  Any text the strict reader does not
take goes to ``json`` unchanged, so errors keep their messages.

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
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby
from math import isqrt, prod
from typing import Sequence

import numpy as np

from .errors import DimensionError, WireMismatchError
from .tensor import MAX_SIDE, System, UNIT, _zeros, as_matrix, as_stack, check_size, link, norm, partial_trace


@dataclass(frozen=True, eq=False, init=False)
class Process:
    in_sys: System
    out_sys: System
    tensor: np.ndarray = field(repr=False)

    def __init__(self, in_sys: System, out_sys: System, choi: np.ndarray):
        _set_fields(self, in_sys, out_sys, None)
        self.__post_init__(choi)

    def __post_init__(self, choi: np.ndarray):
        """Check ``choi`` against the wiring, and that its entries are finite
        numbers, and keep a read-only copy of it."""
        dims = self.factor_dims
        m = as_matrix(choi, self.in_sys.total * self.out_sys.total)
        if not np.isfinite(m).all():
            raise DimensionError("choi entries must be finite numbers")
        t = m.copy().reshape(dims + dims)
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


def _wiring(in_sys: System, out_sys: System, *branches) -> Process:
    """The process that only connects wires; the one writer of a wiring
    pattern.  Each branch lists wires over the factors ``in_sys + out_sys``:
    ``(i, j)`` joins factors ``i`` and ``j`` on the basis values both have,
    and ``(i, j, k)`` holds both at value ``k``; values on one factor add.
    The Choi matrix is 1 on the rows and columns of the basis vectors on
    which every wire of one branch agrees (branches pick disjoint sets) and
    0 elsewhere.  Its size is checked before any index is computed.  The
    body starts from ``tensor._zeros``, so a large one takes memory only
    for the pages that hold ones."""
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
    c = _zeros((side, side))
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
    if bad := [k.shape for k in ops if k.shape != (d_out, d_in)]:
        raise DimensionError(f"Kraus operator shape {bad[0]} does not match {d_out}x{d_in}")
    check_size((d_in * d_out, d_in * d_out), "channel")
    return Process._adopt(in_sys, out_sys, _kraus_choi(np.array(ops, dtype=complex).reshape(len(ops), d_out, d_in)))


def _kraus_choi(kraus: np.ndarray) -> np.ndarray:
    """The Choi matrices ``v v^dagger`` of the channels with Kraus operators ``kraus[..., e, :, :]``; column e of v is vec(K_e^T)."""
    v = kraus.swapaxes(-1, -3).reshape(*kraus.shape[:-3], kraus.shape[-1] * kraus.shape[-2], kraus.shape[-3])
    return v @ v.conj().swapaxes(-1, -2)


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
    traced out of its tensor in place: ``p.choi`` if ``drop`` is empty, a
    read-only view when the strides allow and each dropped factor has
    dimension 1, else a fresh array that the caller owns.  Each dropped
    factor reads as one of dimension 1, so whatever wiring fits ``p`` fits."""
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
    :func:`_random_causal_stacks`; a stack of ``n`` rows over
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
    one ``(rows, side, side)`` stack per spec.  Each run of consecutive
    specs of one ``(d_in, d_out)`` takes one stacked QR, one stacked phase
    fix (which makes the isometry Haar distributed) and one stacked ``v
    v^dagger``; each matrix of a stack is computed on its own, so the bits
    do not depend on the grouping."""
    n, start, chois = len(draws), 0, []
    for (d_in, d_out), run in groupby(((i.total, o.total) for i, o in specs)):
        k, env = len(list(run)), d_in * d_out
        stop = start + k * 2 * d_in * d_out * env
        # Spec-major, so that spec j's stack is the contiguous block j.
        g = draws[:, start:stop].reshape(n, k, 2, d_out * env, d_in).transpose(1, 0, 2, 3, 4)
        start = stop
        q, r = np.linalg.qr(g[:, :, 0] + 1j * g[:, :, 1])
        diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
        diag[np.abs(diag) == 0] = 1.0
        q = q * (diag / np.abs(diag))[..., None, :]
        # Kraus operator e is rows e, env + e, ... of q.
        chois.extend(_kraus_choi(q.reshape(k, n, d_out, env, d_in).swapaxes(-3, -2)))
    return chois


def _random_causal_stacks(
    rng: np.random.Generator, specs: Sequence[tuple[System, System]], n: int
) -> list[np.ndarray]:
    """The Choi matrices of ``n`` rows of Haar-style random causal channels,
    one per spec ``(in_sys, out_sys)`` in each row, as one ``(n, side,
    side)`` stack per spec.  Each channel comes from a random isometry
    ``C^{d_in} -> C^{d_out} (x) C^{env}`` with ``env = d_in * d_out``.

    Every Gaussian comes from one ``rng.standard_normal`` call whose layout
    is that of drawing the channels one at a time, row by row and spec by
    spec (real part, then imaginary part), so the stream and the channels
    do not depend on how the draw is batched; :func:`_causal_chois` makes
    the channels from it.  An oversized draw or stack raises first.
    """
    return _causal_chois(specs, rng.standard_normal((n, _channel_draw_size(specs, n))))


def _random_causal_channels(
    rng: np.random.Generator, specs: Sequence[tuple[System, System]], n: int
) -> list[tuple[Process, ...]]:
    """The channels of :func:`_random_causal_stacks`, ``n`` rows of one
    process per spec."""
    stacks = [[Process._adopt(i, o, c) for c in chois] for (i, o), chois in zip(specs, _random_causal_stacks(rng, specs, n))]
    return list(zip(*stacks))


def random_causal_channel(in_sys: System, out_sys: System, seed=None) -> Process:
    """Haar-style random trace-preserving CP map via a random isometry."""
    ((p,),) = _random_causal_channels(np.random.default_rng(seed), [(in_sys, out_sys)], 1)
    return p


def process_to_dict(p: Process) -> dict:
    """Wire format: dims plus the Choi matrix as nested [re, im] pairs."""
    c = np.stack([p.choi.real, p.choi.imag], axis=-1)
    return {"in": list(p.in_sys.dims), "out": list(p.out_sys.dims), "choi": c.tolist()}


# --- reading process files ---------------------------------------------------
#
# ``json`` reads a process file, except for the ``choi`` array of a long
# text of short numbers: the strict reader below parses that array straight
# into one float array, with no Python object per number.  It takes the
# array only when it is an n x n array of [re, im] pairs of strict JSON
# numbers; anything else goes to ``json`` unchanged, so every error still
# comes from the code that reports it.
#
# When it pays, measured on a 2-core x86 VM (Python 3.11, numpy 2.4) as the
# best time of ``process_from_dict(_read_json(path))`` on either path:
# * Size.  Every text pays some tens of microseconds for the checks.
#   Records of short numbers (0.0 and 1.0) were 16-30 % slower at 8 x 8
#   (0.8 KB compact, 2.9 KB indented) and 29-36 % faster at 16 x 16 (3.1 KB
#   compact, 11 KB indented), so texts under 8 KiB go to json.
# * Length of the numbers.  numpy parses a number no faster than json does,
#   and the checks cost per character.  On 64 x 64 records, in characters a
#   number, comma included: at 8.4 the strict reader was 27-48 % faster
#   (compact) and 4-27 % faster (indented); at 10.4, 30 % faster and from
#   19 % faster to 10 % slower; at 12.4, no faster.  A 17-digit number such
#   as ``repr`` writes takes 19-23.  The average is read from the first
#   _SAMPLE_CHARS characters of the array.
_STRICT_MIN_CHARS = 1 << 13
_STRICT_NUMBER_CHARS = 9
_SAMPLE_CHARS = 1 << 10
# Characters of a choi array the strict reader checks and parses at a time,
# so that its scratch memory stays a small part of the array.
_BLOCK_CHARS = 1 << 16

_CHOI_KEY = re.compile(r'"choi"[ \t\n\r]*:[ \t\n\r]*\[')
_SPACE = b" \t\n\r"
# Character classes of a choi array, in the order the window table uses;
# END pads the end of a block.
_OPEN, _COMMA, _CLOSE, _ZERO, _DIGIT, _DOT, _EXP, _MINUS, _PLUS, _END, _OTHER = range(11)
_CLASS_CHARS = ((b"[", _OPEN), (b",", _COMMA), (b"]", _CLOSE), (b"0", _ZERO), (b"123456789", _DIGIT),
                (b".", _DOT), (b"eE", _EXP), (b"-", _MINUS), (b"+", _PLUS))
_CLASSES = bytes(next((c for chars, c in _CLASS_CHARS if ch in chars), _OTHER) for ch in range(256))
_NUMBER_CLASSES = bytes(range(_ZERO, _PLUS + 1))
# 1 for each character of a number, 0 for the rest.
_RUNS = bytes(_ZERO <= c <= _PLUS for c in _CLASSES)


def _window_table() -> np.ndarray:
    """Which four consecutive classes, JSON space taken out, may stand in a
    strict choi array: each may follow the one before it, and no number
    starts with a zero followed by a digit (JSON has no leading zeros) or
    is the integer -0 (which ``json`` reads as +0.0 and a C ``strtod`` as
    -0.0).  Indexed by ``c0 << 12 | c1 << 8 | c2 << 4 | c3``."""
    follows = np.zeros((16, 16), bool)
    number_start = (_ZERO, _DIGIT, _MINUS)
    for first, nexts in (
        (_OPEN, (_OPEN, *number_start)),
        (_COMMA, (_OPEN, *number_start)),
        (_CLOSE, (_COMMA, _CLOSE)),
        (_ZERO, (_ZERO, _DIGIT, _DOT, _EXP, _COMMA, _CLOSE)),
        (_DIGIT, (_ZERO, _DIGIT, _DOT, _EXP, _COMMA, _CLOSE)),
        (_DOT, (_ZERO, _DIGIT)),
        (_EXP, (_ZERO, _DIGIT, _MINUS, _PLUS)),
        (_MINUS, (_ZERO, _DIGIT)),
        (_PLUS, (_ZERO, _DIGIT)),
    ):
        follows[first, list(nexts)] = True
    follows[: _END + 1, _END] = True
    c0, c1, c2, c3 = np.ix_(*[np.arange(16)] * 4)
    starts = c0 <= _COMMA
    leading_zero = starts & (c1 == _ZERO) & ((c2 == _ZERO) | (c2 == _DIGIT))
    minus_zero = starts & (c1 == _MINUS) & (c2 == _ZERO) & (c3 >= _COMMA) & (c3 <= _DIGIT)
    ok = follows[c0, c1] & follows[c1, c2] & follows[c2, c3] & ~(leading_zero | minus_zero)
    return ok.ravel()


_WINDOWS = _window_table()


def _strict_choi(text: str, start: int, end: int) -> np.ndarray | None:
    """The ``(n, n, 2)`` float array that ``text[start:end]`` holds, or
    ``None`` unless that text is an n x n array of [re, im] pairs of
    strict, finite JSON numbers (RFC 8259: no ``+`` sign, no leading zero,
    digits on both sides of a point, no NaN or Infinity) and no integer -0.

    The text is checked and parsed a block at a time, by byte translations,
    one numpy table of the classes that may stand side by side, and numpy's
    correctly rounded parser (``loadtxt``, which also refuses a number with
    two points or two exponents), into one preallocated array.  Its
    brackets and commas must be exactly those of an n x n array."""
    opens = text.count("[", start, end)
    n = (isqrt(4 * opens - 3) - 1) // 2
    if n * n + n + 1 != opens or n > MAX_SIDE:
        return None
    pair, comma = bytes([_OPEN, _COMMA, _CLOSE]), bytes([_COMMA])
    row = bytes([_OPEN]) + comma.join([pair] * n) + bytes([_CLOSE])
    skeleton = bytes([_OPEN]) + comma.join([row] * n) + bytes([_CLOSE])
    choi = np.empty((n, n, 2))
    flat = choi.reshape(-1)
    matched = done = 0
    while start < end:
        # Cut before a bracket, so that no number is split.
        cut = end if end - start <= _BLOCK_CHARS else text.rfind("[", start + 1, start + _BLOCK_CHARS)
        if cut < 0:
            return None
        block = text[start:cut].encode("ascii")
        start = cut
        compact = block.translate(None, _SPACE)
        # The next block starts with a bracket.
        classes = compact.translate(_CLASSES) + bytes([_END if cut == end else _OPEN, _END, _END])
        marks = classes[:-3].translate(None, _NUMBER_CLASSES)
        if not skeleton.startswith(marks, matched):
            return None
        matched += len(marks)
        c = np.frombuffer(classes, np.uint8).astype(np.uint16)
        if not _WINDOWS.take((c[:-3] << 12) | (c[1:-2] << 8) | (c[2:-1] << 4) | c[3:]).all():
            return None
        # Every block but the last ends with the comma before a pair.
        line = compact.translate(None, b"[]").rstrip(b",")
        if not line:
            return None
        try:
            numbers = np.loadtxt([line], delimiter=",", ndmin=1)
            flat[done : done + numbers.size] = numbers
        except ValueError:
            return None
        done += numbers.size
        # Space inside a number joined its two parts above; the block then
        # holds more runs of number characters than numbers were read.
        runs = np.frombuffer(block.translate(_RUNS), np.uint8)
        if np.count_nonzero(runs[1:] > runs[:-1]) != numbers.size:
            return None
    if matched != len(skeleton) or done != flat.size or not np.isfinite(flat).all():
        return None
    return choi


def _strict_record(text: str):
    """The JSON document ``text``, read with its one ``choi`` array parsed
    by :func:`_strict_choi`, or ``None`` when the text does not qualify:
    it must be ASCII, hold the key ``"choi"`` exactly once and no backslash
    outside that array, whose numbers must be short on average and strict,
    and the key must sit in the document or in its ``"process"`` record.
    The rest of the text goes to ``json`` with ``[]`` in the array's place;
    it is valid JSON exactly when the whole text is."""
    key = _CHOI_KEY.search(text) if text.isascii() else None
    if key is None:
        return None
    start = key.end() - 1
    head = text[start : start + _SAMPLE_CHARS].encode("ascii").translate(None, b"[]" + _SPACE)
    if len(head) > _STRICT_NUMBER_CHARS * (head.count(b",") + 1):
        return None
    # The array holds no quote or brace; the last bracket before either ends it.
    stop = min((i for i in (text.find('"', start), text.find("}", start)) if i >= 0), default=len(text))
    end = text.rfind("]", start, stop) + 1
    rest = text[:start] + "[]" + text[end:]
    if end <= start or rest.count('"choi"') != 1 or "\\" in rest:
        return None
    choi = _strict_choi(text, start, end)
    if choi is None:
        return None
    try:
        doc = json.loads(rest)
    except (ValueError, RecursionError):
        return None
    record = doc.get("process", doc) if type(doc) is dict else None
    if type(record) is not dict or record.get("choi") != []:
        return None
    record["choi"] = choi
    return doc


def _read_json(path: str):
    """The JSON document in the file at ``path``.  A text of
    ``_STRICT_MIN_CHARS`` or more that the strict reader takes comes back
    with its ``choi`` array as an ``(n, n, 2)`` float array, which
    :func:`process_from_dict` checks and copies as it does nested lists;
    any other text is read by ``json`` alone.  A document nested too
    deeply for the parser, or holding an integer with more digits than
    ``int()`` reads, is a :class:`DimensionError`, as other malformed
    records are."""
    with open(path) as fh:
        try:
            text = fh.read()
            doc = _strict_record(text) if len(text) >= _STRICT_MIN_CHARS else None
            return json.loads(text) if doc is None else doc
        except RecursionError:
            raise DimensionError(f"{path}: JSON nested too deeply to read") from None
        except json.JSONDecodeError:
            raise
        except ValueError as exc:
            raise DimensionError(f"{path}: {exc}") from None


def _json_dims(value, what: str) -> tuple[int, ...]:
    """Factor dimensions read from a file: a list of JSON integers, no bool."""
    if type(value) is not list or any(type(d) is not int for d in value):
        raise DimensionError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def process_from_dict(d: dict) -> Process:
    """The process a record gives: its ``in`` and ``out`` dims and its
    ``choi`` matrix as [re, im] pairs, either nested lists of JSON numbers
    or an ``(n, n, 2)`` array of real floats or integers of any layout, as
    :func:`_read_json` gives.  Either is checked and copied by
    :class:`Process`, so changing the record afterwards changes nothing."""
    try:
        in_sys = System(_json_dims(d["in"], "in"))
        out_sys = System(_json_dims(d["out"], "out"))
        choi = d["choi"]
        # np.asarray would read strings and bools as numbers and drop
        # imaginary parts, with only a warning.
        if isinstance(choi, np.ndarray) and choi.dtype.kind not in "fiu":
            raise DimensionError(f"choi entries must be real numbers, got an array of dtype {choi.dtype}")
        arr = np.asarray(choi, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DimensionError(f"malformed process record: {exc}") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"choi entries must be square [re, im] pairs, got shape {arr.shape}")
    if type(choi) is not np.ndarray:
        # np.asarray reads strings and bools as numbers; a file may hold only
        # JSON numbers, which json gives as int or float.  One pass over the pairs.
        odd = set(map(type, chain.from_iterable(chain.from_iterable(choi)))) - {int, float}
        if odd:
            raise DimensionError(f"choi entries must be JSON numbers, got {', '.join(sorted(t.__name__ for t in odd))}")
    # In a C-contiguous array each [re, im] pair reads in place as one
    # complex entry.
    return Process(in_sys, out_sys, np.ascontiguousarray(arr).view(complex)[..., 0])
