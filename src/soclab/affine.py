"""Affine combinations of product channels.

Bipartite non-signalling channels are exactly the affine hull of product
channels.  :func:`realize_affine` builds an affine combination as one
concrete process from one matrix of product columns.  :func:`pseudo_state` and
:func:`controlled_local_channel` are the parts of the other construction:
a diagonal pseudo-state (a classically correlated state whose weights may
be negative) routed to a pair of controlled local channels.  The tests wire
those parts up and check that they give the same process.  A negative
weight can make the result non-CP; nothing here tracks that, and
``tensor.is_psd`` decides it when asked.

The inverse direction fits coefficients over a given spanning family of
product channel pairs by constrained least squares in one factorization,
whose rank tells whether the family falls short of the hull (a closed form).
:func:`random_product_span` draws such a family of random causal pairs in
one stacked batch, the same channels as drawing each pair in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DimensionError, WireMismatchError
from .process import Process, _random_causal_channels, _random_causal_stacks, _sides
from .tensor import System, UNIT, check_size, norm


def _check_weights(weights: Sequence[float], what: str) -> None:
    """Refuse a weight that is NaN or infinite, by name, as ``mix`` does."""
    for r in weights:
        if not np.isfinite(r):
            raise DimensionError(f"{what} weights must be finite numbers, got {r!r}")


def pseudo_state(coeffs: Sequence[float]) -> Process:
    """Diagonal two-register state ``sum_x r_x |xx><xx|`` with real weights
    summing to one; negative weights are allowed, which makes it non-CP."""
    coeffs = tuple(float(c) for c in coeffs)
    n = len(coeffs)
    if n == 0:
        raise DimensionError("pseudo-state needs at least one weight")
    _check_weights(coeffs, "pseudo-state")
    if not abs(sum(coeffs) - 1.0) <= 1e-9:
        raise DimensionError(f"weights must sum to 1, got {sum(coeffs)}")
    check_size((n * n, n * n), "pseudo-state")
    diag = np.zeros(n * n, dtype=complex)
    for x, c in enumerate(coeffs):
        diag[x * n + x] = c
    return Process(UNIT, System((n, n)), np.diag(diag))


def controlled_local_channel(channels: Sequence[Process]) -> Process:
    """One channel per classical control value: ``|x><x| (x) rho -> Phi_x(rho)``."""
    channels = list(channels)
    if not channels:
        raise DimensionError("need at least one branch")
    din = channels[0].in_sys.total
    dout = channels[0].out_sys.total
    if any(c.in_sys.total != din or c.out_sys.total != dout for c in channels):
        raise WireMismatchError("all branches must share input and output dimensions")
    n = len(channels)
    side = n * din * dout
    check_size((side, side), "controlled channel")
    out = np.zeros((n, din, dout, n, din, dout), dtype=complex)
    for x, c in enumerate(channels):
        out[x, :, :, x, :, :] = c.choi.reshape(din, dout, din, dout)
    return Process(System((n, din)), System((dout,)), out.reshape(side, side))


@dataclass(frozen=True)
class AffineCombination:
    """Terms ``(r_x, Phi_x, Psi_x)`` with the ``r_x`` summing to one."""

    terms: tuple[tuple[float, Process, Process], ...]

    def __post_init__(self):
        if not self.terms:
            raise DimensionError("affine combination needs at least one term")
        _check_weights(self.coeffs, "affine")
        # Finite weights can still sum past the float range: inf fails this too.
        if not abs(sum(self.coeffs) - 1.0) <= 1e-9:
            raise DimensionError("coefficients must sum to 1")
        _, f0, g0 = self.terms[0]
        for _, f, g in self.terms:
            if (
                f.in_sys.total != f0.in_sys.total
                or f.out_sys.total != f0.out_sys.total
                or g.in_sys.total != g0.in_sys.total
                or g.out_sys.total != g0.out_sys.total
            ):
                raise WireMismatchError("all terms must share their local types")

    @property
    def coeffs(self) -> tuple[float, ...]:
        return tuple(r for r, _, _ in self.terms)


def _product_columns(phis: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """``vec(Phi_k) (x) vec(Psi_k)`` for each pair of Choi matrices of the
    ``(n, side, side)`` stacks ``phis`` and ``psis``, as the columns of one
    C-ordered matrix.  Its rows run over ``[A1, A2, A1', A2', B1, B2, B1',
    B2']`` (row and column indices of each side's Choi matrix), not over the
    product channel's ``[A1, B1, A2, B2]`` order."""
    n = len(phis)
    # C-ordered columns, so that the least squares sees the same layout,
    # and gives the same bits, whichever way the stacks were made.
    a = np.ascontiguousarray(phis.reshape(n, -1).T)
    b = np.ascontiguousarray(psis.reshape(n, -1).T)
    return (a[:, None, :] * b[None, :, :]).reshape(-1, n)


def _stacks(pairs: Sequence[tuple[Process, Process]]) -> tuple[np.ndarray, np.ndarray]:
    """The Choi matrices of the pairs' two sides, as two stacks."""
    return np.stack([phi.choi for phi, _ in pairs]), np.stack([psi.choi for _, psi in pairs])


def realize_affine(comb: AffineCombination) -> Process:
    """Build the bipartite process ``sum_x r_x Phi_x (x) Psi_x`` on
    ``A1 (x) B1 -> A2 (x) B2`` as one weighted sum of product columns."""
    _, f0, g0 = comb.terms[0]
    a1, a2 = f0.in_sys.total, f0.out_sys.total
    b1, b2 = g0.in_sys.total, g0.out_sys.total
    acc = _product_columns(*_stacks([(f, g) for _, f, g in comb.terms])) @ np.array(comb.coeffs)
    side = a1 * b1 * a2 * b2
    choi = acc.reshape(a1, a2, a1, a2, b1, b2, b1, b2).transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(side, side)
    return Process(System((a1, b1)), System((a2, b2)), choi)


@dataclass(frozen=True)
class DecompositionResult:
    coeffs: tuple[float, ...]
    residual: float
    span_deficient: bool


@lru_cache(maxsize=None)
def nonsignalling_direction_dim(ai: int, bi: int, ao: int, bo: int) -> int:
    """Dimension of the affine hull of non-signalling channels.

    That hull is the affine hull of the product channels.  One side's
    causal channels span ``d_in**2 (d_out**2 - 1) + 1`` dimensions linearly,
    so the products span the product of the two sides' counts; the affine
    hull has one dimension less.
    """
    return (ai * ai * (ao * ao - 1) + 1) * (bi * bi * (bo * bo - 1) + 1) - 1


def _span_specs(in_dims: tuple[int, int], out_dims: tuple[int, int]) -> list[tuple[System, System]]:
    return [(System((d_in,)), System((d_out,))) for d_in, d_out in zip(in_dims, out_dims)]


def random_product_span(
    n: int,
    in_dims: tuple[int, int] = (2, 2),
    out_dims: tuple[int, int] = (2, 2),
    seed=None,
) -> list[tuple[Process, Process]]:
    """``n`` pairs ``(Phi_k, Psi_k)`` of random causal channels, ``Phi_k``
    on ``in_dims[0] -> out_dims[0]`` and ``Psi_k`` on ``in_dims[1] ->
    out_dims[1]``, drawn in one stacked batch."""
    return _random_causal_channels(np.random.default_rng(seed), _span_specs(in_dims, out_dims), n)


def decompose_nonsignalling(
    f: Process,
    span_pairs: Sequence[tuple[Process, Process]],
    in_split: int = 1,
    out_split: int = 1,
) -> DecompositionResult:
    """Fit ``f`` as an affine combination of the given product channel pairs.

    Minimizes the Frobenius gap subject to the coefficients summing to one.
    ``span_deficient`` reports whether the family's affine directions fall
    short of the full non-signalling hull for this shape, in which case a
    large residual may reflect the family rather than ``f``.
    """
    pairs = list(span_pairs)
    if not pairs:
        raise DimensionError("need a non-empty spanning family")
    ai, bi, ao, bo = _sides(f, in_split, out_split)
    if any((phi.in_sys.total, phi.out_sys.total, psi.in_sys.total, psi.out_sys.total) != (ai, ao, bi, bo) for phi, psi in pairs):
        raise WireMismatchError("spanning pair does not match the target's shape")
    return _fit(f, *_stacks(pairs), in_split, out_split)


def _decompose_over_random_span(f: Process, n: int, in_split: int, out_split: int, seed) -> DecompositionResult:
    """``decompose_nonsignalling(f, random_product_span(n, ..., seed=seed),
    in_split, out_split)`` for the span of ``f``'s two sides, bit for bit,
    fitted from the drawn stacks without a process per channel."""
    ai, bi, ao, bo = _sides(f, in_split, out_split)
    phis, psis = _random_causal_stacks(np.random.default_rng(seed), _span_specs((ai, bi), (ao, bo)), n)
    return _fit(f, phis, psis, in_split, out_split)


def _fit(f: Process, phis: np.ndarray, psis: np.ndarray, in_split: int, out_split: int) -> DecompositionResult:
    """The fit of :func:`decompose_nonsignalling` over the pairs of Choi
    matrices of the stacks ``phis`` and ``psis``, whose shapes fit ``f``."""
    ai, bi, ao, bo = _sides(f, in_split, out_split)
    cols = _product_columns(phis, psis)
    a = np.concatenate([cols.real, cols.imag])
    # The target's Choi matrix in the product columns' row order.
    target = f.choi.reshape(ai, bi, ao, bo, ai, bi, ao, bo).transpose(0, 2, 4, 6, 1, 3, 5, 7).ravel()
    b = np.concatenate([target.real, target.imag])

    # Coefficients summing to one: the uniform point plus a step along the
    # differences between the first pair and each other one.  A lone pair
    # leaves no direction, which the solve takes as zero columns.
    n = len(phis)
    base = np.full(n, 1.0 / n)
    y, _, span_rank, _ = np.linalg.lstsq(a[:, 1:] - a[:, :1], b - a @ base, rcond=None)
    r = base + np.concatenate([[-y.sum()], y])
    residual = norm(a @ r - b)
    deficient = bool(span_rank < nonsignalling_direction_dim(ai, bi, ao, bo))
    return DecompositionResult(tuple(float(x) for x in r), residual, deficient)
