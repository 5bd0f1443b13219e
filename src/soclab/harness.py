"""Randomized end-to-end verification runs with reproducible reports.

Each verifier judges the structural premise at its own tolerance, from
an ``is_soc2`` residual decided once per supermap and kept on it, then
runs seeded trials that build random arguments, fill the supermap's holes
with them and check the output for causality.  Theorem 1's trials fill
each hole with a channel that drags an ancilla through it; the
corollary's fill both holes with one strongly non-signalling channel,
made of local channels on a shared state.

The trials of a run go through as one stack, in chunks that keep every
stack under :data:`CHUNK_ELEMENTS` elements.  Each trial still draws its
Gaussians from its own seeded stream, laid out as if its arguments were
drawn one at a time; the chunk then takes one stacked QR per channel, and
its ancilla outputs are discarded on the stack.  The arguments go into the
supermap with ``C2`` discarded (its body is traced once a run) through
paired links, trial ``t``'s arguments with each other and with nothing
else, so no trial builds the filled process.  One stacked witness, each
marginal minus the identity, gives every record; each residual is the norm
of its own trial's slice, so a report does not depend on the chunking: it
equals, bit for bit, the one that filling one trial at a time gives.
Reports serialize to JSON lines: one premise line, one line per trial,
one summary line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .predicates import _strongly_nonsignalling
from .process import _causal_chois, _channel_draw_size, _densities
from .supermap import BipartiteSupermap, _insert_joint, insert_stacked
from .tensor import DEFAULT_EPS, System, check_size, norm, partial_trace

# Trials run in chunks whose every stack holds at most this many elements
# (512 KiB of complex numbers), or one trial when a trial alone holds more.
CHUNK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class HarnessConfig:
    trials: int = 100
    seed: int = 0
    ancilla_dim: int = 2
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        # Zero trials stay allowed: an empty run's report has no records,
        # and the entry points reject --trials 0 themselves.
        for name, least in (("trials", 0), ("seed", 0), ("ancilla_dim", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be a finite number >= 0, got {self.eps!r}")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    causal: bool
    residual: float
    seed: int


@dataclass(frozen=True)
class HarnessReport:
    premise: str
    premise_holds: bool
    premise_residual: float
    records: tuple[TrialRecord, ...]

    @property
    def all_causal(self) -> bool:
        return all(r.causal for r in self.records)

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.records), default=0.0)


def _trial_seed(base: int, trial: int) -> int:
    return base * 1_000_003 + trial


def _run(w: BipartiteSupermap, config: HarnessConfig, size: int, per_trial: int, marginals) -> HarnessReport:
    """The premise, then one record per trial.  Each trial draws ``size``
    Gaussians from its own seeded stream, one row of a chunk's draws, and
    ``marginals(draws)`` gives the chunk's stack of filled marginals with
    every output discarded.  ``per_trial`` bounds the elements that one trial
    takes in any stack, so a chunk's stacks are checked all at once.  The
    premise is judged as ``is_soc2(w, config.eps)`` would judge it."""
    premise = w._premise.residual
    chunk = max(1, CHUNK_ELEMENTS // per_trial)
    records = []
    for start in range(0, config.trials, chunk):
        trials = range(start, min(start + chunk, config.trials))
        check_size((len(trials), per_trial), "trial stack")
        seeds = [_trial_seed(config.seed, t) for t in trials]
        draws = np.empty((len(trials), size))
        for row, s in zip(draws, seeds):
            np.random.default_rng(s).standard_normal(out=row)
        witness = marginals(draws)
        witness -= np.eye(witness.shape[-1])
        for t, s, x in zip(trials, seeds, witness):
            residual = norm(x)
            records.append(TrialRecord(t, residual <= config.eps, residual, s))
    return HarnessReport("soc2", premise <= config.eps, premise, tuple(records))


def verify_theorem1(w: BipartiteSupermap, config: HarnessConfig = HarnessConfig()) -> HarnessReport:
    """Order preservation survives side wires.

    Trials fill both holes with random causal channels that each drag an
    ancilla through, and check the resulting extended channel is causal.
    """
    m = config.ancilla_dim
    specs = [(System((m, w.a_in)), System((m, w.a_out)), None), (System((m, w.b_in)), System((m, w.b_out)), None)]
    size = _channel_draw_size(specs, 1)
    # Beside the draws, the largest stacks are the two links' results.
    per_trial = max(size, (w.b_in * w.b_out * w.c_in * m) ** 2, (m * m * w.c_in) ** 2)

    def marginals(draws):
        pa, pb = _causal_chois(specs, draws)
        # Discard each ancilla output, then fill.
        qa = partial_trace(pa, (m, w.a_in, m, w.a_out), (0, 1, 3))
        qb = partial_trace(pb, (m, w.b_in, m, w.b_out), (0, 1, 3))
        return insert_stacked(w._discarded, qa, qb, (m, 1), (m, 1), paired=True)

    return _run(w, config, size, per_trial, marginals)


def verify_corollary1(w: BipartiteSupermap, config: HarnessConfig = HarnessConfig()) -> HarnessReport:
    """Strongly non-signalling ("localizable") arguments come out causal.

    Trials draw local causal channels ``(A1, m) -> A2`` and ``(m, B1) ->
    B2``, then a random shared state on their two memories, assemble them
    into one channel ``A1 B1 -> A2 B2`` as :func:`make_strongly_nonsignalling`
    does, fill both holes with it as :func:`insert_merged` does, and check
    the output for causality.
    """
    m = config.ancilla_dim
    specs = [(System((w.a_in, m)), System((w.a_out,)), None), (System((m, w.b_in)), System((w.b_out,)), None)]
    # Refuse an oversized shared state by name, before anything is drawn.
    check_size((m * m, m * m), "random density")
    channels = _channel_draw_size(specs, 1)
    size = channels + 2 * m**4
    # Beside the draws, the largest stacks are the joint channels and the marginals.
    per_trial = max(size, (w.a_in * w.a_out * w.b_in * w.b_out) ** 2, w.c_in**2)

    def marginals(draws):
        psi_a, psi_b = _causal_chois(specs, draws[:, :channels])
        shared = _densities(draws[:, channels:].reshape(len(draws), 2, m * m, m * m))
        a_dims, b_dims = (w.a_in, m, w.a_out), (m, w.b_in, w.b_out)
        return _insert_joint(w._discarded, _strongly_nonsignalling(shared, psi_a, psi_b, a_dims, b_dims))

    return _run(w, config, size, per_trial, marginals)


def report_to_jsonl(report: HarnessReport) -> list[str]:
    lines = [
        json.dumps(
            {"premise": report.premise, "holds": report.premise_holds, "residual": report.premise_residual}
        )
    ]
    for r in report.records:
        lines.append(json.dumps({"trial": r.trial, "causal": r.causal, "residual": r.residual, "seed": r.seed}))
    lines.append(
        json.dumps(
            {
                "summary": {
                    "trials": len(report.records),
                    "all_causal": report.all_causal,
                    "max_residual": report.max_residual,
                }
            }
        )
    )
    return lines
