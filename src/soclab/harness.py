"""Randomized end-to-end verification runs with reproducible reports.

Each verifier first evaluates the structural premise on the supermap,
then runs seeded trials that build random arguments, push them through
the public insertion machinery, and check the output for causality.
Theorem 1's trials fill each hole with a channel that drags an ancilla
through it; the corollary's fill both holes with one strongly
non-signalling channel, made of local channels on a shared state.
Reports serialize to JSON lines: one premise line, one line per trial,
one summary line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .predicates import is_soc2, make_strongly_nonsignalling
from .process import make_state, random_causal_channel, random_density
from .supermap import BipartiteSupermap, insert_merged, insert_with_ancilla
from .tensor import DEFAULT_EPS, System


@dataclass(frozen=True)
class HarnessConfig:
    trials: int = 100
    seed: int = 0
    ancilla_dim: int = 2
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        # Zero trials stay allowed: an empty run's report has no records,
        # and the entry points reject --trials 0 themselves.
        if self.ancilla_dim < 1:
            raise ValueError(f"ancilla_dim must be a positive integer, got {self.ancilla_dim!r}")
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


def _run(w: BipartiteSupermap, config: HarnessConfig, fill) -> HarnessReport:
    """The premise, then one seeded trial per record: ``fill(rng)`` draws
    the arguments and returns the filled supermap's insertion result."""
    premise = is_soc2(w, config.eps)
    records = []
    for t in range(config.trials):
        s = _trial_seed(config.seed, t)
        verdict = fill(np.random.default_rng(s)).causal
        records.append(TrialRecord(t, verdict.holds, verdict.residual, s))
    return HarnessReport("soc2", premise.holds, premise.residual, tuple(records))


def verify_theorem1(w: BipartiteSupermap, config: HarnessConfig = HarnessConfig()) -> HarnessReport:
    """Order preservation survives side wires.

    Trials fill both holes with random causal channels that each drag an
    ancilla through, and check the resulting extended channel is causal.
    """
    m = config.ancilla_dim

    def fill(rng):
        pa = random_causal_channel(System((m, w.a_in)), System((m, w.a_out)), seed=rng)
        pb = random_causal_channel(System((m, w.b_in)), System((m, w.b_out)), seed=rng)
        return insert_with_ancilla(w, pa, pb, (1, 1), (1, 1), eps=config.eps)

    return _run(w, config, fill)


def verify_corollary1(w: BipartiteSupermap, config: HarnessConfig = HarnessConfig()) -> HarnessReport:
    """Strongly non-signalling ("localizable") arguments come out causal.

    Trials draw a random shared state on two memories and local causal
    channels ``(A1, m) -> A2`` and ``(m, B1) -> B2`` consuming its halves,
    assemble them into one channel ``A1 B1 -> A2 B2`` with
    :func:`make_strongly_nonsignalling`, fill both holes with it through
    :func:`insert_merged`, and check the output for causality.
    """
    m = config.ancilla_dim

    def fill(rng):
        psi_a = random_causal_channel(System((w.a_in, m)), System((w.a_out,)), seed=rng)
        psi_b = random_causal_channel(System((m, w.b_in)), System((w.b_out,)), seed=rng)
        shared = make_state(random_density(System((m, m)), seed=rng), System((m, m)))
        return insert_merged(w, make_strongly_nonsignalling(psi_a, psi_b, shared), eps=config.eps)

    return _run(w, config, fill)


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
