"""Closed-loop timing, percentiles and memory, shared by every workload."""

from __future__ import annotations

import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

MIN_BEYOND = 10  # samples that must lie above a reported percentile


@dataclass(frozen=True)
class Op:
    """One call into soclab and the check its output must pass.

    ``check`` returns True when the output matches the expected value; a
    call that raises, or a check that raises, counts as a failure.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    cycles: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than ten samples above it."""
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, math.ceil(p / 100 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{p:g} of {n} samples leaves {n - rank} beyond it; need {MIN_BEYOND}")
    return xs[rank - 1]


def min_ops_for(p: float) -> int:
    """Fewest samples for which :func:`percentile` accepts ``p``."""
    n = MIN_BEYOND
    while n - max(1, math.ceil(p / 100 * n)) < MIN_BEYOND:
        n += 1
    return n


def run_ops(ops: list[Op], into: Pass, clock=time.perf_counter) -> None:
    """Run one cycle, one call at a time, each after the previous returned."""
    for op in ops:
        start = clock()
        try:
            out = op.call()
        except Exception:
            into.latencies.append(clock() - start)
            _fail(into, op, traceback.format_exc())
            continue
        into.latencies.append(clock() - start)
        try:
            ok = op.check(out)
        except Exception:
            _fail(into, op, traceback.format_exc())
            continue
        if not ok:
            _fail(into, op, f"unexpected output: {out!r:.300}\n")
    into.cycles += 1


def _fail(into: Pass, op: Op, why: str) -> None:
    if into.failed == 0:
        print(f"first failure in {op.label}:\n{why}", file=sys.stderr, end="")
    into.failed += 1


def first_round(cycle: Callable[[int], list[Op]], seconds: float, min_ops: int, clock=time.perf_counter) -> Pass:
    """Run whole cycles until ``seconds`` have passed and ``min_ops`` calls were made.

    Stopping only at a cycle boundary keeps the mix of operations, and so
    every percentile, the same from run to run.
    """
    out = Pass()
    start = clock()
    while out.cycles == 0 or clock() - start < seconds or out.attempted < min_ops:
        run_ops(cycle(out.cycles), out, clock)
    return out


def replay(cycle: Callable[[int], list[Op]], cycles: int, clock=time.perf_counter) -> Pass:
    """Run cycles ``0 .. cycles - 1`` again, with the same inputs."""
    out = Pass()
    for k in range(cycles):
        run_ops(cycle(k), out, clock)
    return out


def best_of(passes: list[Pass]) -> list[float]:
    """Each call's best time over passes that made the same calls in the same order."""
    return [min(times) for times in zip(*(p.latencies for p in passes))]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024
