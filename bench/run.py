"""soclab benchmark: one workload, closed loop, every output checked.

    python3 bench/run.py --workload {fill,decide,cli_corpus} --seed N --seconds S --trace {0,1}

Run from anywhere; the benchmark finds the source tree next to its own
directory.  One caller makes one call at a time, each after the previous
returned (closed loop), for whole cycles of the workload until ``--seconds``
have passed and there are enough samples for the 90th percentile.

The report ends with one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the run makes the same untraced pass, then repeats its
cycles with a span around every public layer function and reports the
per-layer metrics and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: on a small shared machine, pools of BLAS threads make
# run-to-run timings far noisier.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PERCENTILES = (50, 90)
# Rounds per run.  Each round sets the workload up afresh and makes the same
# calls; a call's latency is the best of its rounds, and so is the set-up
# time.  The rounds lie seconds apart, so slowdowns that other tenants of a
# shared machine cause now and then hit few of them.
ROUNDS = 5
# Interpreter starts that import soclab, made at the start of each round so
# that they too lie seconds apart; the fastest of all rounds counts.
IMPORT_PROBES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("fill", "decide", "cli_corpus"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_seconds(env) -> float:
    """Wall time of a fresh interpreter that imports soclab and exits, as a
    shell user pays it: interpreter start, numpy and soclab."""
    start = time.perf_counter()
    # No timeout: with one, the wait polls with sleeps of up to 50 ms and the
    # time read comes in steps of that size.
    subprocess.run([sys.executable, "-c", "import soclab"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "soclab" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: no soclab source tree (src/soclab, tests/golden) under {ROOT}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    import measure
    import tracer
    import workloads

    import soclab

    if not Path(soclab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported soclab from {soclab.__file__}, not from {src}", file=sys.stderr)
        return 2

    build, cycle = workloads.WORKLOADS[args.workload]
    min_ops = measure.min_ops_for(max(PERCENTILES))
    import_times, build_times, passes = [], [], []
    for _ in range(ROUNDS):
        import_times += [import_seconds(env) for _ in range(IMPORT_PROBES)]
        state = None  # free the previous inputs before making new ones
        workloads.clear_caches()
        start = time.perf_counter()
        state = build(args.seed, ROOT)
        build_times.append(time.perf_counter() - start)
        calls = lambda k: cycle(state, k)  # noqa: E731
        if passes:
            passes.append(measure.replay(calls, passes[0].cycles))
        else:
            passes.append(measure.first_round(calls, args.seconds / ROUNDS, min_ops))
    plain = passes[0]
    best = measure.best_of(passes)
    import_s, build_s = min(import_times), min(build_times)
    setup_s = import_s + build_s
    lines = [
        f"soclab benchmark  workload={args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}",
        "env " + json.dumps(environment(), sort_keys=True),
        f"setup_s: best of {ROUNDS} set-ups ({build_s:.4f} s) + best of {len(import_times)} interpreter starts"
        f" importing soclab ({import_s:.4f} s)",
    ]

    if args.trace:
        spans = tracer.Tracer()
        before = tracer.cache_counts()
        uninstall = tracer.install(spans)
        traced = measure.Pass()
        try:
            for k in range(plain.cycles):
                measure.run_ops(cycle(state, k), traced)
        finally:
            uninstall()
        after = tracer.cache_counts()
        caches = {key: [a - b for a, b in zip(after[key], before[key])] for key in after}
        untraced_s = statistics.median(p.busy_s for p in passes)
        overhead_pct = (traced.busy_s / untraced_s - 1) * 100
        metrics = tracer.layer_metrics(spans, caches, traced.busy_s, overhead_pct)
        passes.append(traced)
        lines.append(
            f"traced pass: {traced.attempted} calls over the same {plain.cycles} cycles,"
            f" {traced.busy_s:.3f} s traced vs {untraced_s:.3f} s untraced (median of {ROUNDS} rounds)"
        )
        computed = set(tracer.COMPUTED)
        for name, m in metrics.items():
            tag = "  [computed from argument shapes]" if name in computed else ""
            lines.append(f"  {name:<56} {m['value']:.6g} {m['unit']}{tag}")
    else:
        n = len(best)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        metrics["ops_per_s"] = {"value": n / sum(best), "unit": "1/s"}
        for p in PERCENTILES:
            metrics[f"op_p{p}_ms"] = {"value": measure.percentile(best, p) * 1e3, "unit": "ms"}
        metrics["peak_rss_mb"] = {"value": measure.peak_rss_mb(), "unit": "MB"}
        notes = {f"op_p{p}_ms": f"n={n}, {n - math.ceil(p * n / 100)} beyond" for p in PERCENTILES}
        notes["ops_per_s"] = f"{n} calls, best of {ROUNDS} each, {sum(best):.3f} s; {plain.cycles} cycles"
        notes["peak_rss_mb"] = "ru_maxrss, max of this process and its children"
        for name, m in metrics.items():
            lines.append(f"  {name:<12} {m['value']:.6g} {m['unit']}  {notes.get(name, '')}".rstrip())

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    lines.append(f"  {'fail_frac':<12} {failed / attempted:.6g} share  ({failed} of {attempted} calls failed or were wrong)")
    print("\n".join(lines))
    result = {"correct": attempted > 0 and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
