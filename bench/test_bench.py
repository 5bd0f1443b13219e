"""Tests of the benchmark's own machinery.  Run with ``python -m pytest bench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from soclab import harness, predicates, process, supermap  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    spans = tracer.Tracer(clock=clock)
    inner = spans.wrap("tensor.partial_trace", lambda: clock.advance(2.0))

    def body():
        clock.advance(1.0)
        inner()
        clock.advance(0.5)
        inner()
        clock.advance(0.25)

    spans.wrap("supermap.insert", body)()
    outer, leaf = spans.stats["supermap.insert"], spans.stats["tensor.partial_trace"]
    assert (outer.calls, outer.self_s) == (1, 1.75)
    assert (leaf.calls, leaf.self_s) == (2, 4.0)


def test_a_raising_child_counts_as_an_error_and_still_covers_its_parent():
    clock = FakeClock()
    spans = tracer.Tracer(clock=clock)

    def fail():
        clock.advance(3.0)
        raise ValueError("boom")

    child = spans.wrap("dsl.parse", fail)

    def body():
        clock.advance(1.0)
        with pytest.raises(ValueError):
            child()

    spans.wrap("dsl.evaluate", body)()
    assert spans.stats["dsl.parse"].errors == 1
    assert spans.stats["dsl.evaluate"].errors == 0
    assert spans.stats["dsl.evaluate"].self_s == 1.0


def test_install_reaches_every_namespace_and_uninstall_restores_it():
    original = process.compose_seq
    spans = tracer.Tracer()
    uninstall = tracer.install(spans)
    try:
        assert supermap.compose_seq is process.compose_seq is not original
        w = supermap.fixed_order_a_then_b(2, 2, 2, 2)
        q = process.identity_process(process.System((2,)))
        supermap.insert(w, q, q)
    finally:
        uninstall()
    assert supermap.compose_seq is process.compose_seq is original
    stat = spans.stats["process.compose_seq"]
    assert stat.calls == 1
    assert stat.extra["macs"] == (16 * 1 * 4) ** 2  # x, y, z = 16, 1, 4 for an ancilla-free fill


def test_a_layer_the_package_no_longer_has_breaks_the_traced_run(monkeypatch):
    monkeypatch.setitem(tracer.LAYERS, "process", tracer.LAYERS["process"] + ("compose_gone",))
    original = process.compose_seq
    with pytest.raises(LookupError, match="compose_gone"):
        tracer.install(tracer.Tracer())
    assert process.compose_seq is original  # nothing was left wrapped
    monkeypatch.setattr(tracer, "CACHES", (("tensor", "kron"),))
    with pytest.raises(LookupError, match="lru_cache"):
        tracer.cache_counts()


def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        measure.percentile(range(99), 90)
    assert measure.percentile(range(1, 101), 90) == 90
    assert measure.percentile(range(1, 21), 50) == 10
    assert measure.min_ops_for(90) == 100


def test_a_wrong_verdict_or_a_raise_raises_fail_frac():
    w = supermap.fixed_order_a_then_b(2, 2, 2, 2)
    ops = [
        measure.Op("right", lambda: predicates.is_soc2(w), workloads.verdict_is(True)),
        measure.Op("wrong", lambda: predicates.is_soc2(w), workloads.verdict_is(False)),
        measure.Op("raises", lambda: 1 / 0, lambda out: True),
    ]
    done = measure.Pass()
    measure.run_ops(ops, done)
    assert (done.attempted, done.failed) == (3, 2)


def test_negative_control_fails_when_it_passes_and_zero_trials_never_pass():
    cfg = harness.HarnessConfig(trials=2, seed=3, ancilla_dim=2)
    good = harness.verify_theorem1(supermap.fixed_order_a_then_b(2, 2, 2, 2), cfg)
    spoiled = harness.verify_theorem1(workloads.spoiled_supermap(), cfg)
    assert workloads.report_is(True, 2)(good) and not workloads.report_is(True, 2)(spoiled)
    assert workloads.report_is(False, 2)(spoiled) and not workloads.report_is(False, 2)(good)
    empty = harness.verify_theorem1(supermap.fixed_order_a_then_b(2, 2, 2, 2), harness.HarnessConfig(trials=0))
    assert empty.all_causal  # the package's own summary of zero trials...
    assert not workloads.report_is(True, 0)(empty)  # ...is not a pass here
    assert not workloads.report_is(True, 2)(empty)


def test_cli_check_wants_the_pinned_code_and_valid_json():
    check = workloads.cli_output_ok(0, json_lines=False)
    assert check((0, '{\n  "a": 1\n}\n', ""))
    assert not check((1, '{"a": 1}\n', ""))
    with pytest.raises(json.JSONDecodeError):
        check((0, "residual: NaN\n", ""))
    assert workloads.cli_output_ok(0, json_lines=True)((0, '{"a": 1}\n{"b": 2}\n', ""))
    assert workloads.cli_output_ok(2, json_lines=False)((2, "", "error: 2:1: bad\n"))
    assert not workloads.cli_output_ok(2, json_lines=False)((2, "{}", "error: x\n"))


def test_inputs_depend_only_on_the_seed():
    a, b = workloads.build_fill(11, ROOT), workloads.build_fill(11, ROOT)
    c = workloads.build_fill(12, ROOT)
    bodies = lambda s: [w.body.choi for _, w in s.family]  # noqa: E731
    assert all(np.array_equal(x, y) for x, y in zip(bodies(a), bodies(b)))
    assert not all(np.array_equal(x, y) for x, y in zip(bodies(a), bodies(c)))
    assert [op.label for op in workloads.cycle_fill(a, 3)] == [op.label for op in workloads.cycle_fill(b, 3)]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fill", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_clear_caches_reaches_through_the_tracing_wrappers():
    from soclab import affine

    uninstall = tracer.install(tracer.Tracer())
    try:
        affine.nonsignalling_direction_dim(2, 1, 2, 1)
        assert sum(tracer.cache_counts()["affine.nonsignalling_direction_dim"]) > 0
        workloads.clear_caches()
        assert tracer.cache_counts()["affine.nonsignalling_direction_dim"] == [0, 0]
    finally:
        uninstall()
