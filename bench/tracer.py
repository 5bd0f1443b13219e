"""Per-layer spans around soclab's public functions, installed from outside.

The package itself carries no tracing.  :func:`install` replaces each listed
function, in every ``soclab`` module namespace that holds it, with a wrapper
that times the call and counts it; :class:`Tracer` aggregates the spans as
they close.  A layer's self time is its span's duration minus the time its
child spans cover, so the self times of nested layers never count the same
second twice.

Some counters are *computed* from argument shapes rather than measured:
they say how much work a call was handed, not how long it took or what the
hardware did.  They are listed in :data:`COMPUTED`.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from math import prod

# module -> public functions that get a span.  ``Process`` means the
# constructor (its ``__post_init__``, which validates and copies the Choi
# matrix).
LAYERS = {
    "tensor": ("partial_trace", "permute_subsystems", "kron"),
    "process": (
        "Process",
        "compose_seq",
        "compose_par",
        "rewire",
        "apply_to_state",
        "random_causal_channel",
        "process_from_dict",
    ),
    "supermap": ("insert_with_ancilla", "insert", "insert_merged", "dress_slots"),
    "predicates": ("is_causal", "is_nonsignalling", "is_soc", "is_soc2", "is_soc_oracle", "is_soc2_oracle"),
    "harness": ("verify_theorem1", "verify_corollary1"),
    "affine": ("decompose_nonsignalling", "nonsignalling_direction_dim", "realize_affine"),
    "dsl": ("parse", "evaluate"),
    "cli": ("main",),
}

# lru_caches whose hit ratio is reported, read from ``cache_info()``.
CACHES = (
    ("tensor", "hermitian_basis"),
    ("predicates", "causal_affine_basis"),
    ("affine", "nonsignalling_direction_dim"),
)

PACKAGE = "soclab"
COMPLEX_BYTES = 16


def _side(p) -> int:
    return p.in_sys.total * p.out_sys.total


def _oracle_insertions(args) -> int:
    w = args[0]
    per_hole = lambda d_in, d_out: d_in * d_in * (d_out * d_out - 1) + 1  # noqa: E731
    return per_hole(w.a_in, w.a_out) * per_hole(w.b_in, w.b_out)


def _choi_bytes_in(args) -> int:
    return len(args[0]["choi"]) ** 2 * 2 * 8  # [re, im] float pairs


# span key -> (extra counter name, how to fold it, value from (args, result)).
# All but the trial counts are computed from argument shapes.  A counter is
# read only after the call returned, so a failing call is counted as an error
# and nothing else.
COUNTERS = {
    "tensor.kron": ("max_side", max, lambda a, r: prod(m.shape[0] for m in a)),
    "process.Process": ("bytes_copied", sum, lambda a, r: _side(a[0]) ** 2 * COMPLEX_BYTES),
    "process.compose_seq": (
        "macs",
        sum,
        lambda a, r: (a[0].in_sys.total * a[0].out_sys.total * a[1].out_sys.total) ** 2,
    ),
    "process.compose_par": ("bytes", sum, lambda a, r: (_side(a[0]) * _side(a[1])) ** 2 * COMPLEX_BYTES),
    "process.process_from_dict": ("bytes_in", sum, lambda a, r: _choi_bytes_in(a)),
    "supermap.insert_with_ancilla": ("max_side", max, lambda a, r: _side(a[1]) * _side(a[2])),
    "predicates.is_soc2_oracle": ("insertions", sum, lambda a, r: _oracle_insertions(a)),
    "harness.verify_theorem1": ("trials", sum, lambda a, r: len(r.records)),
    "harness.verify_corollary1": ("trials", sum, lambda a, r: len(r.records)),
}

COMPUTED = (
    "tensor.kron.max_side",
    "process.Process.bytes_copied",
    "process.compose_seq.macs",
    "process.compose_seq.gmac_per_s",
    "process.compose_par.bytes",
    "process.process_from_dict.bytes_in",
    "supermap.insert_with_ancilla.max_side",
    "predicates.is_soc2_oracle.insertions_per_verdict",
)


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    extra: dict = field(default_factory=dict)


class Tracer:
    """Aggregates spans in memory; single-threaded, like the workloads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._open: list[float] = []  # child time covered so far, per open span

    def wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        counter = COUNTERS.get(key)

        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                duration = self.clock() - start
                covered = self._open.pop()
                stat.calls += 1
                stat.self_s += duration - covered
                if self._open:
                    self._open[-1] += duration
            if counter is not None:
                name, how, value = counter
                stat.extra[name] = how((stat.extra.get(name, 0), value(args, result)))
            return result

        traced.__wrapped__ = fn
        return traced


def _modules():
    return [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


def _lookup(module, name: str):
    """``module.name``; raises when the package no longer has it, so that a
    renamed or inlined layer breaks the traced run instead of reading zero."""
    if not hasattr(module, name):
        raise LookupError(f"{module.__name__}.{name} not found; bench/tracer.py lists it as a layer")
    return getattr(module, name)


def install(tracer: Tracer):
    """Wrap every function in :data:`LAYERS`; returns a function that undoes it.

    Every name is looked up before anything is wrapped, so a missing one
    leaves the package untouched.
    """
    targets = []  # (key, owner, attr, original)
    for mod_name, names in LAYERS.items():
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        for name in names:
            if name == "Process":
                cls = _lookup(module, "Process")
                targets.append((f"{mod_name}.{name}", cls, "__post_init__", _lookup(cls, "__post_init__")))
            else:
                targets.append((f"{mod_name}.{name}", module, name, _lookup(module, name)))
    undo = []
    for key, owner, attr, orig in targets:
        traced = tracer.wrap(key, orig)
        # A class method is patched on its class; a function in every soclab
        # namespace that imported it.
        places = [(owner, attr)] if isinstance(owner, type) else [
            (m, a) for m in _modules() for a, value in list(vars(m).items()) if value is orig
        ]
        for m, a in places:
            setattr(m, a, traced)
            undo.append((m, a, orig))

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall


def lru(mod_name: str, name: str):
    """The lru_cache object behind ``soclab.mod_name.name``, looking through a
    tracing wrapper; raises when the function is gone or no longer cached."""
    fn = _lookup(importlib.import_module(f"{PACKAGE}.{mod_name}"), name)
    while not hasattr(fn, "cache_info") and hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    if not hasattr(fn, "cache_info"):
        raise LookupError(f"{PACKAGE}.{mod_name}.{name} is no longer an lru_cache")
    return fn


def cache_counts() -> dict[str, list[int]]:
    """``[hits, misses]`` so far for each cache in :data:`CACHES`."""
    out = {}
    for mod_name, name in CACHES:
        info = lru(mod_name, name).cache_info()
        out[f"{mod_name}.{name}"] = [info.hits, info.misses]
    return out


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    extra_units = {
        "max_side": "count",
        "bytes_copied": "B",
        "macs": "MAC",
        "bytes": "B",
        "bytes_in": "B",
        "trials": "count",
    }
    out = []
    for mod_name, names in LAYERS.items():
        for name in names:
            key = f"{mod_name}.{name}"
            out += [(f"{key}.calls", "count", "lower"), (f"{key}.self_s", "s", "lower"), (f"{key}.errors", "count", "lower")]
            if key in COUNTERS:
                extra = COUNTERS[key][0]
                if extra == "insertions":
                    out.append((f"{key}.insertions_per_verdict", "count", "lower"))
                else:
                    out.append((f"{key}.{extra}", extra_units[extra], "higher" if extra == "trials" else "lower"))
            if key == "process.compose_seq":
                out.append((f"{key}.gmac_per_s", "GMAC/s", "higher"))
    out += [(f"{m}.{n}.hit_ratio", "ratio", "higher") for m, n in CACHES]
    out += [("trace.wall_s", "s", "lower"), ("trace.overhead_pct", "%", "lower")]
    return out


def layer_metrics(tracer: Tracer, caches: dict[str, list[int]], wall_s: float, overhead_pct: float) -> dict:
    """Turn aggregated spans and ``[hits, misses]`` per cache into the per-layer metric values."""
    values = {}
    for key, stat in tracer.stats.items():
        values[f"{key}.calls"] = stat.calls
        values[f"{key}.self_s"] = stat.self_s
        values[f"{key}.errors"] = stat.errors
        for name, v in stat.extra.items():
            if name == "insertions":
                values[f"{key}.insertions_per_verdict"] = v / stat.calls if stat.calls else 0
            else:
                values[f"{key}.{name}"] = v
    seq = tracer.stats.get("process.compose_seq")
    if seq is not None and seq.self_s > 0:
        values["process.compose_seq.gmac_per_s"] = seq.extra.get("macs", 0) / seq.self_s / 1e9
    for key, (hits, misses) in caches.items():
        values[f"{key}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["trace.wall_s"] = wall_s
    values["trace.overhead_pct"] = overhead_pct
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in metric_names()}
