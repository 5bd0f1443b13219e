"""Every name that the bench tracer wraps or reads still exists in soclab.

``bench/tracer.py`` looks its layers and caches up by name and raises in a
traced run when one is gone; this checks the same names without a bench
run.  The tracer file is only read here.
"""

import importlib
import pkgutil

import soclab

from fixtures import tracer_constant


def test_every_traced_layer_resolves():
    layers = tracer_constant("LAYERS")
    assert layers
    for mod_name, names in layers.items():
        module = importlib.import_module(f"soclab.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"soclab.{mod_name}.{name}"
    assert hasattr(importlib.import_module("soclab.process").Process, "__post_init__")


def test_every_traced_cache_is_an_lru_cache():
    caches = tracer_constant("CACHES")
    assert caches
    for mod_name, name in caches:
        fn = getattr(importlib.import_module(f"soclab.{mod_name}"), name, None)
        assert hasattr(fn, "cache_info"), f"soclab.{mod_name}.{name}"


# Caches that the bench does not empty before a set-up, each with its reason.
UNEMPTIED = {
    ("cli", "_build_parser"): "the argparse parser, built once per process; no soclab result depends on it",
    ("tensor", "_link_plan"): "link's index bookkeeping, keyed by shapes alone; it holds no array",
    ("tensor", "_trace_plan"): "partial_trace's checks and einsum subscripts, keyed by shapes alone",
}


def test_every_cache_in_soclab_is_traced_or_listed_as_unemptied():
    # A new cache must either be emptied and read by the bench (CACHES) or be
    # named above with the reason it is left warm.
    found = set()
    for info in pkgutil.iter_modules(soclab.__path__):
        module = importlib.import_module(f"soclab.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__:
                found.add((info.name, name))
    assert found == set(tracer_constant("CACHES")) | set(UNEMPTIED)
