"""Every name that the bench tracer wraps or reads still exists in soclab.

``bench/tracer.py`` looks its layers and caches up by name and raises in a
traced run when one is gone; this checks the same names without a bench
run.  The tracer file is only read here.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"


def tracer_constant(name):
    """The literal value assigned to ``name`` at the top of the tracer file."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER.name} assigns no {name}")


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
