"""The memory probe ``probe.py``, the guard that keeps it the tests' one way
to bound memory, and the guard that keeps what tests share in modules that
are not tests (``probe``, ``naive``, ``fixtures``)."""

import ast
from pathlib import Path

import pytest

from soclab import extras, process, supermap, tensor

from probe import allocates_nothing, traced

TESTS = Path(__file__).parent


def bypasses(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, what)`` of each thing a module does that only the probe may,
    import ``tracemalloc`` or set a ``_zeros`` attribute, and of each import
    of a test module or of a name from one, which no module may."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "tracemalloc") for a in node.names if a.name == "tracemalloc"]
            found += [(node.lineno, "test module") for a in node.names if a.name.startswith("test_")]
        elif isinstance(node, ast.ImportFrom) and node.module == "tracemalloc":
            found.append((node.lineno, "tracemalloc"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("test_"):
            found.append((node.lineno, "test module"))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "setattr":
            named = [a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            found += [(node.lineno, "_zeros") for n in named if n.split(".")[-1] == "_zeros"]
        elif isinstance(node, ast.Attribute) and node.attr == "_zeros" and isinstance(node.ctx, ast.Store):
            found.append((node.lineno, "_zeros"))
    return sorted(found)


def test_only_the_probe_traces_memory_or_patches_the_allocator():
    found = {p.name: bypasses(ast.parse(p.read_text())) for p in sorted(TESTS.glob("*.py"))}
    found["probe.py"] = [b for b in found["probe.py"] if b[1] == "test module"]
    assert {name: b for name, b in found.items() if b} == {}


def test_the_guard_sees_each_way_round_the_probe():
    tree = ast.parse(
        "import os, tracemalloc\n"
        "from tracemalloc import start\n"
        "monkeypatch.setattr(process, '_zeros', None)\n"
        "setattr(supermap, '_zeros', None)\n"
        "mp.setattr('soclab.tensor._zeros', None)\n"
        "tensor._zeros = tensor._zeros\n"
        "from probe import slicing_forced\n"
        "from fixtures import supermap\n"
        "import testing, test_tensor\n"
        # The four imports of one test module by another that the fixtures replaced.
        "from test_process import assert_same_bits, assert_same_process, random_process\n"
        "from test_cli import FUZZ_FILES, GOLDEN, _mutated_document, dumped\n"
        "from test_affine import realize_by_wiring\n"
        "from test_bench_names import tracer_constant\n"
    )
    assert [what for _, what in bypasses(tree)] == ["tracemalloc"] * 2 + ["_zeros"] * 4 + ["test module"] * 5


@pytest.mark.parametrize("module", [tensor, process, supermap, extras], ids=lambda m: m.__name__)
def test_allocating_through_any_module_fails_and_the_allocator_comes_back(module):
    zeros = tensor._zeros
    with pytest.raises(pytest.fail.Exception, match="allocated before checking"), allocates_nothing():
        module._zeros((2,))
    assert module._zeros is zeros and tensor._zeros is zeros


def test_the_peak_is_measured_and_a_mebibyte_is_too_much():
    with traced() as t:
        bytearray(1 << 20)
    assert 1 << 20 <= t.peak < 2 << 20
    with pytest.raises(AssertionError, match="not under"), allocates_nothing() as t:
        bytearray(1 << 20)
    assert 1 << 20 <= t.peak
