import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import soclab

from fixtures import tracer_constant

README = Path(__file__).parent.parent / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text()
    block = re.search(r"## Quick start\s+```python\n(.*?)```", text, re.S)
    assert block is not None, "README has no Quick start python block"
    exec(compile(block.group(1), str(README), "exec"), {})


def test_every_exported_name_resolves():
    assert len(soclab.__all__) == len(set(soclab.__all__))
    for name in soclab.__all__:
        assert getattr(soclab, name) is not None, name


def test_import_leaves_the_diagram_and_affine_modules_unloaded():
    code = "import sys, soclab; print(sorted(m for m in sys.modules if m.startswith('soclab.')))"
    src = str(Path(soclab.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert "soclab.affine" not in out and "soclab.dsl" not in out and "soclab.cli" not in out


ROOT = Path(__file__).parent.parent
PACKAGE = Path(soclab.__file__).parent


def public_definitions(path):
    """``(name, line)`` of each public name that a module defines at its top."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno


def code_references(tree):
    """Every name that ``tree`` reads, looks up as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def kept_for_users():
    """``module.name`` of each helper that README's kept-for-users list names."""
    text = README.read_text()
    start = text.index("kept for users though nothing in the package calls them:")
    bullets = text[start:].split("\n\n", 2)[1]
    return {f"{mod}.{name}" for mod, name in re.findall(r"`(\w+)\.(\w+)\(", bullets)}


def test_every_public_name_is_used_or_documented():
    # A public name that only the tests use is an option or alias nobody
    # else needs: code of the package (outside the name's own definition),
    # the scripts or the bench must use it, an entry point of the project
    # file must name it, the bench tracer must look it up as a layer, or
    # README's kept-for-users list must name it.  Docstrings, comments and
    # other prose do not count.
    kept = kept_for_users()
    kept |= {f"{mod}.{name}" for mod, names in tracer_constant("LAYERS").items() for name in names}
    used = set(re.findall(r'^[\w-]+\s*=\s*"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text(), re.M))
    for path in [*(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        used |= set(code_references(ast.parse(path.read_text())))
    modules = {path: ast.parse(path.read_text()).body for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for path in modules:
        for name, lineno in public_definitions(path):
            elsewhere = (
                ref
                for p, stmts in modules.items()
                for stmt in stmts
                if (p, stmt.lineno) != (path, lineno)
                for ref in code_references(stmt)
            )
            qualified = f"{path.stem}.{name}"
            if qualified not in kept and name not in used and name not in elsewhere:
                unused.append(qualified)
    assert not unused, f"public names used only by the tests: {unused}"
