import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import soclab

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


def test_every_public_name_is_used_or_documented():
    # A public name that only the tests use is an option or alias nobody
    # else needs: it must be used by another line of the package, by the
    # scripts, the bench or the project file, or be documented in README.
    lines = {path: path.read_text().splitlines() for path in sorted(PACKAGE.glob("*.py"))}
    outside = [ROOT / "README.md", ROOT / "pyproject.toml", *(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    outside_text = "\n".join(path.read_text() for path in outside)
    unused = []
    for path in lines:
        for name, lineno in public_definitions(path):
            word = re.compile(rf"\b{name}\b")
            elsewhere = (line for p, ls in lines.items() for k, line in enumerate(ls, 1) if (p, k) != (path, lineno))
            if not word.search(outside_text) and not any(word.search(line) for line in elsewhere):
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"public names used only by the tests: {unused}"
