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
