"""The corpus generator reproduces the checked-in corpus under tests/golden."""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
SCRIPT = Path(__file__).parent.parent / "scripts" / "generate_golden.py"


def load_script():
    spec = importlib.util.spec_from_file_location("generate_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_same_record(got, want, where):
    """Same keys, list lengths, strings and integers; floats within 1e-12."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_same_record(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_same_record(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12, where
    else:
        assert got == want, where


def test_regenerating_reproduces_the_corpus(tmp_path, monkeypatch, capsys):
    script = load_script()
    monkeypatch.setattr(script, "GOLDEN", str(tmp_path))
    script.main()
    made = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert made == sorted(p.relative_to(GOLDEN) for p in GOLDEN.rglob("*") if p.is_file())
    for rel in made:
        if rel.suffix == ".diag":
            assert (tmp_path / rel).read_bytes() == (GOLDEN / rel).read_bytes(), rel
        else:
            assert_same_record(json.loads((tmp_path / rel).read_text()), json.loads((GOLDEN / rel).read_text()), str(rel))
