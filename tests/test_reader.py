"""The strict reader of process files against ``json``, the reader it stands
in for: every document must load alike through both, to the bit and to the
error message, and the golden files must go through the strict one."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclab import process
from soclab.cli import main
from soclab.process import _read_json, _strict_record, identity_process, process_from_dict
from soclab.supermap import fixed_order_a_then_b, supermap_from_dict
from soclab.tensor import System
from probe import traced
from test_cli import FUZZ_FILES, GOLDEN, _mutated_document, dumped

RECORDS = sorted(p.relative_to(GOLDEN).as_posix() for pattern in ("*.json", "boxes/*.json") for p in GOLDEN.glob(pattern))
# The golden diagrams that evaluate.
DIAGRAMS = ["cap_then_cup.diag", "discards.diag", "yanking.diag"]


@contextlib.contextmanager
def reading(strict: bool):
    """``_read_json`` that tries the strict reader on every text, whatever
    its size and the length of its numbers, or on none."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(process, "_STRICT_MIN_CHARS", 0 if strict else 1 << 62)
        mp.setattr(process, "_STRICT_NUMBER_CHARS", 1 << 62)
        yield


def taken(path) -> bool:
    """Whether the strict reader, its gates open, takes the file."""
    with open(path) as fh, reading(strict=True):
        return _strict_record(fh.read()) is not None


def outcome(path):
    """What loading ``path`` as a process and as a supermap gives, and what
    ``classify`` prints: each load's error, or its dims and Choi bytes
    (which hold the sign of every zero)."""
    loads = []
    for load in (process_from_dict, lambda d: supermap_from_dict(d).body):
        try:
            p = load(_read_json(str(path)))
        except Exception as exc:  # every error must match, whatever its type
            loads.append((type(exc).__name__, str(exc)))
        else:
            loads.append((p.in_sys.dims, p.out_sys.dims, p.choi.tobytes()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", str(path)])
    return loads, code, out.getvalue(), err.getvalue()


def both_outcomes(path):
    with reading(strict=True):
        strict = outcome(path)
    with reading(strict=False):
        plain = outcome(path)
    return strict, plain


class TestGoldenFiles:
    @pytest.mark.parametrize("name", RECORDS)
    def test_every_record_is_read_strictly_and_alike(self, name):
        assert taken(GOLDEN / name)
        strict, plain = both_outcomes(GOLDEN / name)
        assert strict == plain

    @pytest.mark.parametrize("name", DIAGRAMS)
    def test_what_eval_writes_is_read_strictly_and_alike(self, name, tmp_path, capsys):
        assert main(["eval", str(GOLDEN / name)]) == 0
        path = tmp_path / "out.json"
        path.write_text(capsys.readouterr().out)
        assert taken(path)
        strict, plain = both_outcomes(path)
        assert strict == plain

    @pytest.mark.parametrize(
        "name, strict",
        [
            ("fixed_order_a_then_b.json", True),
            ("swap_channel.json", True),
            # 17-digit numbers: numpy parses them no faster than json.
            ("product_channel.json", False),
            ("ns_mix.json", False),
            # Too short to pay for the checks.
            ("identity_channel.json", False),
        ],
    )
    def test_the_gates_send_long_texts_of_short_numbers_to_the_strict_reader(self, name, strict):
        doc = _read_json(str(GOLDEN / name))
        assert isinstance(doc.get("process", doc)["choi"], np.ndarray) is strict


def _identity_text() -> str:
    return json.dumps({"choi": [[[float(i == j and i in (0, 3)), 0.0] for j in range(4)] for i in range(4)], "in": [2], "out": [2]})


def _edit(text: str, change) -> str:
    """``text`` with ``change`` applied to its choi array."""
    doc = json.loads(text)
    change(doc["choi"])
    return json.dumps(doc)


# Each case replaces the first "0.0", the imaginary part of the first entry,
# unless it rewrites the whole text; True where the strict reader takes it.
TARGETED = {
    "point-last": ("1.", False),
    "point-first": (".5", False),
    "plus": ("+1", False),
    "leading-zero": ("01", False),
    "minus-leading-zero": ("-01.5", False),
    "exponent-leading-zero": ("1e05", True),
    "negative-exponent": ("1.5E-07", True),
    "integer": ("7", True),
    "integer-minus-zero": ("-0", False),
    "float-minus-zero": ("-0.0", True),
    "minus-zero-exponent": ("-0e3", True),
    "two-points": ("1.0.0", False),
    "two-exponents": ("1e5e3", False),
    "point-exponent": ("1.e5", False),
    "bare-minus": ("-", False),
    "space-inside": ("1 0", False),
    "past-float-range": ("1e400", False),
    "int-past-float-range": (str(10**400), False),
    "int-too-long-to-read": ("1" + "0" * 5000, False),
    "nan": ("NaN", False),
    "infinity": ("-Infinity", False),
    "string": ('"1"', False),
    "bool": ("true", False),
    "three-numbers": ("0.0, 0.0", False),
    "one-number": ("0.0]", False),
    "two-choi-keys": (lambda t: t.replace('{"choi"', '{"choi": [[[5.0, 0.0]]], "choi"'), False),
    "choi-in-a-string": (lambda t: t.replace('"in"', '"note": "choi", "in"'), False),
    "escaped-choi-key": (lambda t: t.replace('"in"', '"ch\\u006fi": [], "in"'), False),
    "unicode-bom": (lambda t: "\ufeff" + t, False),
    "non-ascii": (lambda t: t.replace('"in"', '"note": "é", "in"'), False),
    "compact": (lambda t: t.replace(", ", ","), True),
    "indented": (lambda t: json.dumps(json.loads(t), indent=2), True),
    "crlf": (lambda t: json.dumps(json.loads(t), indent=2).replace("\n", "\r\n"), True),
    "tabs": (lambda t: t.replace(" ", "\t"), True),
    "eval-layout": (lambda t: dumped(identity_process(System((2,)))), True),
    "supermap": (lambda t: json.dumps({"process": json.loads(t), "slots": {"a": [1, 1], "b": [1, 2]}}), True),
    "ragged-pairs": (lambda t: _edit(t, lambda c: c[0].__setitem__(slice(0, 2), [[1.0, 0.0, 0.0], [0.0]])), False),
    "ragged-rows": (lambda t: _edit(t, lambda c: c[0].append(c[1].pop(0))), False),
    "nested-elsewhere": (lambda t: json.dumps({"x": json.loads(t)}), False),
    "trailing-garbage": (lambda t: t + "]", False),
    "truncated": (lambda t: t[: t.index("]]]") + 2], False),
}


@pytest.mark.parametrize("case", sorted(TARGETED))
def test_targeted_documents_read_alike(case, tmp_path):
    change, want = TARGETED[case]
    text = _identity_text()
    text = change(text) if callable(change) else text.replace("0.0", change, 1)
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode("utf-8"))  # bytes, so a CRLF stays one
    assert taken(path) is want
    strict, plain = both_outcomes(path)
    assert strict == plain


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


@given(data=st.data(), name=st.sampled_from([f for f in FUZZ_FILES if f.endswith(".json")]))
@settings(max_examples=150, deadline=None)
def test_fuzzed_documents_read_alike(doc_dir, data, name):
    # The documents of TestFuzzedDocuments: one mutation of a golden record.
    path = doc_dir / "doc.json"
    path.write_text(data.draw(_mutated_document((GOLDEN / name).read_text()), label="document"))
    strict, plain = both_outcomes(path)
    assert strict == plain


def test_a_d3_fixed_order_loads_in_three_times_its_tensor(tmp_path):
    # The compact file json.dumps writes (6.4 MB) for an 8.5 MB tensor; read
    # by json, its nested lists peaked at 12 times the tensor.
    w = fixed_order_a_then_b(3, 3, 3, 3)
    body = w.body
    ones = (body.choi.real == 1).tolist()
    pairs = ("[0.0, 0.0]", "[1.0, 0.0]")
    choi = "[" + ", ".join("[" + ", ".join([pairs[x] for x in row]) + "]" for row in ones) + "]"
    record = {"process": {"choi": None, "in": list(body.in_sys.dims), "out": list(body.out_sys.dims)},
              "slots": {"a": [w.a_in, w.a_out], "b": [w.b_in, w.b_out]}}
    path = tmp_path / "order.json"
    path.write_text(json.dumps(record).replace("null", choi))
    del ones, choi
    with traced() as t:
        doc = _read_json(str(path))
        got = supermap_from_dict(doc).body
    assert isinstance(doc["process"]["choi"], np.ndarray)
    assert np.array_equal(got.choi, body.choi)
    assert t.peak <= 3 * body.tensor.nbytes
