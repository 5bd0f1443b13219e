import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import soclab
from soclab import cli
from soclab.cli import _dims_document, main
from soclab.dsl import evaluate
from soclab.extras import spoiled_supermap
from soclab.process import Process, identity_process, process_from_dict, process_to_dict
from soclab.supermap import fixed_order_a_then_b, supermap_to_dict
from soclab.tensor import System

from fixtures import FUZZ_FILES, GOLDEN, dumped, mutated_document
from probe import traced


@pytest.fixture(autouse=True)
def clean_eps_env(monkeypatch):
    monkeypatch.delenv("SOCLAB_EPS", raising=False)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenCorpus:
    def test_eval_output_bytes_are_pinned(self, capsys):
        # One write of the whole document: the same bytes as streaming it
        # through json.dump, and the same bytes as ever for this corpus file.
        _, out, _ = run(["eval", str(GOLDEN / "cap_then_cup.diag")], capsys)
        streamed = io.StringIO()
        json.dump(json.loads(out), streamed, indent=2, sort_keys=True)
        assert out == streamed.getvalue() + "\n"
        assert len(out.encode()) == 276_610
        assert hashlib.sha256(out.encode()).hexdigest() == "d5dfc3f5dac4a78f757b6781e06f96badb4d5c8f629e4c383b22bba29c0c1c4c"

    @pytest.mark.parametrize("argv,digest", [
        pytest.param(["decompose", "ns_mix.json", "--span-size", "180", "--seed", "2"],
                     "5b6963ba7ede7a594a13a8bf445b8e32f633115cca16c22fdf354f91168ff508", id="decompose"),
        pytest.param(["verify", "theorem1", "fixed_order_a_then_b.json", "--trials", "3", "--seed", "1", "--dims", "2"],
                     "19164f3d715292b14f07ab0b01ed99cb832b3ed121fe4a1910c1db8618a9597d", id="theorem1-dims2"),
        pytest.param(["verify", "theorem1", "fixed_order_a_then_b.json", "--trials", "3", "--seed", "1", "--dims", "3"],
                     "a1306f2c6ed787de6fa1bfba3d92255b31ea2d20875925e08f125ab3c547373d", id="theorem1-dims3"),
        pytest.param(["verify", "corollary1", "fixed_order_a_then_b.json", "--trials", "3", "--seed", "1", "--dims", "2"],
                     "5229ac8ca9cd39afef8bb24907624599749b4055d7d6ad438886cab9caccadfb", id="corollary1-dims2"),
    ])
    def test_seeded_output_bytes_are_pinned(self, argv, digest, capsys):
        # Every random channel behind these outputs comes from the seeded
        # stream, so a change in how channels are drawn shows up here.
        argv = [str(GOLDEN / a) if (GOLDEN / a).exists() else a for a in argv]
        _, out, _ = run(argv, capsys)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_syntax_error_names_position(self, capsys):
        _, _, err = run(["eval", str(GOLDEN / "bad_syntax.diag")], capsys)
        assert "2:1" in err

    def test_verify_with_ancillas_too_large_to_fill_out(self, capsys):
        # Each filled process would be 40000 x 40000; the trials only link
        # traced marginals, so the run completes.
        code, out, err = run(
            ["verify", "theorem1", str(GOLDEN / "fixed_order_a_then_b.json"),
             "--trials", "2", "--seed", "1", "--dims", "10"],
            capsys,
        )
        assert code == 0 and not err
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert [rec["causal"] for rec in lines[1:3]] == [True, True]
        summary = lines[3]["summary"]
        assert summary["trials"] == 2 and summary["all_causal"] is True and summary["max_residual"] < 1e-9


# Entries whose text stresses float formatting: signed zero, the smallest
# subnormal, tiny and huge magnitudes, and a value with no short binary form.
TRICKY_FLOATS = [-0.0, 5e-324, 1e-300, 1e16, 0.1]
factor_lists = st.lists(st.integers(1, 3), min_size=0, max_size=2)
entries = st.one_of(st.sampled_from(TRICKY_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, reported by the first character that differs: a
    diff of two long documents would take longer than the test."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"texts differ from character {at}: {got[at - 30 : at + 30]!r} != {want[at - 30 : at + 30]!r}")


# The one-string writer of `eval` before it streamed, kept as the reference.
def _process_document(p: Process) -> str:
    """``json.dumps(process_to_dict(p), indent=2, sort_keys=True)``, byte for
    byte.  ``indent`` sends ``json`` to its pure-Python encoder, so the
    numbers come from one compact (C-encoded) ``dumps`` of the entries and
    are laid out in the indented form by one string template."""
    side = p.choi.shape[0]
    # A complex array read as floats interleaves each entry's re and im.
    tokens = json.dumps(p.choi.ravel().view(float).tolist())[1:-1].split(", ")
    # Separators between an entry's [re, im], between entries, and between rows.
    pair = "%s,\n        %s"
    row = "\n      ],\n      [\n        ".join([pair] * side)
    body = "\n      ]\n    ],\n    [\n      [\n        ".join([row] * side) % tuple(tokens)
    return (
        '{\n  "choi": [\n    [\n      [\n        ' + body + '\n      ]\n    ]\n  ],\n'
        f'  "in": {_dims_document(p.in_sys.dims)},\n  "out": {_dims_document(p.out_sys.dims)}\n}}'
    )


class TestProcessDocument:
    @given(factor_lists, factor_lists, st.lists(entries, min_size=1, max_size=12), st.lists(entries, min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_equals_the_indented_json_encoder(self, ins, outs, re, im):
        side = int(np.prod(ins)) * int(np.prod(outs))
        # Set the parts apart: adding them would turn some -0.0 into 0.0.
        choi = np.empty((side, side), dtype=complex)
        choi.real, choi.imag = np.resize(re, (side, side)), np.resize(im, (side, side))
        p = Process(System(tuple(ins)), System(tuple(outs)), choi)
        assert dumped(p) == json.dumps(process_to_dict(p), indent=2, sort_keys=True)

    def test_non_finite_entries_are_written_as_json_writes_them(self):
        # Overflow inside a composition can leave such entries; the public
        # constructor would reject them, so adopt the array directly.
        p = Process._adopt(System((2,)), System(()), np.array([[np.inf, -np.inf], [np.nan, 1j * np.inf]]))
        assert dumped(p) == json.dumps(process_to_dict(p), indent=2, sort_keys=True)


class TestStreamedDocument:
    """The writer of ``eval`` streams row blocks and formats each distinct
    value of a block once; its bytes are those of the one-string template
    above, which the tests of the indented encoder checked before it."""

    @given(
        st.lists(st.integers(1, 4), max_size=2),
        factor_lists,
        # A few values, so that entries repeat, among them both zeros,
        # the tricky floats and values that are not finite.
        st.lists(st.one_of(st.sampled_from(TRICKY_FLOATS + [0.0, np.inf, -np.inf, np.nan]), st.floats()), min_size=1, max_size=5),
        st.lists(st.integers(0, 4), min_size=1, max_size=40),
        st.sampled_from([1, 7, 64, cli.BLOCK_FLOATS]),
        st.sampled_from([0, cli.DEDUPE_FROM]),
    )
    # A matrix of 300 x 300 entries spans three blocks of the real size.
    @example([300], [], [0.0, -0.0, 1.0, 0.1], [0, 1, 2, 0, 3, 2, 1], cli.BLOCK_FLOATS, cli.DEDUPE_FROM)
    @settings(max_examples=60)
    def test_bytes_equal_the_one_string_template(self, ins, outs, pool, picks, block, dedupe_from):
        side = int(np.prod(ins)) * int(np.prod(outs))
        floats = np.array(pool)[np.resize(np.array(picks) % len(pool), 2 * side * side)]
        p = Process._adopt(System(tuple(ins)), System(tuple(outs)), floats.view(complex).reshape(side, side))
        with mock.patch.object(cli, "BLOCK_FLOATS", block), mock.patch.object(cli, "DEDUPE_FROM", dedupe_from):
            assert_same_text(dumped(p), _process_document(p))


class _DigestSink:
    """A stdout that keeps only the length and sha256 of what it is sent."""

    def __init__(self):
        self.size, self.hash = 0, hashlib.sha256()

    def write(self, text):
        data = text.encode()
        self.size += len(data)
        self.hash.update(data)
        return len(text)

    def flush(self):
        pass


class TestEvalMemory:
    # At R = 6 the Choi matrix is 1296 x 1296 complex (25.6 MiB) and the
    # document 70.6 MB; one string of it would hold several times the matrix.
    DIAGRAM = "system R = 6 ;\ncap[R] ; cup[R]\n"
    CHOI_BYTES = 6**8 * 16

    def test_evaluating_holds_about_one_choi_matrix(self):
        with traced() as t:
            p = evaluate(self.DIAGRAM)
        assert p.choi.nbytes == self.CHOI_BYTES
        assert t.peak <= 1.05 * self.CHOI_BYTES

    def test_eval_streams_its_document_in_bounded_memory(self, tmp_path, monkeypatch):
        diag = tmp_path / "r6.diag"
        diag.write_text(self.DIAGRAM)
        sink = _DigestSink()
        monkeypatch.setattr(sys, "stdout", sink)
        with traced() as t:
            code = main(["eval", str(diag)])
        assert code == 0
        assert t.peak <= 1.5 * self.CHOI_BYTES
        assert sink.size == 70_559_500
        assert sink.hash.hexdigest() == "8d158d073bd2acbfc1dd96b25d6511d90b2f528d6c1ecc8f70e8228cfd406af7"


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, out, err = run(["classify", "no_such_file.json"], capsys)
        assert code == 3 and not out and "error:" in err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        code, _, _ = run(["classify", str(bad)], capsys)
        assert code == 3

    def test_wrong_schema(self, tmp_path, capsys):
        bad = tmp_path / "odd.json"
        bad.write_text(json.dumps({"maps": []}))
        code, _, _ = run(["classify", str(bad)], capsys)
        assert code == 3

    def test_declarations_only_diagram(self, tmp_path, capsys):
        d = tmp_path / "empty.diag"
        d.write_text("system Q = 2 ;\n")
        code, out, err = run(["eval", str(d)], capsys)
        assert code == 2 and not out and "nothing to evaluate" in err

    def test_missing_box_file(self, tmp_path, capsys):
        d = tmp_path / "needs_box.diag"
        d.write_text('system Q = 2 ;\nbox f : Q -> Q @ "gone.json" ;\nf\n')
        code, _, _ = run(["eval", str(d)], capsys)
        assert code == 3

    def test_argparse_failures(self, capsys):
        assert run(["frobnicate", "x.json"], capsys)[0] == 2
        assert run(["soc", str(GOLDEN / "cup_loop.json")], capsys)[0] == 2
        assert run([], capsys)[0] == 2

    def test_bad_eps_env(self, monkeypatch, capsys):
        monkeypatch.setenv("SOCLAB_EPS", "not-a-number")
        code, _, err = run(["classify", str(GOLDEN / "identity_channel.json")], capsys)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("value", ["-1e-3", "nan", "inf"])
    def test_negative_or_non_finite_eps(self, value, monkeypatch, capsys):
        target = str(GOLDEN / "identity_channel.json")
        code, out, err = run(["classify", target, f"--eps={value}"], capsys)
        assert code == 2 and not out and "tolerance" in err
        monkeypatch.setenv("SOCLAB_EPS", value)
        code, out, err = run(["classify", target], capsys)
        assert code == 2 and not out and "tolerance" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_needs_at_least_one_trial(self, trials, capsys):
        argv = ["verify", "theorem1", str(GOLDEN / "fixed_order_a_then_b.json"), "--trials", trials]
        code, out, err = run(argv, capsys)
        assert code == 2 and not out and "positive integer" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "theorem1", "no_such_file.json", "--seed", "-1"],
            ["decompose", "no_such_file.json", "--span-size", "5", "--seed", "-1"],
        ],
        ids=["verify", "decompose"],
    )
    def test_a_negative_seed_is_an_argument_error_before_any_file_is_read(self, argv, capsys):
        # A missing file would exit 3; the seed must be refused first.
        code, out, err = run(argv, capsys)
        assert code == 2 and not out and "--seed" in err and "non-negative integer" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "theorem1", "fixed_order_a_then_b.json", "--trials", "1", "--dims", "0"], "positive integer"),
            (["decompose", "ns_mix.json", "--span-size", "0"], "positive integer"),
            (["decompose", "ns_mix.json", "--span-size", "180", "--tol", "nan"], "tolerance"),
            (["decompose", "ns_mix.json", "--span-size", "180", "--tol", "-1"], "tolerance"),
        ],
        ids=["dims-0", "span-size-0", "tol-nan", "tol-negative"],
    )
    def test_bad_sizes_and_tolerances_are_argument_errors(self, argv, message, capsys):
        argv = [str(GOLDEN / a) if (GOLDEN / a).exists() else a for a in argv]
        code, out, err = run(argv, capsys)
        assert code == 2 and not out and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "swap_channel.json", "--split", "0", "0"],
            ["classify", "swap_channel.json", "--split", "5", "5"],
            ["classify", "swap_channel.json", "--split", "2", "2"],
            ["classify", "swap_channel.json", "--split", "-1", "1"],
            ["soc", "cup_loop.json", "--slots", "7", "0"],
            ["soc", "cup_loop.json", "--slots", "0", "0"],
            ["soc", "cup_loop.json", "--slots", "1", "-1"],
            ["decompose", "ns_mix.json", "--span-size", "10", "--split", "0", "1"],
            ["decompose", "ns_mix.json", "--span-size", "10", "--split", "1", "3"],
        ],
        ids=lambda v: " ".join(v[:1] + v[-3:]),
    )
    def test_split_counts_out_of_bounds_are_argument_errors(self, argv, capsys):
        # A count below 0 or above the file's factor count, or a split that
        # leaves one side with nothing, would make the check trivial or
        # meaningless; the swap would pass as non-signalling at --split 0 0.
        flag = argv[-3]
        argv = [str(GOLDEN / a) if (GOLDEN / a).exists() else a for a in argv]
        code, out, err = run(argv, capsys)
        assert code == 2 and not out and f"error: {flag}" in err

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda choi: [[[float("nan")] * 2 for _ in row] for row in choi], "finite"),
            (lambda choi: [[[float("inf")] * 2 for _ in row] for row in choi], "finite"),
            (lambda choi: [[[str(x) for x in pair] for pair in row] for row in choi], "JSON numbers, got str"),
            (lambda choi: [[[bool(x) for x in pair] for pair in row] for row in choi], "JSON numbers, got bool"),
            (lambda choi: [[[True, False]] + choi[0][1:]] + choi[1:], "JSON numbers, got bool"),
        ],
        ids=["nan", "inf", "strings", "bools", "one-bool-pair"],
    )
    def test_a_choi_entry_that_is_not_a_finite_json_number_is_a_malformed_file(self, spoil, message, tmp_path, capsys):
        # np.asarray would read "1" and true as 1.0, so the last three would
        # load as the identity channel.
        record = json.loads((GOLDEN / "identity_channel.json").read_text())
        record["choi"] = spoil(record["choi"])
        path = tmp_path / "not_numbers.json"
        path.write_text(json.dumps(record))
        code, out, err = run(["classify", str(path)], capsys)
        assert code == 3 and not out and message in err

    @pytest.mark.parametrize(
        "command, file, keys, bad",
        [
            ("classify", "identity_channel.json", ["in"], [2.5]),
            ("classify", "identity_channel.json", ["in"], [True, 2]),
            ("classify", "identity_channel.json", ["in"], ["2"]),
            ("classify", "identity_channel.json", ["in"], "2"),
            ("classify", "identity_channel.json", ["out"], [2.0]),
            ("soc2", "fixed_order_a_then_b.json", ["slots", "a"], ["2", 2.5]),
            ("soc2", "fixed_order_a_then_b.json", ["slots", "b"], [2.9, 2]),
        ],
        ids=["in-float", "in-bool", "in-string", "in-not-a-list", "out-float", "slot-string", "slot-float"],
    )
    def test_a_dimension_that_is_not_a_json_integer_is_a_malformed_file(self, command, file, keys, bad, tmp_path, capsys):
        record = json.loads((GOLDEN / file).read_text())
        *path, last = keys
        target = record
        for k in path:
            target = target[k]
        target[last] = bad
        bad_file = tmp_path / file
        bad_file.write_text(json.dumps(record))
        code, out, err = run([command, str(bad_file)], capsys)
        assert code == 3 and not out and f"{keys[-1]} must be a list of integers" in err

    def test_dims_that_do_not_match_the_choi_side_are_a_malformed_file(self, tmp_path, capsys):
        record = json.loads((GOLDEN / "identity_channel.json").read_text())
        record["in"] = [3]
        path = tmp_path / "wrong_side.json"
        path.write_text(json.dumps(record))
        code, out, err = run(["classify", str(path)], capsys)
        assert (code, out, err) == (3, "", "error: expected side 6, got 4\n")

    @pytest.mark.parametrize(
        "command, name, flags",
        [
            (["classify"], "identity_channel.json", []),
            (["soc"], "cup_loop.json", ["--slots", "1", "1"]),
            (["soc2"], "fixed_order_a_then_b.json", []),
            (["verify", "theorem1"], "fixed_order_a_then_b.json", ["--trials", "2"]),
        ],
        ids=["classify", "soc", "soc2", "verify"],
    )
    def test_residuals_of_large_finite_entries_are_json_numbers(self, command, name, flags, tmp_path, capsys):
        # Squared, an entry of 1e200 overflows; its residual must still be
        # a JSON number, not Infinity.
        record = json.loads((GOLDEN / name).read_text())
        record.get("process", record)["choi"][0][0] = [1e200, 0.0]
        (tmp_path / name).write_text(json.dumps(record))
        code, out, _ = run([*command, str(tmp_path / name), *flags], capsys)

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        assert code == 1
        for doc in out.splitlines() if command[0] == "verify" else [out]:
            json.loads(doc, parse_constant=refuse)

    @pytest.mark.parametrize(
        "command, name, flags",
        [
            (["classify"], "identity_channel.json", []),
            (["classify"], "product_channel.json", ["--split", "1", "1"]),
            (["soc"], "cup_loop.json", ["--slots", "1", "1"]),
            (["soc2"], "fixed_order_a_then_b.json", []),
            (["verify", "theorem1"], "fixed_order_a_then_b.json", ["--trials", "1"]),
            (["verify", "corollary1"], "fixed_order_a_then_b.json", ["--trials", "1"]),
            (["decompose"], "ns_mix.json", ["--span-size", "180", "--seed", "2"]),
        ],
        ids=["classify", "classify-split", "soc", "soc2", "theorem1", "corollary1", "decompose"],
    )
    def test_a_result_that_is_not_finite_is_refused(self, command, name, flags, tmp_path, capsys):
        # Two diagonal entries near the float maximum are finite, but their
        # sums overflow, so the residual or coefficients are not finite and
        # have no JSON form.  Nothing is written, and numpy warns of nothing
        # (a warning would fail this test).
        record = json.loads((GOLDEN / name).read_text())
        choi = record.get("process", record)["choi"]
        choi[0][0] = choi[1][1] = [1.7e308, 0.0]
        (tmp_path / name).write_text(json.dumps(record))
        code, out, err = run([*command, str(tmp_path / name), *flags], capsys)
        assert (code, out, err) == (3, "", "error: the result is not finite, so it has no JSON form\n")

    @pytest.mark.parametrize(
        "command, name, flags",
        [
            (["classify"], "identity_channel.json", []),
            (["soc"], "cup_loop.json", ["--slots", "1", "1"]),
            (["soc2"], "fixed_order_a_then_b.json", []),
            (["verify", "theorem1"], "fixed_order_a_then_b.json", ["--trials", "1"]),
            (["decompose"], "ns_mix.json", ["--span-size", "180"]),
            (["eval"], "noise.json", []),
        ],
        ids=["classify", "soc", "soc2", "verify", "decompose", "eval-box"],
    )
    def test_a_choi_integer_past_the_float_range_is_a_malformed_file(self, command, name, flags, tmp_path, capsys):
        # json reads 1 followed by 400 zeros as a Python int, which no float
        # holds; converting it raises OverflowError, not ValueError.
        source = GOLDEN / "boxes" / name if command == ["eval"] else GOLDEN / name
        record = json.loads(source.read_text())
        record.get("process", record)["choi"][0][0] = [10**400, 0]
        (tmp_path / name).write_text(json.dumps(record))
        (tmp_path / "box.diag").write_text(f'system Q = 2 ;\nbox noise : Q -> Q @ "{name}" ;\nnoise\n')
        target = tmp_path / ("box.diag" if command == ["eval"] else name)
        code, out, err = run([*command, str(target), *flags], capsys)
        assert (code, out) == (3, "") and err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("malformed process record: int too large to convert to float\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this Python reads integers of any length")
    @pytest.mark.parametrize("command, file", [("classify", "long.json"), ("eval", "long.diag")])
    def test_a_choi_integer_too_long_for_the_parser_is_a_malformed_file(self, command, file, tmp_path, capsys):
        # json refuses an integer of more digits than int() reads with a
        # ValueError that is not a JSONDecodeError.
        (tmp_path / "long.json").write_text('{"in": [2], "out": [2], "choi": [[[1' + "0" * 5000 + ", 0]]]}")
        (tmp_path / "long.diag").write_text('system Q = 2 ;\nbox f : Q -> Q @ "long.json" ;\nf\n')
        code, out, err = run([command, str(tmp_path / file)], capsys)
        assert code == 3 and not out and err.startswith("error:") and "long.json: " in err and "digits" in err

    def test_a_digit_int_cannot_read_is_a_syntax_error(self, tmp_path, capsys):
        d = tmp_path / "superscript.diag"
        d.write_text("system Q = \u00b2 ;\nid[Q]\n")
        code, out, err = run(["eval", str(d)], capsys)
        assert (code, out, err) == (2, "", "error: 1:12: unexpected character '\u00b2'\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this Python reads integers of any length")
    def test_an_int_too_long_to_read_is_a_syntax_error(self, tmp_path, capsys):
        d = tmp_path / "long_int.diag"
        d.write_text("system Q = " + "9" * 5000 + " ;\nid[Q]\n")
        code, out, err = run(["eval", str(d)], capsys)
        assert (code, out, err) == (2, "", "error: 1:12: system size has too many digits (5000)\n")

    def test_deep_parentheses_are_a_syntax_error(self, tmp_path, capsys):
        d = tmp_path / "deep.diag"
        d.write_text("system Q = 2 ;\n" + "(" * 2000 + "id[Q]" + ")" * 2000 + "\n")
        code, out, err = run(["eval", str(d)], capsys)
        assert (code, out, err) == (2, "", "error: 2:101: parentheses nested more than 100 deep\n")

    def test_a_long_chain_evaluates(self, tmp_path, capsys):
        d = tmp_path / "chain.diag"
        d.write_text("system Q = 2 ;\n" + " ; ".join(["id[Q]"] * 1200) + "\n")
        code, out, _ = run(["eval", str(d)], capsys)
        assert code == 0 and process_from_dict(json.loads(out)).choi.tolist() == identity_process(System((2,))).choi.tolist()

    @pytest.mark.parametrize("check", ["theorem1", "corollary1"])
    def test_oversized_verify_draw_is_a_dimension_error(self, check, capsys):
        # At --dims 1000 theorem1 would draw 466 TiB of Gaussians and
        # corollary1 a 7.28 TiB shared state; both must be refused first.
        argv = ["verify", check, str(GOLDEN / "fixed_order_a_then_b.json"), "--trials", "1", "--dims", "1000"]
        code, out, err = run(argv, capsys)
        assert code == 3 and not out and "exceeds limit" in err

    @pytest.mark.parametrize("command, file", [("classify", "deep.json"), ("eval", "deep.diag")])
    def test_a_choi_nested_too_deeply_for_the_parser_is_a_malformed_file(self, command, file, tmp_path, capsys):
        (tmp_path / "deep.json").write_text('{"in": [2], "out": [2], "choi": ' + "[" * 5000 + "]" * 5000 + "}")
        (tmp_path / "deep.diag").write_text('system Q = 2 ;\nbox f : Q -> Q @ "deep.json" ;\nf\n')
        code, out, err = run([command, str(tmp_path / file)], capsys)
        assert code == 3 and not out and err.startswith("error:") and "nested too deeply" in err

    def test_an_eval_that_overflows_is_refused(self, tmp_path, capsys):
        # Each entry of f is finite, but f ; f holds 1e320, past the float
        # range; the result must not be written with Infinity and NaN in it.
        f = identity_process(System((2,)))
        (tmp_path / "big.json").write_text(json.dumps(process_to_dict(Process(f.in_sys, f.out_sys, f.choi * 1e160))))
        (tmp_path / "big.diag").write_text('system Q = 2 ;\nbox f : Q -> Q @ "big.json" ;\nf ; f\n')
        code, out, err = run(["eval", str(tmp_path / "big.diag")], capsys)
        assert code == 3 and not out and err.startswith("error:") and "not finite" in err

    def test_oversized_system_is_a_dimension_error(self, tmp_path, capsys):
        # The identity on a million dimensions must be refused before numpy
        # is asked for it, not die with a MemoryError traceback.
        d = tmp_path / "huge.diag"
        d.write_text("system Q = 1000000 ;\nid[Q]\n")
        code, out, err = run(["eval", str(d)], capsys)
        assert code == 3 and not out and "exceeds limit" in err


class TestEpsPrecedence:
    @pytest.fixture
    def slightly_off(self, tmp_path):
        q = System((2,))
        choi = identity_process(q).choi + 2e-6 * np.eye(4)
        path = tmp_path / "near_identity.json"
        path.write_text(json.dumps(process_to_dict(Process(q, q, choi))))
        return str(path)

    def test_default_is_strict(self, slightly_off, capsys):
        assert run(["classify", slightly_off], capsys)[0] == 1

    def test_flag_loosens(self, slightly_off, capsys):
        assert run(["classify", slightly_off, "--eps", "1e-3"], capsys)[0] == 0

    def test_env_loosens(self, slightly_off, monkeypatch, capsys):
        monkeypatch.setenv("SOCLAB_EPS", "1e-3")
        assert run(["classify", slightly_off], capsys)[0] == 0

    def test_flag_beats_env(self, slightly_off, monkeypatch, capsys):
        monkeypatch.setenv("SOCLAB_EPS", "1e-3")
        assert run(["classify", slightly_off, "--eps", "1e-12"], capsys)[0] == 1


class TestOtherRoutes:
    def test_soc2_accepts_plain_process_with_slots(self, tmp_path, capsys):
        body = fixed_order_a_then_b(2, 2, 2, 2).body
        path = tmp_path / "body.json"
        path.write_text(json.dumps(process_to_dict(body)))
        code, out, _ = run(["soc2", str(path), "--slots", "2", "2", "2", "2"], capsys)
        assert code == 0
        assert json.loads(out)["soc2"]["holds"] is True

    @pytest.mark.parametrize(
        "slots", [["0", "2", "2", "2"], ["-2", "-2", "2", "2"], ["3", "3", "2", "2"]], ids=["zero", "negative", "wrong-product"]
    )
    def test_soc2_slots_that_do_not_fit_are_argument_errors(self, slots, tmp_path, capsys):
        # A zero or negative slot, or slots whose product is not the file's
        # input dimension (16 here), is a bad argument, not a bad file.
        path = tmp_path / "body.json"
        path.write_text(json.dumps(process_to_dict(fixed_order_a_then_b(2, 2, 2, 2).body)))
        code, out, err = run(["soc2", str(path), "--slots", *slots], capsys)
        assert code == 2 and not out and "--slots" in err

    def test_verify_corollary(self, capsys):
        code, out, _ = run(
            ["verify", "corollary1", str(GOLDEN / "fixed_order_a_then_b.json"),
             "--trials", "2", "--seed", "3", "--dims", "2"],
            capsys,
        )
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert lines[0]["premise"] == "soc2"
        assert lines[-1]["summary"]["trials"] == 2

    def test_verify_flags_a_spoiled_supermap(self, tmp_path, capsys):
        path = tmp_path / "spoiled.json"
        path.write_text(json.dumps(supermap_to_dict(spoiled_supermap())))
        code, out, _ = run(
            ["verify", "theorem1", str(path), "--trials", "2", "--seed", "0", "--dims", "2"],
            capsys,
        )
        assert code == 1
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert lines[0]["holds"] is False
        assert lines[-1]["summary"]["all_causal"] is False

    def test_decompose_rejects_signalling_channel(self, capsys):
        code, out, _ = run(
            ["decompose", str(GOLDEN / "swap_channel.json"), "--span-size", "120", "--seed", "4"],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["residual"] > 0.5

    def test_module_runs_standalone(self):
        # The child imports the same soclab as this test, installed or not.
        src = str(Path(soclab.__file__).parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "soclab.cli", "classify", str(GOLDEN / "identity_channel.json")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["causal"]["holds"] is True


# Each verb, with the arguments before and after the file.
FUZZ_VERBS = [
    (["classify"], []),
    (["classify"], ["--split", "1", "1"]),
    (["soc"], ["--slots", "1", "1"]),
    (["soc2"], []),
    (["verify", "theorem1"], ["--trials", "1"]),
    (["verify", "corollary1"], ["--trials", "1"]),
    (["decompose"], ["--span-size", "8"]),
    (["eval"], []),
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding the golden box files, which the golden diagrams name."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "boxes").mkdir()
    for p in GOLDEN.glob("boxes/*.json"):
        (d / "boxes" / p.name).write_text(p.read_text())
    return d


class TestFuzzedDocuments:
    @given(data=st.data(), name=st.sampled_from(FUZZ_FILES))
    @settings(max_examples=150)
    def test_every_verb_exits_with_a_code_and_writes_strict_json(self, fuzz_dir, data, name):
        # Every mutated golden document goes through every verb, in process:
        # no exception may escape main, the exit code is one of the four it
        # documents, stdout is strict JSON (no NaN or Infinity), and what
        # eval writes loads back as a process.  A JSON file goes to eval as
        # the one box of a diagram.
        original = (GOLDEN / name).read_text()
        path = fuzz_dir / f"doc{Path(name).suffix}"
        path.write_text(data.draw(mutated_document(original), label="document"))
        if name.endswith(".json"):
            record = json.loads(original)
            record = record.get("process", record)
            sides = [" * ".join(["Q"] * len(record[k])) or "I" for k in ("in", "out")]
            (fuzz_dir / "box.diag").write_text(f'system Q = 2 ;\nbox f : {sides[0]} -> {sides[1]} @ "{path.name}" ;\nf\n')

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        for head, tail in FUZZ_VERBS:
            target = fuzz_dir / "box.diag" if head == ["eval"] and name.endswith(".json") else path
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*head, str(target), *tail])
            out = out.getvalue()
            assert code in (0, 1, 2, 3), (head, err.getvalue())
            if code in (2, 3):
                assert not out and err.getvalue().startswith("error:")
                continue
            for doc in out.splitlines() if head[0] == "verify" else [out]:
                json.loads(doc, parse_constant=refuse)
            if head == ["eval"]:
                process_from_dict(json.loads(out))
