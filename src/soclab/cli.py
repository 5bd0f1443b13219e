"""Command line front end.

Subcommands::

    soclab eval FILE.diag                 evaluate a diagram, print the process
    soclab classify FILE.json [--split IN OUT]
                                          causality (and no-signalling) checks
    soclab soc FILE.json --slots IN OUT   one-hole preservation of causality
    soclab soc2 FILE.json [--slots A1 A2 B1 B2]
                                          two-hole preservation of causality
    soclab verify {theorem1,corollary1} FILE.json [--trials N --seed S --dims M]
                                          randomized closure checks, JSONL out
    soclab decompose FILE.json --span-size N [--seed S --tol T]
                                          fit as an affine mix of product pairs

Exit codes: 0 when the checked property holds, 1 when it fails, 2 for
syntax, typing, or argument problems, 3 for unreadable or malformed files,
singular numerics and results that are not finite.  Results go to stdout
as strict JSON, diagnostics to stderr.  The
comparison tolerance is ``--eps`` when given, else the ``SOCLAB_EPS``
environment variable, else 1e-9.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .affine import _decompose_over_random_span
from .dsl import evaluate
from .errors import (
    DiagramSyntaxError,
    DiagramTypeError,
    DimensionError,
    ReconstructionError,
    WireMismatchError,
)
from .harness import HarnessConfig, report_to_jsonl, verify_corollary1, verify_theorem1
from .predicates import is_causal, is_nonsignalling, is_soc, is_soc2
from .process import Process, _read_json, process_from_dict
from .supermap import supermap_from_dict, supermap_from_process
from .tensor import DEFAULT_EPS


def _tolerance(text: str) -> float:
    """A comparison tolerance: a finite number that is not negative."""
    eps = float(text)
    if not (math.isfinite(eps) and eps >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return eps


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def _check_split(p, split, flag: str) -> None:
    """The leading input and output factor counts of a two-sided reading:
    each between 0 and the file's count, and each side left some factor."""
    ins, outs = split
    n_in, n_out = len(p.in_sys), len(p.out_sys)
    if not (0 <= ins <= n_in and 0 <= outs <= n_out):
        raise ValueError(f"{flag} {ins} {outs} out of range for {n_in} input and {n_out} output factors")
    if (ins, outs) in ((0, 0), (n_in, n_out)):
        raise ValueError(f"{flag} {ins} {outs} leaves one side with no factor")


def _resolve_eps(args) -> float:
    if getattr(args, "eps", None) is not None:
        return args.eps
    env = os.environ.get("SOCLAB_EPS")
    if env is not None and env != "":
        return _tolerance(env)
    return DEFAULT_EPS


def _strict(dump, *args, **kwargs) -> str:
    """``dump(*args, **kwargs)``, a writer of strict JSON (``allow_nan=False``):
    a result that is not finite has no JSON form, so it is refused with a
    :class:`DimensionError` before anything is written."""
    try:
        return dump(*args, **kwargs)
    except ValueError:
        raise DimensionError("the result is not finite, so it has no JSON form") from None


def _emit(payload: dict) -> None:
    sys.stdout.write(_strict(json.dumps, payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _emit_verdicts(verdicts: dict) -> int:
    """Print each named verdict's ``holds`` and ``residual``; the exit code
    is 0 when every one holds, else 1."""
    _emit({name: {"holds": v.holds, "residual": v.residual} for name, v in verdicts.items()})
    return 0 if all(v.holds for v in verdicts.values()) else 1


def _dims_document(dims) -> str:
    return "[\n    " + ",\n    ".join(map(str, dims)) + "\n  ]" if dims else "[]"


# One block of whole rows holds at most this many floats (re and im parts):
# ``eval`` holds the text of one block at a time, not that of the document.
BLOCK_FLOATS = 1 << 16
# A block of fewer floats is formatted entry by entry: below this, sorting
# out its distinct values costs more than formatting all of them.
DEDUPE_FROM = 1 << 7

# The indented layout's separators: within an entry's [re, im], between
# entries, and between rows.
_PAIR = ",\n        "
_ENTRY = "\n      ],\n      [\n        "
_ROW = "\n      ]\n    ],\n    [\n      [\n        "


def _tokens(floats: np.ndarray) -> list[str]:
    """The JSON text of each float, from one compact (C-encoded) ``json.dumps``."""
    return json.dumps(floats.tolist())[1:-1].split(", ")


def _dump_process(p: Process, fp) -> None:
    """Write ``json.dumps(process_to_dict(p), indent=2, sort_keys=True)`` to
    ``fp``, byte for byte, one block of whole rows at a time, so that the
    text of one block is held, not that of the document.  ``indent`` would
    send ``json`` to its pure-Python encoder, so the numbers come from a
    compact (C-encoded) ``dumps``; a block of :data:`DEDUPE_FROM` floats or
    more formats each of its distinct values once, told apart by their bits
    so that ``-0.0`` is not ``0.0``.  The tokens go between the separators
    of one row, repeated, in one ``"".join``."""
    side = p.choi.shape[0]
    rows = max(1, BLOCK_FLOATS // (2 * side))
    seps = [_PAIR, _ENTRY] * side
    seps[-1] = _ROW
    fp.write('{\n  "choi": [\n    [\n      [\n        ')
    for r in range(0, side, rows):
        # A complex array read as floats interleaves each entry's re and im.
        floats = np.ascontiguousarray(p.choi[r : r + rows]).view(float).reshape(-1)
        if floats.size < DEDUPE_FROM:
            tokens = _tokens(floats)
        else:
            bits, where = np.unique(floats.view(np.int64), return_inverse=True)
            tokens = np.array(_tokens(bits.view(float)), dtype=object)[where].tolist()
        cells = [None] * (2 * len(tokens))
        cells[::2], cells[1::2] = tokens, seps * (len(tokens) // len(seps))
        if r + rows >= side:
            cells[-1] = (
                '\n      ]\n    ]\n  ],\n'
                f'  "in": {_dims_document(p.in_sys.dims)},\n  "out": {_dims_document(p.out_sys.dims)}\n}}'
            )
        fp.write("".join(cells))


def _cmd_eval(args) -> int:
    with open(args.file) as fh:
        text = fh.read()
    proc = evaluate(text, base_dir=os.path.dirname(os.path.abspath(args.file)))
    if proc is None:
        print("error: diagram holds only declarations, nothing to evaluate", file=sys.stderr)
        return 2
    if not np.isfinite(proc.tensor).all():
        raise DimensionError("the diagram's Choi matrix overflowed: some entries are not finite numbers")
    _dump_process(proc, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_classify(args) -> int:
    p = process_from_dict(_read_json(args.file))
    if args.split is not None:
        _check_split(p, args.split, "--split")
    eps = _resolve_eps(args)
    verdicts = {"causal": is_causal(p, eps=eps)}
    if args.split is not None:
        verdicts["nonsignalling"] = is_nonsignalling(p, in_split=args.split[0], out_split=args.split[1], eps=eps)
    return _emit_verdicts(verdicts)


def _cmd_soc(args) -> int:
    p = process_from_dict(_read_json(args.file))
    _check_split(p, args.slots, "--slots")
    return _emit_verdicts({"soc": is_soc(p, in_split=args.slots[0], out_split=args.slots[1], eps=_resolve_eps(args))})


def _cmd_soc2(args) -> int:
    data = _read_json(args.file)
    if args.slots is not None:
        a1, a2, b1, b2 = args.slots
        p = process_from_dict(data)
        if a1 * a2 * b1 * b2 != p.in_sys.total:
            raise ValueError(f"--slots {a1} {a2} {b1} {b2} do not multiply to the file's input dimension {p.in_sys.total}")
        w = supermap_from_process(p, (a1, a2), (b1, b2))
    else:
        w = supermap_from_dict(data)
    return _emit_verdicts({"soc2": is_soc2(w, eps=_resolve_eps(args))})


def _cmd_verify(args) -> int:
    w = supermap_from_dict(_read_json(args.file))
    config = HarnessConfig(
        trials=args.trials, seed=args.seed, ancilla_dim=args.dims, eps=_resolve_eps(args)
    )
    run = verify_theorem1 if args.claim == "theorem1" else verify_corollary1
    report = run(w, config)
    for line in _strict(report_to_jsonl, report):
        print(line)
    return 0 if report.premise_holds and report.all_causal else 1


def _cmd_decompose(args) -> int:
    f = process_from_dict(_read_json(args.file))
    ins, outs = args.split
    if not (0 < ins < len(f.in_sys)) or not (0 < outs < len(f.out_sys)):
        raise ValueError(f"--split {ins} {outs} must leave each side an input and an output factor")
    res = _decompose_over_random_span(f, args.span_size, ins, outs, args.seed)
    _emit(
        {
            "coeffs": list(res.coeffs),
            "residual": res.residual,
            "span_deficient": res.span_deficient,
        }
    )
    return 0 if res.residual <= args.tol else 1


def _add_eps(sub) -> None:
    sub.add_argument("--eps", type=_tolerance, default=None, help="comparison tolerance")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and then reused:
    ``parse_args`` leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="soclab", description="causality checks for processes and supermaps")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a diagram file and print the resulting process")
    pe.add_argument("file")
    pe.set_defaults(func=_cmd_eval)

    pc = sub.add_parser("classify", help="check causality, and no-signalling when --split is given")
    pc.add_argument("file")
    pc.add_argument("--split", nargs=2, type=int, metavar=("IN", "OUT"), default=None,
                    help="factor counts of the first party's input and output")
    _add_eps(pc)
    pc.set_defaults(func=_cmd_classify)

    ps = sub.add_parser("soc", help="check that a one-slot comb sends causal channels to causal channels")
    ps.add_argument("file")
    ps.add_argument("--slots", nargs=2, type=int, required=True, metavar=("IN", "OUT"),
                    help="factor counts of the slot input and slot output")
    _add_eps(ps)
    ps.set_defaults(func=_cmd_soc)

    p2 = sub.add_parser("soc2", help="check that a two-slot supermap sends causal pairs to causal channels")
    p2.add_argument("file")
    p2.add_argument("--slots", nargs=4, type=_positive_int, metavar=("A1", "A2", "B1", "B2"), default=None,
                    help="slot dimensions when the file holds a plain process")
    _add_eps(p2)
    p2.set_defaults(func=_cmd_soc2)

    pv = sub.add_parser("verify", help="randomized checks with ancillas or shared states")
    pv.add_argument("claim", choices=["theorem1", "corollary1"])
    pv.add_argument("file")
    pv.add_argument("--trials", type=_positive_int, default=20)
    pv.add_argument("--seed", type=_nonnegative_int, default=0)
    pv.add_argument("--dims", type=_positive_int, default=2, help="ancilla or memory dimension")
    _add_eps(pv)
    pv.set_defaults(func=_cmd_verify)

    pd = sub.add_parser("decompose", help="fit a channel as an affine mix of random product pairs")
    pd.add_argument("file")
    pd.add_argument("--span-size", type=_positive_int, required=True)
    pd.add_argument("--seed", type=_nonnegative_int, default=0)
    pd.add_argument("--split", nargs=2, type=int, metavar=("IN", "OUT"), default=(1, 1))
    pd.add_argument("--tol", type=_tolerance, default=1e-6)
    pd.set_defaults(func=_cmd_decompose)

    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # Finite inputs can still give entries or residuals past the float
        # range; every result is checked for that before it is written, so
        # numpy need not warn of it.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (DiagramSyntaxError, DiagramTypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DimensionError, WireMismatchError, ReconstructionError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, argparse.ArgumentTypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
