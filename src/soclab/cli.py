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

from .affine import decompose_nonsignalling, random_product_span
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
from .process import Process, _read_json, _sides, process_from_dict
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


def _dims_document(dims) -> str:
    return "[\n    " + ",\n    ".join(map(str, dims)) + "\n  ]" if dims else "[]"


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


def _cmd_eval(args) -> int:
    with open(args.file) as fh:
        text = fh.read()
    proc = evaluate(text, base_dir=os.path.dirname(os.path.abspath(args.file)))
    if proc is None:
        print("error: diagram holds only declarations, nothing to evaluate", file=sys.stderr)
        return 2
    if not np.isfinite(proc.tensor).all():
        raise DimensionError("the diagram's Choi matrix overflowed: some entries are not finite numbers")
    sys.stdout.write(_process_document(proc) + "\n")
    return 0


def _cmd_classify(args) -> int:
    p = process_from_dict(_read_json(args.file))
    if args.split is not None:
        _check_split(p, args.split, "--split")
    eps = _resolve_eps(args)
    causal = is_causal(p, eps=eps)
    payload = {"causal": {"holds": causal.holds, "residual": causal.residual}}
    ok = causal.holds
    if args.split is not None:
        ns = is_nonsignalling(p, in_split=args.split[0], out_split=args.split[1], eps=eps)
        payload["nonsignalling"] = {"holds": ns.holds, "residual": ns.residual}
        ok = ok and ns.holds
    _emit(payload)
    return 0 if ok else 1


def _cmd_soc(args) -> int:
    p = process_from_dict(_read_json(args.file))
    _check_split(p, args.slots, "--slots")
    verdict = is_soc(p, in_split=args.slots[0], out_split=args.slots[1], eps=_resolve_eps(args))
    _emit({"soc": {"holds": verdict.holds, "residual": verdict.residual}})
    return 0 if verdict.holds else 1


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
    verdict = is_soc2(w, eps=_resolve_eps(args))
    _emit({"soc2": {"holds": verdict.holds, "residual": verdict.residual}})
    return 0 if verdict.holds else 1


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
    ai, bi, ao, bo = _sides(f, ins, outs)
    span = random_product_span(args.span_size, (ai, bi), (ao, bo), seed=args.seed)
    res = decompose_nonsignalling(f, span, in_split=ins, out_split=outs)
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
