"""Randomized closure study over a family of two-slot supermaps.

Builds the two fixed orderings, a few affine mixtures of them, and a few
causally dressed variants, then runs both randomized checks against each:
ancilla-augmented causal pairs, and strongly non-signalling channels built
from shared causal states.  One summary line per (generator, check) goes
to stdout as JSON; pass --jsonl to stream every trial instead.

Exit status is 0 when every causality-preserving generator produced only
causal outputs (the deliberately corrupted control, included by default,
must fail; that is its job).
"""

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from soclab.cli import _nonnegative_int, _positive_int
from soclab.extras import spoiled_supermap
from soclab.harness import HarnessConfig, report_to_jsonl, verify_corollary1, verify_theorem1
from soclab.process import random_causal_channel
from soclab.supermap import (
    dress_slots,
    fixed_order_a_then_b,
    fixed_order_b_then_a,
    mix,
)
from soclab.tensor import System


def build_generators(seed: int, n_mixes: int, n_dressed: int):
    ab = fixed_order_a_then_b(2, 2, 2, 2)
    ba = fixed_order_b_then_a(2, 2, 2, 2)
    q = System((2,))
    rng = np.random.default_rng(seed)
    gens = [("a_then_b", ab), ("b_then_a", ba)]
    for k in range(n_mixes):
        t = float(rng.uniform(-1.0, 2.0))
        gens.append((f"affine_mix_{k}[t={t:.3f}]", mix([(t, ab), (1.0 - t, ba)])))
    for k in range(n_dressed):
        base = gens[k % len(gens)][1]
        chans = [random_causal_channel(q, q, seed=rng) for _ in range(4)]
        gens.append((f"dressed_{k}", dress_slots(base, *chans)))
    return gens


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=_positive_int, default=50)
    ap.add_argument("--seed", type=_nonnegative_int, default=0)
    ap.add_argument("--ancilla-dim", type=_positive_int, default=2)
    ap.add_argument("--mixes", type=_nonnegative_int, default=3)
    ap.add_argument("--dressed", type=_nonnegative_int, default=3)
    ap.add_argument("--skip-control", action="store_true",
                    help="leave out the corrupted negative control")
    ap.add_argument("--jsonl", action="store_true", help="stream per-trial records")
    args = ap.parse_args()

    generators = build_generators(args.seed, args.mixes, args.dressed)
    if not args.skip_control:
        generators.append(("corrupted_control", spoiled_supermap()))

    config = HarnessConfig(trials=args.trials, seed=args.seed, ancilla_dim=args.ancilla_dim)
    ok = True
    for name, w in generators:
        for check_name, check in (("ancilla_pairs", verify_theorem1),
                                  ("shared_states", verify_corollary1)):
            report = check(w, config)
            if args.jsonl:
                print(f"# {name} / {check_name}")
                for line in report_to_jsonl(report):
                    print(line)
            else:
                print(json.dumps({
                    "generator": name,
                    "check": check_name,
                    "premise_holds": report.premise_holds,
                    "premise_residual": report.premise_residual,
                    "all_causal": report.all_causal,
                    "max_residual": report.max_residual,
                }))
            expected = name != "corrupted_control"
            if (report.premise_holds and report.all_causal) != expected:
                ok = False
                print(f"unexpected outcome for {name} / {check_name}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
