"""The three workloads: inputs made from the seed, and the expected output of every call.

Each workload has a ``build(seed, root)`` step, which makes the inputs and
warms the caches the timed calls use, and a ``cycle(state, k)`` step, which
lists the calls of cycle ``k``.  All randomness comes from
``numpy.random.default_rng`` seeded with the workload seed (never from
``hash()``), so every process sees the same inputs.

Why each workload exists:

* ``fill`` fills holes through the public insertion path (``verify_theorem1``,
  ``verify_corollary1``, the oracle, ``insert_merged``, ``dress_slots``).
  Its time sits in ``compose_seq``; the m = 3 and switch trials set the tail.
* ``decide`` asks the closed-form predicates, with no insertion, beside the
  one-hole oracle on a merged slot.  Its time sits in ``partial_trace``, the
  kron embeddings, ``rewire`` and the affine least squares; the d = 4 calls
  set the tail and the peak memory.
* ``cli_corpus`` runs the golden-corpus commands through ``soclab.cli.main``
  with soclab's caches emptied before each: the cold path a shell user pays
  (file parsing, validation on load, the DSL, cache fills), less the
  interpreter start and ``import soclab``, which ``setup_s`` prices.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer
from measure import Op

EPS = 1e-9
# With these counts a fill cycle's median falls among the alike ~25 ms calls
# (theorem1 at m = 2 and the oracle) and p90 among the m = 3 calls.
THEOREM1_TRIALS = 4  # m = 2 trials per call, so that a call costs about one oracle verdict
M3_CALLS = 5
DECOMPOSE_TARGETS = 4
SPAN_SIZE = 180  # product pairs per span; the hull at (2, 2, 2, 2) has dimension 168

# The golden corpus of tests/test_cli.py (GOLDEN_EXITS): argv and expected exit code.
GOLDEN_EXITS = [
    (["eval", "yanking.diag"], 0),
    (["eval", "discards.diag"], 0),
    (["eval", "cap_then_cup.diag"], 0),
    (["eval", "bad_syntax.diag"], 2),
    (["eval", "type_error.diag"], 2),
    (["classify", "identity_channel.json"], 0),
    (["classify", "cup_state.json"], 1),
    (["classify", "product_channel.json", "--split", "1", "1"], 0),
    (["classify", "swap_channel.json", "--split", "1", "1"], 1),
    (["soc", "cup_loop.json", "--slots", "1", "1"], 1),
    (["soc2", "fixed_order_a_then_b.json"], 0),
    (["verify", "theorem1", "fixed_order_a_then_b.json", "--trials", "3", "--seed", "1", "--dims", "2"], 0),
    (["decompose", "ns_mix.json", "--span-size", "180", "--seed", "2"], 0),
]


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def clear_caches() -> None:
    """Empty soclab's lru_caches, so that each set-up pays for filling them."""
    for mod_name, name in tracer.CACHES:
        tracer.lru(mod_name, name).cache_clear()


# --- checks -------------------------------------------------------------


def verdict_is(expected: bool):
    return lambda v: v.holds is expected


def report_is(holds: bool, trials: int):
    """A harness report must hold exactly the trials asked for, at least one,
    and its premise and every trial must come out as ``holds`` says: all
    causal for a causality-preserving supermap, all caught for the negative
    control.  So zero trials never pass."""

    def check(report) -> bool:
        verdicts = [report.premise_holds] + [r.causal for r in report.records]
        return trials > 0 and len(report.records) == trials and all(v is holds for v in verdicts)

    return check


def oracle_agrees(expected: bool, closed_form_residual: float):
    return lambda v: v.holds is expected and abs(v.residual - closed_form_residual) <= EPS


# --- inputs -------------------------------------------------------------


def spoiled_supermap():
    """A fixed order plus a bump that breaks causality; the same construction
    as ``spoiled_supermap`` in tests/test_acceptance.py."""
    from soclab.process import Process
    from soclab.supermap import BipartiteSupermap, fixed_order_a_then_b

    good = fixed_order_a_then_b(2, 2, 2, 2)
    bump = np.kron(np.eye(16), np.kron(np.diag([1.0, 0.0]), np.eye(2))) / 8
    return BipartiteSupermap(Process(good.body.in_sys, good.body.out_sys, good.body.choi + bump))


def soc_family(d: int, rng, n_mixes: int, n_dressed: int, switch: bool) -> list[tuple[str, object]]:
    """Supermaps with slot wires of dimension ``d`` that preserve causality:
    both fixed orders, affine mixtures of them, orders dressed with random
    causal channels, and the quantum switch."""
    from soclab import extras, process, supermap
    from soclab.tensor import System

    ab = supermap.fixed_order_a_then_b(d, d, d, d)
    ba = supermap.fixed_order_b_then_a(d, d, d, d)
    family = [("a_then_b", ab), ("b_then_a", ba)]
    for k in range(n_mixes):
        t = float(rng.uniform(-1.0, 2.0))
        family.append((f"mix{k}", supermap.mix([(t, ab), (1.0 - t, ba)])))
    q = System((d,))
    for k in range(n_dressed):
        chans = [process.random_causal_channel(q, q, seed=rng) for _ in range(4)]
        family.append((f"dressed{k}", supermap.dress_slots(family[k % 2][1], *chans)))
    if switch:
        family.append(("switch", extras.quantum_switch(d)))
    return family


def flip(w):
    """The body read as a channel from ``[C1, A2, B2]`` to ``[A1, B1, C2]``.

    For a fixed order this is a product of identity wires, so it is causal;
    with the split (1, 1) it is non-signalling for A-then-B and signals for
    B-then-A (C1 feeds B1).  Dressing the slots puts channels on those wires
    and an affine mixture of fixed orders is an affine mixture of channels,
    so both stay causal.
    """
    from soclab import process

    return process.rewire(w.body, [4, 1, 3], [0, 2, 5])


# --- fill ---------------------------------------------------------------


@dataclass
class FillState:
    seed: int
    family: list
    spoiled: object
    closed_form: dict  # name -> is_soc2 residual, for the oracle comparison
    slot_channels: tuple  # four causal qubit channels: dressing, and the product joint channel


def build_fill(seed: int, root: Path) -> FillState:
    from soclab import predicates, process
    from soclab.tensor import System

    family = soc_family(2, _rng(seed, 0), n_mixes=2, n_dressed=2, switch=True)
    spoiled = spoiled_supermap()
    closed_form = {name: predicates.is_soc2(w).residual for name, w in family + [("spoiled", spoiled)]}
    predicates.is_soc2_oracle(family[0][1])  # fills causal_affine_basis
    q = System((2,))
    rng = _rng(seed, 2)
    chans = tuple(process.random_causal_channel(q, q, seed=rng) for _ in range(4))
    return FillState(seed, family, spoiled, closed_form, chans)


def cycle_fill(state: FillState, k: int) -> list[Op]:
    from soclab import harness, predicates, process, supermap
    from soclab.harness import HarnessConfig

    rng = _rng(state.seed, 1, k)
    seeds = iter(rng.integers(0, 2**31, size=64).tolist())

    def theorem1(w, m, trials, holds=True):
        cfg = HarnessConfig(trials=trials, seed=next(seeds), ancilla_dim=m)
        return Op(f"theorem1.m{m}", lambda: harness.verify_theorem1(w, cfg), report_is(holds, trials))

    def corollary1(w):
        cfg = HarnessConfig(trials=1, seed=next(seeds), ancilla_dim=2)
        return Op("corollary1.m2", lambda: harness.verify_corollary1(w, cfg), report_is(True, 1))

    def oracle(name, w, expected):
        return Op("soc2_oracle", lambda: predicates.is_soc2_oracle(w), oracle_agrees(expected, state.closed_form[name]))

    def dressed_theorem1():
        # Dress the order inside the call, so dress_slots is on the timed path.
        cfg = HarnessConfig(trials=1, seed=next(seeds), ancilla_dim=2)
        run = lambda: harness.verify_theorem1(supermap.dress_slots(ab, *state.slot_channels), cfg)  # noqa: E731
        return Op("theorem1.dressed", run, report_is(True, 1))

    def merged_product(w):
        # A product joint channel is no correlation, so the filled map is causal.
        a, b = state.slot_channels[:2]
        return Op("insert_merged", lambda: supermap.insert_merged(w, process.compose_par(a, b)).causal, verdict_is(True))

    ab = state.family[0][1]
    *plain, (_, switch) = state.family
    ops = [theorem1(w, 2, THEOREM1_TRIALS) for _, w in plain]
    ops.append(theorem1(state.spoiled, 2, THEOREM1_TRIALS, holds=False))
    ops.append(theorem1(switch, 2, 1))
    ops += [corollary1(w) for _, w in state.family]
    ops += [oracle(name, w, True) for name, w in state.family]
    ops.append(oracle("spoiled", state.spoiled, False))
    ops += [theorem1(ab, 3, 1) for _ in range(M3_CALLS)]
    ops.append(dressed_theorem1())
    ops += [merged_product(w) for _, w in state.family[:2]]
    return [ops[i] for i in rng.permutation(len(ops))]


# --- decide -------------------------------------------------------------


@dataclass
class DecideState:
    seed: int
    by_dim: dict  # d -> family
    spoiled: object
    merged_residual: dict  # d = 2 fixed order -> is_soc residual of its merged slot, for the oracle
    decompositions: list  # (affine combination, span)


def build_decide(seed: int, root: Path) -> DecideState:
    from soclab import affine, predicates, process, supermap
    from soclab.tensor import System

    rng = _rng(seed, 0)
    by_dim = {
        2: soc_family(2, rng, n_mixes=2, n_dressed=2, switch=True),
        3: soc_family(3, rng, n_mixes=4, n_dressed=0, switch=True),
        4: soc_family(4, rng, n_mixes=0, n_dressed=0, switch=False),
    }
    q = System((2,))
    decompositions = []
    for _ in range(DECOMPOSE_TARGETS):
        weights = rng.uniform(-0.5, 1.0, size=3)
        weights[-1] = 1.0 - weights[:-1].sum()
        terms = tuple(
            (float(r), process.random_causal_channel(q, q, seed=rng), process.random_causal_channel(q, q, seed=rng))
            for r in weights
        )
        span = affine.random_product_span(SPAN_SIZE, (2, 2), (2, 2), seed=rng)
        decompositions.append((affine.AffineCombination(terms), span))
    comb, span = decompositions[0]
    affine.decompose_nonsignalling(affine.realize_affine(comb), span)  # fills nonsignalling_direction_dim
    merged_residual = {}
    for name, w in by_dim[2][:2]:
        merged = supermap.merged_slot_process(w)
        merged_residual[name] = predicates.is_soc(merged, 2, 1).residual
        predicates.is_soc_oracle(merged, 2, 1)  # fills causal_affine_basis
    return DecideState(seed, by_dim, spoiled_supermap(), merged_residual, decompositions)


def _decomposes(result) -> bool:
    return result.residual <= 1e-6 and not result.span_deficient


def cycle_decide(state: DecideState, k: int) -> list[Op]:
    from soclab import affine, predicates, supermap

    # The call counts put the median among the alike is_soc2 calls at d = 3
    # (hence the d = 3 mixtures, and is_causal there on the fixed orders
    # only) and p90 among the d = 4 calls, away from where the latency
    # jumps from one kind of call to the next.
    ops = []
    for d, family in state.by_dim.items():
        for name, w in family:
            fixed = name in ("a_then_b", "b_then_a")
            ops.append(Op(f"soc2.d{d}", lambda w=w: predicates.is_soc2(w), verdict_is(True)))
            if fixed:
                # Merging the two slots into one lets the wires loop.
                merged = lambda w=w: predicates.is_soc(supermap.merged_slot_process(w), 2, 1)  # noqa: E731
                ops.append(Op(f"soc_merged.d{d}", merged, verdict_is(False)))
                if d == 2:
                    oracle = lambda w=w: predicates.is_soc_oracle(supermap.merged_slot_process(w), 2, 1)  # noqa: E731
                    ops.append(Op("soc_oracle_merged.d2", oracle, oracle_agrees(False, state.merged_residual[name])))
                ns = lambda w=w: predicates.is_nonsignalling(flip(w), 1, 1)  # noqa: E731
                ops.append(Op(f"nonsignalling.d{d}", ns, verdict_is(name == "a_then_b")))
            if fixed or (d == 2 and name != "switch"):
                ops.append(Op(f"causal.d{d}", lambda w=w: predicates.is_causal(flip(w)), verdict_is(True)))
    ops.append(Op("soc2.spoiled", lambda: predicates.is_soc2(state.spoiled), verdict_is(False)))
    ops += [
        Op("decompose", lambda c=c, s=s: affine.decompose_nonsignalling(affine.realize_affine(c), s), _decomposes)
        for c, s in state.decompositions
    ]
    return [ops[i] for i in _rng(state.seed, 1, k).permutation(len(ops))]


# --- cli_corpus ---------------------------------------------------------


@dataclass
class CliState:
    seed: int
    commands: list  # (argv with corpus paths resolved, expected exit code)


def build_cli(seed: int, root: Path) -> CliState:
    golden = root / "tests" / "golden"
    commands = [([str(golden / a) if (golden / a).exists() else a for a in argv], code) for argv, code in GOLDEN_EXITS]
    return CliState(seed, commands)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One CLI command through ``soclab.cli.main`` with soclab's caches
    emptied first, as in a fresh interpreter; returns (code, stdout, stderr)."""
    from soclab import cli

    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_output_ok(expected: int, json_lines: bool):
    """Exit code as pinned; for 0 and 1 stdout is one JSON document (a JSON
    line per record for ``verify``), for 2 stdout is empty and stderr holds
    the diagnostic.  Invalid JSON raises, which counts as a failure."""

    def check(result) -> bool:
        code, out, err = result
        if code != expected:
            return False
        if expected == 2:
            return out == "" and "error:" in err
        docs = out.splitlines() if json_lines else [out]
        for doc in docs:
            json.loads(doc)
        return bool(docs)

    return check


def cycle_cli(state: CliState, k: int) -> list[Op]:
    ops = [
        Op(argv[0], lambda argv=argv: run_cli(argv), cli_output_ok(code, argv[0] == "verify"))
        for argv, code in state.commands
    ]
    return [ops[i] for i in _rng(state.seed, 1, k).permutation(len(ops))]


# name -> (build(seed, root), cycle(state, k))
WORKLOADS = {
    "fill": (build_fill, cycle_fill),
    "decide": (build_decide, cycle_decide),
    "cli_corpus": (build_cli, cycle_cli),
}
