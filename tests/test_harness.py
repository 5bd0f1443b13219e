import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soclab import harness, predicates
from soclab.harness import (
    HarnessConfig,
    HarnessReport,
    TrialRecord,
    _trial_seed,
    report_to_jsonl,
    verify_corollary1,
    verify_theorem1,
)
from soclab.predicates import is_causal, is_soc2, make_strongly_nonsignalling
from soclab.process import (
    Process,
    _random_causal_channels,
    compose_par,
    compose_seq,
    identity_process,
    processes_close,
    random_causal_channel,
    random_density,
    rewire,
)
from soclab.supermap import (
    fixed_order_a_then_b,
    insert_merged,
    insert_with_ancilla,
)
from soclab.tensor import DEFAULT_EPS, UNIT, System, kron

from fixtures import KINDS, PRESERVING, supermap

# Every kind at qubit slots, and the dressed order with (3 -> 1) and (2 -> 3)
# slots, each a module-level supermap that keeps its premise from one
# example to the next.
ORDERS = {kind: supermap(kind, (3, 1, 2, 3) if kind == "dressed" else (2, 2, 2, 2), (2, 2), np.random.default_rng(4)) for kind in KINDS}
W_GOOD = ORDERS["mix"]
VERIFIERS = {"theorem1": verify_theorem1, "corollary1": verify_corollary1}


def one_trial_at_a_time(w, config, claim):
    """The report as a loop of single trials builds it: each trial draws its
    arguments from its own seeded stream and fills the supermap through the
    public one-pair insertions, whose ``causal`` residual gives the record."""
    m = config.ancilla_dim
    records = []
    for t in range(config.trials):
        s = _trial_seed(config.seed, t)
        rng = np.random.default_rng(s)
        if claim == "theorem1":
            specs = [(System((m, w.a_in)), System((m, w.a_out))), (System((m, w.b_in)), System((m, w.b_out)))]
            ((pa, pb),) = _random_causal_channels(rng, specs, 1)
            verdict = insert_with_ancilla(w, pa, pb, (1, 1), (1, 1)).causal
        else:
            specs = [(System((w.a_in, m)), System((w.a_out,))), (System((m, w.b_in)), System((w.b_out,)))]
            ((psi_a, psi_b),) = _random_causal_channels(rng, specs, 1)
            shared = Process(UNIT, System((m, m)), random_density(System((m, m)), seed=rng))
            verdict = insert_merged(w, make_strongly_nonsignalling(psi_a, psi_b, shared)).causal
        records.append(TrialRecord(t, verdict.residual <= config.eps, verdict.residual, s))
    premise = is_soc2(w, config.eps)
    return HarnessReport(premise.holds, premise.residual, tuple(records))


class TestStackedRun:
    @given(
        st.sampled_from(sorted(ORDERS)),
        st.sampled_from(sorted(VERIFIERS)),
        st.integers(1, 3),
        st.integers(1, 7),
        st.integers(1, 3),
        st.integers(0, 2**20),
        st.sampled_from([0.0, DEFAULT_EPS, 0.5, 2.0]),
    )
    @example("spoiled", "theorem1", 1, 2, 1, 0, 2.0)
    @example("dressed", "corollary1", 2, 2, 1, 0, 0.0)
    @settings(max_examples=40)
    def test_equals_one_trial_at_a_time(self, order, claim, m, trials, chunk, seed, eps):
        # The element budget is cut down to ``chunk`` trials, so the trial
        # counts fall on both sides of a chunk boundary; every record must
        # still be the single trial's, residual bits included.  The premise
        # stays cached on each module-level supermap from one example to the
        # next, yet its verdict must follow ``eps``: the spoiled supermap's
        # residual is about 1, and the dressed order's is above 0 by
        # rounding, so a premise judged at DEFAULT_EPS fails both examples.
        w, config = ORDERS[order], HarnessConfig(trials=trials, seed=seed, ancilla_dim=m, eps=eps)
        run, chunks = harness._run, []
        with pytest.MonkeyPatch.context() as mp:

            def chunked(w, config, size, per_trial, marginals):
                mp.setattr(harness, "CHUNK_ELEMENTS", chunk * per_trial)
                return run(w, config, size, per_trial, lambda draws: chunks.append(len(draws)) or marginals(draws))

            mp.setattr(harness, "_run", chunked)
            got = VERIFIERS[claim](w, config)
        assert chunks == [min(chunk, trials - k) for k in range(0, trials, chunk)]
        assert got == one_trial_at_a_time(w, config, claim)

    @pytest.mark.parametrize("order", PRESERVING + ("spoiled",))
    @pytest.mark.parametrize("claim", sorted(VERIFIERS))
    def test_each_kind_keeps_its_promise(self, claim, order):
        # At any eps between rounding and the spoiled order's misses (about
        # 1 or more), the premise and every trial hold, or none does.
        for eps in (DEFAULT_EPS, 0.5):
            got = VERIFIERS[claim](ORDERS[order], HarnessConfig(trials=12, seed=7, ancilla_dim=3, eps=eps))
            assert [r.trial for r in got.records] == list(range(12))
            if order in PRESERVING:
                assert got.premise_holds and got.all_causal and got.max_residual < 1e-9
            else:
                assert not got.premise_holds and not any(r.causal for r in got.records)
                assert min(r.residual for r in got.records) > 0.9

    def test_the_premise_is_decided_once_per_supermap(self, monkeypatch):
        # The supermap looks is_soc2 up when it first needs it, so a
        # counting stand-in sees every decision.
        calls = []
        decide = predicates.is_soc2
        monkeypatch.setattr(predicates, "is_soc2", lambda w, *a: calls.append(w) or decide(w, *a))
        w, other = fixed_order_a_then_b(2, 2, 2, 2), fixed_order_a_then_b(2, 2, 2, 2)
        reports = [
            verify_theorem1(w, HarnessConfig(trials=1, ancilla_dim=1)),
            verify_theorem1(w, HarnessConfig(trials=1, ancilla_dim=2, eps=0.0)),
            verify_corollary1(w, HarnessConfig(trials=1)),
        ]
        assert calls == [w]
        verify_corollary1(other, HarnessConfig(trials=1))
        assert calls == [w, other]
        # A direct call still computes, and each run judged at its own eps.
        direct = decide(w)
        assert direct is not w._premise and direct == w._premise
        assert [(r.premise_holds, r.premise_residual) for r in reports] == [
            (direct.residual <= eps, direct.residual) for eps in (DEFAULT_EPS, 0.0, DEFAULT_EPS)
        ]

    @pytest.mark.parametrize("claim", sorted(VERIFIERS))
    def test_zero_trials_give_an_empty_report(self, claim, monkeypatch):
        # HarnessConfig allows trials=0; such a run draws and stacks nothing.
        monkeypatch.setattr(harness, "_causal_chois", lambda *a: pytest.fail("a zero-trial run drew channels"))
        report = VERIFIERS[claim](W_GOOD, HarnessConfig(trials=0, seed=3))
        assert report.records == () and report.premise_holds
        assert report.all_causal and report.max_residual == 0.0
        assert json.loads(report_to_jsonl(report)[-1])["summary"]["trials"] == 0


class TestTheorem1Harness:
    def test_qutrit_slots_with_qutrit_ancillas(self):
        # Wire and ancilla dimension 3: pa (x) pb would be 6561 on a side
        # (about 690 MB) and the filled process 729.  The causality check
        # traces C2 and the ancilla outputs first, so the largest matrix a
        # trial makes is the 243-side body marginal, once a run.
        report = verify_theorem1(fixed_order_a_then_b(3, 3, 3, 3), HarnessConfig(trials=1, seed=0, ancilla_dim=3))
        assert report.premise_holds
        assert len(report.records) == 1 and report.all_causal
        assert report.max_residual < 1e-9

    def test_ququart_slots_with_ququart_ancillas(self):
        # The filled process would be 4096 x 4096; the trial never builds it.
        report = verify_theorem1(fixed_order_a_then_b(4, 4, 4, 4), HarnessConfig(trials=1, seed=0, ancilla_dim=4))
        assert report.premise_holds
        assert len(report.records) == 1 and report.all_causal
        assert report.max_residual < 1e-9

    def test_extension_matches_direct_circuit(self):
        # One trial recomputed by hand on product states: the extended
        # insertion into the A-then-B wiring must act as pa's slot leg
        # followed by pb's, with both ancillas riding along.
        from soclab.process import apply_to_state

        w = fixed_order_a_then_b(2, 2, 2, 2)
        rng = np.random.default_rng(42)
        pa = random_causal_channel(System((2, 2)), System((2, 2)), seed=rng)
        pb = random_causal_channel(System((2, 2)), System((2, 2)), seed=rng)
        big = insert_with_ancilla(w, pa, pb, (1, 1), (1, 1)).process
        assert big.in_sys.dims == (2, 2, 2) and big.out_sys.dims == (2, 2, 2)

        rho_ma = random_density(System((2,)), seed=1)
        rho_mb = random_density(System((2,)), seed=2)
        rho_c = random_density(System((2,)), seed=3)
        got = apply_to_state(big, kron(rho_ma, rho_mb, rho_c))
        mid = apply_to_state(pa, kron(rho_ma, rho_c))
        # mid lives on (mA', A2); interleave rho_mb to (mA', mB, A2) and let
        # pb eat the trailing wire.
        interleaved = np.einsum("acbd,ef->aecbfd", mid.reshape(2, 2, 2, 2), rho_mb).reshape(8, 8)
        stage = compose_par(identity_process(System((2,))), pb)
        lifted = apply_to_state(stage, interleaved)
        assert np.allclose(got, lifted)


class TestHarnessConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("ancilla_dim", 0),
            ("ancilla_dim", -2),
            ("ancilla_dim", 2.5),
            ("ancilla_dim", 2.0),
            ("ancilla_dim", True),
            ("trials", -3),
            ("trials", 2.5),
            ("trials", "3"),
            ("seed", -1),
            ("seed", 2.5),
            ("seed", True),
            ("eps", -1e-3),
            ("eps", float("nan")),
            ("eps", float("inf")),
            ("eps", True),
            ("eps", np.True_),
        ],
    )
    def test_bad_sizes_and_tolerances_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HarnessConfig(**{field: value})

    @pytest.mark.parametrize("claim", sorted(VERIFIERS))
    def test_numpy_integers_give_the_report_of_python_ints(self, claim):
        # Two runs of equal configs give one report, and trial t's seed is
        # seed * 1_000_003 + t.
        config = HarnessConfig(trials=np.int64(5), seed=np.uint32(3), ancilla_dim=np.int8(2))
        assert [type(getattr(config, f)) for f in ("trials", "seed", "ancilla_dim")] == [int] * 3
        got, want = (VERIFIERS[claim](W_GOOD, c) for c in (config, HarnessConfig(trials=5, seed=3)))
        assert got == want and report_to_jsonl(got) == report_to_jsonl(want)
        assert [r.seed for r in got.records] == [3 * 1_000_003 + t for t in range(5)]


class TestCorollary1Harness:
    def test_open_route_equals_merged_insertion(self):
        # The reference route of the proof: thread each half through its
        # hole with the memory wires left open, then close them with the
        # shared state.  The harness inserts the assembled strongly
        # non-signalling channel as one joint filling; both must give the
        # same process.
        w = W_GOOD
        rng = np.random.default_rng(9)
        psi_a = random_causal_channel(System((2, 2)), System((2,)), seed=rng)
        psi_b = random_causal_channel(System((2, 2)), System((2,)), seed=rng)
        shared = Process(UNIT, System((2, 2)), random_density(System((2, 2)), seed=rng))
        opened = insert_with_ancilla(
            w, rewire(psi_a, (1, 0), [2]), psi_b, (1, 0), (1, 0)
        ).process
        closed = compose_seq(compose_par(shared, identity_process(System((2,)))), opened)
        joint = make_strongly_nonsignalling(psi_a, psi_b, shared)
        merged = insert_merged(w, joint, in_split=1, out_split=1).process
        assert processes_close(closed, merged, 1e-9)
        assert is_causal(closed).holds


class TestReportFormat:
    def test_report_dataclasses_are_plain(self):
        rec = TrialRecord(0, True, 0.0, 99)
        rep = HarnessReport(True, 0.0, (rec,))
        assert rep.all_causal and rep.max_residual == 0.0


class TestVerificationScript:
    SCRIPT = Path(__file__).parent.parent / "scripts" / "run_verification.py"

    def run_script(self, *args):
        return subprocess.run([sys.executable, str(self.SCRIPT), *args], capture_output=True, text=True)

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--trials", "0", "positive integer"),
            ("--ancilla-dim", "0", "positive integer"),
            # numpy refuses a negative seed with a traceback, and a negative
            # count would build nothing.
            ("--seed", "-1", "non-negative integer"),
            ("--mixes", "-1", "non-negative integer"),
            ("--dressed", "-1", "non-negative integer"),
        ],
    )
    def test_an_out_of_range_count_or_seed_is_an_argument_error(self, flag, value, message):
        proc = self.run_script("--trials", "1", "--mixes", "0", "--dressed", "0", flag, value)
        assert proc.returncode == 2
        assert not proc.stdout and f"{flag}: expected a {message}" in proc.stderr

    def test_one_trial_runs_the_fixed_orders_and_the_control(self):
        proc = self.run_script("--trials", "1", "--mixes", "0", "--dressed", "0")
        assert proc.returncode == 0, proc.stderr
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [(r["generator"], r["all_causal"]) for r in lines if r["check"] == "ancilla_pairs"] == [
            ("a_then_b", True),
            ("b_then_a", True),
            ("corrupted_control", False),
        ]
