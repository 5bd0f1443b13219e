import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from soclab.extras import spoiled_supermap
from soclab.harness import (
    HarnessConfig,
    HarnessReport,
    TrialRecord,
    report_to_jsonl,
    verify_corollary1,
    verify_theorem1,
)
from soclab.predicates import is_causal, make_strongly_nonsignalling
from soclab.process import (
    compose_par,
    compose_seq,
    identity_process,
    make_state,
    permute_input_factors,
    processes_close,
    random_causal_channel,
    random_density,
)
from soclab.supermap import (
    fixed_order_a_then_b,
    fixed_order_b_then_a,
    insert_merged,
    insert_with_ancilla,
    mix,
)
from soclab.tensor import System, kron

W_GOOD = mix(
    [(0.5, fixed_order_a_then_b(2, 2, 2, 2)), (0.5, fixed_order_b_then_a(2, 2, 2, 2))]
)


class TestTheorem1Harness:
    def test_good_supermap_passes_all_trials(self):
        report = verify_theorem1(W_GOOD, HarnessConfig(trials=12, seed=7))
        assert report.premise_holds
        assert report.all_causal
        assert report.max_residual < 1e-9
        assert [r.trial for r in report.records] == list(range(12))

    def test_spoiled_supermap_fails_premise_and_trials(self):
        report = verify_theorem1(spoiled_supermap(), HarnessConfig(trials=4, seed=1))
        assert not report.premise_holds
        assert not report.all_causal
        assert report.max_residual > 0.9

    def test_trials_are_reproducible(self):
        cfg = HarnessConfig(trials=5, seed=3)
        a = verify_theorem1(W_GOOD, cfg)
        b = verify_theorem1(W_GOOD, cfg)
        assert [r.residual for r in a.records] == [r.residual for r in b.records]
        assert [r.seed for r in a.records] == [3 * 1_000_003 + t for t in range(5)]

    def test_ancilla_dim_is_respected(self):
        cfg = HarnessConfig(trials=2, seed=0, ancilla_dim=3)
        report = verify_theorem1(W_GOOD, cfg)
        assert report.all_causal

    def test_qutrit_slots_with_qutrit_ancillas(self):
        # Wire and ancilla dimension 3: filling once built pa (x) pb, a
        # 6561-side matrix (about 690 MB); contracting each hole into the
        # body in turn keeps every intermediate at most 729 on a side.
        report = verify_theorem1(fixed_order_a_then_b(3, 3, 3, 3), HarnessConfig(trials=1, seed=0, ancilla_dim=3))
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
        [("ancilla_dim", 0), ("ancilla_dim", -2), ("eps", -1e-3), ("eps", float("nan")), ("eps", float("inf"))],
    )
    def test_bad_sizes_and_tolerances_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HarnessConfig(**{field: value})


class TestCorollary1Harness:
    def test_good_supermap_passes_all_trials(self):
        report = verify_corollary1(W_GOOD, HarnessConfig(trials=10, seed=5))
        assert report.premise_holds
        assert report.all_causal
        assert report.max_residual < 1e-9

    def test_spoiled_supermap_fails(self):
        report = verify_corollary1(spoiled_supermap(), HarnessConfig(trials=3, seed=2))
        assert not report.premise_holds
        assert not report.all_causal

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
        shared = make_state(random_density(System((2, 2)), seed=rng), System((2, 2)))
        opened = insert_with_ancilla(
            w, permute_input_factors(psi_a, (1, 0)), psi_b, (1, 0), (1, 0)
        ).process
        closed = compose_seq(compose_par(shared, identity_process(System((2,)))), opened)
        joint = make_strongly_nonsignalling(psi_a, psi_b, shared)
        merged = insert_merged(w, joint, in_split=1, out_split=1).process
        assert processes_close(closed, merged, 1e-9)
        assert is_causal(closed).holds


class TestReportFormat:
    def test_jsonl_lines_round_trip(self):
        report = verify_theorem1(W_GOOD, HarnessConfig(trials=3, seed=11))
        lines = report_to_jsonl(report)
        assert len(lines) == 5
        head = json.loads(lines[0])
        assert head == {
            "premise": "soc2",
            "holds": True,
            "residual": pytest.approx(0.0, abs=1e-9),
        }
        for t, line in enumerate(lines[1:-1]):
            rec = json.loads(line)
            assert set(rec) == {"trial", "causal", "residual", "seed"}
            assert rec["trial"] == t
            assert rec["causal"] is True
        tail = json.loads(lines[-1])
        assert tail["summary"]["trials"] == 3
        assert tail["summary"]["all_causal"] is True

    def test_report_dataclasses_are_plain(self):
        rec = TrialRecord(0, True, 0.0, 99)
        rep = HarnessReport("soc2", True, 0.0, (rec,))
        assert rep.all_causal and rep.max_residual == 0.0


class TestVerificationScript:
    SCRIPT = Path(__file__).parent.parent / "scripts" / "run_verification.py"

    def run_script(self, *args):
        return subprocess.run([sys.executable, str(self.SCRIPT), *args], capture_output=True, text=True)

    @pytest.mark.parametrize("flag", ["--trials", "--ancilla-dim"])
    def test_zero_trials_or_ancilla_dim_is_an_argument_error(self, flag):
        proc = self.run_script(flag, "0", "--mixes", "0", "--dressed", "0")
        assert proc.returncode == 2
        assert not proc.stdout and "positive integer" in proc.stderr

    def test_one_trial_runs_the_fixed_orders_and_the_control(self):
        proc = self.run_script("--trials", "1", "--mixes", "0", "--dressed", "0")
        assert proc.returncode == 0, proc.stderr
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [(r["generator"], r["all_causal"]) for r in lines if r["check"] == "ancilla_pairs"] == [
            ("a_then_b", True),
            ("b_then_a", True),
            ("corrupted_control", False),
        ]
