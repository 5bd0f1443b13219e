"""End-to-end acceptance gate.

Eight numbered checks, one test each, at desk scale (wires of dimension 2
to 4, everything seeded).  Each test prints its own pass line so a verbose
run reads as a checklist.
"""

import json
import zlib
from pathlib import Path

import numpy as np
import pytest
from test_affine import realize_by_wiring

from soclab.affine import (
    AffineCombination,
    decompose_nonsignalling,
    random_product_span,
    realize_affine,
)
from soclab.cli import main
from soclab.extras import spoiled_supermap
from soclab.harness import HarnessConfig, verify_corollary1, verify_theorem1
from soclab.predicates import (
    is_causal,
    is_nonsignalling,
    is_soc,
    is_soc2,
    is_soc2_oracle,
    is_soc_oracle,
    make_strongly_nonsignalling,
    probe_states,
    reconstruct_from_causal_states,
)
from soclab.process import (
    Process,
    apply_to_state,
    cap,
    compose_par,
    compose_seq,
    cup,
    discard_process,
    identity_process,
    process_to_dict,
    processes_close,
    random_causal_channel,
    random_density,
    swap_process,
)
from soclab.supermap import (
    BipartiteSupermap,
    dress_slots,
    fixed_order_a_then_b,
    fixed_order_b_then_a,
    insert_merged,
    mix,
)
from soclab.tensor import UNIT, System, is_psd, kron, norm

GOLDEN = Path(__file__).parent / "golden"
Q = System((2,))


@pytest.fixture(scope="module")
def soc2_generators():
    """Two fixed orders, five random affine mixes, five dressed variants."""
    ab = fixed_order_a_then_b(2, 2, 2, 2)
    ba = fixed_order_b_then_a(2, 2, 2, 2)
    gens = [("a_then_b", ab), ("b_then_a", ba)]
    rng = np.random.default_rng(2024)
    for k in range(5):
        t = float(rng.uniform(-1.0, 2.0))
        gens.append((f"affine_mix_{k}", mix([(t, ab), (1.0 - t, ba)])))
    bases = [ab, ba, gens[2][1], gens[3][1], gens[4][1]]
    for k, base in enumerate(bases):
        dressed = dress_slots(
            base,
            random_causal_channel(Q, Q, seed=rng),
            random_causal_channel(Q, Q, seed=rng),
            random_causal_channel(Q, Q, seed=rng),
            random_causal_channel(Q, Q, seed=rng),
        )
        gens.append((f"dressed_{k}", dressed))
    return gens


def test_criterion_1_structural_axioms():
    for d in (2, 3, 4):
        a = System((d,))
        ident = identity_process(a)
        snake_r = compose_seq(compose_par(ident, cup(a)), compose_par(cap(a), ident))
        snake_l = compose_seq(compose_par(cup(a), ident), compose_par(ident, cap(a)))
        assert processes_close(snake_r, ident, eps=1e-9)
        assert processes_close(snake_l, ident, eps=1e-9)
        assert processes_close(compose_seq(cup(a), swap_process(a, a)), cup(a), eps=1e-9)
        assert processes_close(compose_seq(swap_process(a, a), cap(a)), cap(a), eps=1e-9)
        assert processes_close(
            compose_seq(swap_process(a, a), swap_process(a, a)),
            identity_process(a + a),
            eps=1e-9,
        )
        both = compose_par(discard_process(a), discard_process(Q))
        assert processes_close(discard_process(System((d, 2))), both, eps=1e-9)
    assert np.array_equal(discard_process(UNIT).choi, np.eye(1))
    print("criterion 1 (structural axioms): PASS")


def test_criterion_2_causality_regression():
    assert is_causal(identity_process(Q)).holds
    assert is_causal(discard_process(System((3,)))).holds

    shapes = [(Q, Q), (Q, System((3,))), (System((3,)), Q)]
    for seed in range(100):
        in_sys, out_sys = shapes[seed % 3]
        v = is_causal(random_causal_channel(in_sys, out_sys, seed=seed))
        assert v.holds and v.residual <= 1e-9

    rng = np.random.default_rng(7)
    for _ in range(5):
        f = make_strongly_nonsignalling(
            random_causal_channel(System((2, 2)), Q, seed=rng),
            random_causal_channel(System((2, 2)), Q, seed=rng),
            Process(UNIT, System((2, 2)), random_density(System((2, 2)), seed=rng)),
        )
        assert is_causal(f).holds

    bad = is_causal(cup(Q))
    assert not bad.holds and bad.residual >= 0.5

    # body wiring a correlated pair through the hole; the identity filling
    # then reproduces the pair rather than one normalized system
    v = np.eye(2, dtype=complex).ravel()
    loop = Process(System((2, 2)), System((2, 2)), kron(np.outer(v, v), random_causal_channel(Q, Q, seed=9).choi))
    out = Process(Q, Q, apply_to_state(loop, np.outer(v, v)))
    verdict = is_causal(out)
    assert not verdict.holds and verdict.residual >= 0.5
    print("criterion 2 (causality regression): PASS")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(31)
    agreements = 0
    cases = 0

    def record(closed, sweep, expect=None):
        nonlocal agreements, cases
        cases += 1
        agreements += closed.holds == sweep.holds
        if expect is not None:
            assert closed.holds == expect

    for _ in range(100):
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        m = m + m.conj().T
        body = Process(System((2, 2)), System((2, 2)), m)
        record(is_soc(body), is_soc_oracle(body))
    for _ in range(100):
        m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        m = m + m.conj().T
        w = BipartiteSupermap(Process(System((2, 2, 2, 2)), System((2, 2)), m))
        record(is_soc2(w), is_soc2_oracle(w))

    for k in range(10):
        body = Process(
            System((2, 2)),
            System((2, 2)),
            kron(random_density(Q, seed=200 + k), np.eye(2), random_causal_channel(Q, Q, seed=300 + k).choi),
        )
        record(is_soc(body), is_soc_oracle(body), expect=True)
    ab = fixed_order_a_then_b(2, 2, 2, 2)
    ba = fixed_order_b_then_a(2, 2, 2, 2)
    two_hole_positives = [ab, ba] + [
        mix([(t, ab), (1.0 - t, ba)]) for t in np.linspace(-0.8, 1.8, 8)
    ]
    for w in two_hole_positives:
        record(is_soc2(w), is_soc2_oracle(w), expect=True)

    v = np.eye(2, dtype=complex).ravel()
    for k in range(10):
        body = Process(
            System((2, 2)),
            System((2, 2)),
            kron(np.outer(v, v), random_causal_channel(Q, Q, seed=400 + k).choi),
        )
        record(is_soc(body), is_soc_oracle(body), expect=False)
    bump = np.kron(np.eye(16), np.kron(np.diag([1.0, 0.0]), np.eye(2))) / 8
    for k in range(10):
        scale = 0.1 * (k + 1)
        w = BipartiteSupermap(Process(ab.body.in_sys, ab.body.out_sys, ab.body.choi + scale * bump))
        record(is_soc2(w), is_soc2_oracle(w), expect=False)

    assert cases == 240 and agreements == cases
    print(f"criterion 3 (oracle equivalence): PASS ({agreements}/{cases} agree)")


def test_criterion_4_ancilla_closure(soc2_generators):
    for name, w in soc2_generators:
        report = verify_theorem1(w, HarnessConfig(trials=100, seed=zlib.crc32(name.encode()) % 10_000, ancilla_dim=2))
        assert report.premise_holds, name
        assert report.all_causal, name
        assert report.max_residual <= 1e-9, (name, report.max_residual)

    control = verify_theorem1(spoiled_supermap(), HarnessConfig(trials=100, seed=5, ancilla_dim=2))
    violations = [r for r in control.records if not r.causal]
    assert len(violations) >= 1
    assert max(r.residual for r in violations) > 1e-3
    print("criterion 4 (ancilla closure, 12 generators x 100 trials): PASS")


def test_criterion_5_shared_state_closure(soc2_generators):
    for name, w in soc2_generators:
        report = verify_corollary1(w, HarnessConfig(trials=100, seed=zlib.crc32(name.encode()) % 10_000, ancilla_dim=2))
        assert report.premise_holds, name
        assert report.all_causal, name
        assert report.max_residual <= 1e-9, (name, report.max_residual)
    print("criterion 5 (shared-state closure, 12 generators x 100 trials): PASS")


def test_criterion_6_pseudo_state_extension(soc2_generators):
    rng = np.random.default_rng(61)

    def combo(coeffs):
        return AffineCombination(
            tuple(
                (float(c), random_causal_channel(Q, Q, seed=rng), random_causal_channel(Q, Q, seed=rng))
                for c in coeffs
            )
        )

    combos = [combo([1.5, -0.5])]
    for _ in range(4):
        raw = rng.normal(size=int(rng.integers(2, 7)))
        raw[0] = -abs(raw[0])
        while raw.sum() < 0.2:
            raw = rng.normal(size=len(raw))
            raw[0] = -abs(raw[0])
        combos.append(combo(raw / raw.sum()))

    for comb in combos:
        assert any(c < 0 for c in comb.coeffs)
        wired = realize_by_wiring(comb)
        direct = realize_affine(comb)
        assert processes_close(wired, direct, eps=1e-9)
        assert is_causal(wired).holds
        assert is_nonsignalling(wired).holds
        for name, w in soc2_generators:
            verdict = insert_merged(w, wired).causal
            assert verdict.residual <= 1e-8, (name, verdict.residual)

    span = random_product_span(300, seed=62)
    for k in range(20):
        seeded = np.random.default_rng(6300 + k)
        f = make_strongly_nonsignalling(
            random_causal_channel(System((2, 2)), Q, seed=seeded),
            random_causal_channel(System((2, 2)), Q, seed=seeded),
            Process(UNIT, System((2, 2)), random_density(System((2, 2)), seed=seeded)),
        )
        res = decompose_nonsignalling(f, span)
        assert res.residual <= 1e-6
        rebuilt = realize_affine(
            AffineCombination(tuple((c, a, b) for c, (a, b) in zip(res.coeffs, span)))
        )
        assert norm(rebuilt.choi - f.choi) <= 1e-6
    print("criterion 6 (pseudo-state extension and round trip): PASS")


def test_criterion_7_reconstruction_from_causal_states():
    for p in probe_states(2):
        assert abs(np.trace(p) - 1.0) < 1e-12 and is_psd(p)
    tri = System((3,))
    for seed in range(50):
        f = random_causal_channel(Q, tri, seed=seed)
        rec = reconstruct_from_causal_states(
            lambda rho: apply_to_state(f, rho), Q, tri
        )
        assert norm(rec.choi - f.choi) <= 1e-9
    print("criterion 7 (reconstruction from causal states, 50 channels): PASS")


def _pairs(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _json_close(a, b, tol=1e-12):
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_close(a[k], b[k], tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_json_close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= tol
    return a == b


def test_criterion_8_golden_corpus(capsys):
    ident_choi = np.zeros((4, 4))
    ident_choi[np.ix_([0, 3], [0, 3])] = 1.0
    expected_eval = {
        "yanking.diag": {"in": [2], "out": [2], "choi": _pairs(ident_choi)},
        "discards.diag": {"in": [], "out": [2], "choi": _pairs(np.eye(2))},
        "cap_then_cup.diag": process_to_dict(compose_seq(cap(System((3,))), cup(System((3,))))),
    }
    sqrt6 = float(np.sqrt(6.0))
    sqrt12 = float(np.sqrt(12.0))
    table = [
        (["eval", "yanking.diag"], 0, expected_eval["yanking.diag"]),
        (["eval", "discards.diag"], 0, expected_eval["discards.diag"]),
        (["eval", "cap_then_cup.diag"], 0, expected_eval["cap_then_cup.diag"]),
        (["eval", "bad_syntax.diag"], 2, None),
        (["eval", "type_error.diag"], 2, None),
        (["classify", "identity_channel.json"], 0,
         {"causal": {"holds": True, "residual": 0.0}}),
        (["classify", "cup_state.json"], 1,
         {"causal": {"holds": False, "residual": 1.0}}),
        (["classify", "product_channel.json", "--split", "1", "1"], 0,
         {"causal": {"holds": True, "residual": 0.0},
          "nonsignalling": {"holds": True, "residual": 0.0}}),
        (["classify", "swap_channel.json", "--split", "1", "1"], 1,
         {"causal": {"holds": True, "residual": 0.0},
          "nonsignalling": {"holds": False, "residual": sqrt12}}),
        (["soc", "cup_loop.json", "--slots", "1", "1"], 1,
         {"soc": {"holds": False, "residual": sqrt6}}),
        (["soc2", "fixed_order_a_then_b.json"], 0,
         {"soc2": {"holds": True, "residual": 0.0}}),
        (["verify", "theorem1", "fixed_order_a_then_b.json",
          "--trials", "3", "--seed", "1", "--dims", "2"], 0, "jsonl"),
    ]
    for argv, want_code, want_payload in table:
        argv = [str(GOLDEN / a) if (GOLDEN / a).exists() else a for a in argv]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == want_code, argv
        if want_payload is None:
            assert not out
        elif want_payload == "jsonl":
            lines = [json.loads(l) for l in out.strip().splitlines()]
            assert _json_close(
                lines[0], {"premise": "soc2", "holds": True, "residual": 0.0}
            )
            for t, rec in enumerate(lines[1:4]):
                assert _json_close(
                    rec,
                    {"trial": t, "causal": True, "residual": 0.0, "seed": 1_000_003 + t},
                )
            assert _json_close(
                lines[4],
                {"summary": {"trials": 3, "all_causal": True, "max_residual": 0.0}},
            )
        else:
            assert _json_close(json.loads(out), want_payload), argv

    code = main(["decompose", str(GOLDEN / "ns_mix.json"), "--span-size", "180", "--seed", "2"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert abs(sum(payload["coeffs"]) - 1.0) <= 1e-9
    assert payload["residual"] <= 1e-6 and payload["span_deficient"] is False
    print("criterion 8 (golden corpus, 13 invocations): PASS")
