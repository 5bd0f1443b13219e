"""The tests' inputs, built in one place so that every test draws from the same
range: random bodies, every kind of two-slot supermap, one hypothesis strategy
over both, and the golden documents with their mutations.  The builders use
numpy, ``naive`` and soclab's public constructors only; a test module, or a
script that a test runs in a child process, imports what tests share from
here, never from a test module.

A supermap's body maps ``[A1, A2, B1, B2]`` to ``[C1, C2]``; ``slots`` is
``(A1, A2, B1, B2)`` and ``chan`` is ``(C1, C2)``."""

import ast
import io
import json
import re
from math import prod
from pathlib import Path
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from soclab.affine import controlled_local_channel, pseudo_state
from soclab.cli import _dump_process
from soclab.extras import quantum_switch, spoiled_supermap
from soclab.process import Process, compose_par, compose_seq, identity_process, random_causal_channel, relabel, rewire
from soclab.predicates import is_nonsignalling, is_soc, is_soc2
from soclab.supermap import BipartiteSupermap, dress_slots, fixed_order_a_then_b, fixed_order_b_then_a, merged_slot_process, mix
from soclab.tensor import System

import naive

seeds = st.integers(0, 2**32 - 1)

# Random bodies, and the kinds built from the paper's constructions; the
# supermaps of PRESERVING kinds preserve causality, and those of POSITIVE
# kinds have a positive semidefinite body.
BODIES = ("complex", "hermitian", "psd")
PRESERVING = ("a_then_b", "b_then_a", "switch", "mix", "dressed", "comb_a_then_b", "comb_b_then_a")
KINDS = BODIES + ("spoiled",) + PRESERVING
POSITIVE = {"psd", "spoiled"} | set(PRESERVING) - {"mix"}
SLOTS = ((2, 2, 2, 2), (2, 3, 3, 2), (3, 2, 2, 3), (3, 2, 2, 4), (1, 2, 3, 1), (2, 2, 1, 1))
CHANS = ((2, 2), (3, 1), (2, 3))


def random_body(rng, in_sys, out_sys, kind="complex"):
    """A random process whose Choi matrix is a complex Gaussian ``g``
    (generally neither Hermitian nor CP), ``g + g^dag``, ``g g^dag / side``,
    or, for ``"sparse"``, mostly zeros of either sign with entries of any
    sign and of magnitudes 1e-3 to 1e3 elsewhere."""
    side = in_sys.total * out_sys.total
    if kind == "sparse":
        parts = rng.standard_normal((2, side, side)) * 10.0 ** rng.integers(-3, 4, (2, side, side))
        parts[rng.random((2, side, side)) < 0.6] = 0.0
        parts[rng.random((2, side, side)) < 0.2] = -0.0
        return Process(in_sys, out_sys, parts[0] + 1j * parts[1])
    g = naive.random_matrix(rng, side)
    if kind == "hermitian":
        g = g + g.conj().T
    elif kind == "psd":
        g = g @ g.conj().T / side
    return Process(in_sys, out_sys, g)


def haar_channel(rng, d_in, d_out):
    """The Choi matrix of a channel ``d_in -> d_out`` whose isometry into the
    output and a ``d_in``-dimensional environment is Haar: the first ``d_in``
    columns of a Haar unitary."""
    v = naive.random_unitary(rng, d_out * d_in)[:, :d_in].reshape(d_out, d_in, d_in)
    return naive.choi(v.transpose(1, 0, 2), d_in, d_out)


def _comb(rng, slots, chan, first):
    """A quantum comb of three Haar-isometry channels, with memories ``M1``
    and ``M2`` of dimension 1 to 3: ``C1 -> X1 M1``, ``X2 M1 -> Y1 M2`` and
    ``Y2 M2 -> C2``, where the slot ``first`` (``"a"`` or ``"b"``) is X and
    the other Y, linked over both memories in one einsum."""
    a1, a2, b1, b2 = slots
    c1, c2 = chan
    m1, m2 = (int(m) for m in rng.integers(1, 4, 2))
    # Rows A1 a, A2 b, B1 c, B2 d, C1 e, C2 f, M1 x, M2 y; columns in capitals.
    (x1, x2, xi, xo), (y1, y2, yi, yo) = ((a1, a2, "a", "b"), (b1, b2, "c", "d"))[:: 1 if first == "a" else -1]
    links = [((c1,), (x1, m1), "e" + xi + "x"), ((x2, m1), (y1, m2), xo + "x" + yi + "y"), ((y2, m2), (c2,), yo + "yf")]
    subs, ops = [], []
    for ins, outs, rows in links:
        subs.append(rows + rows.upper())
        ops.append(haar_channel(rng, prod(ins), prod(outs)).reshape((ins + outs) * 2))
    side = prod(slots) * c1 * c2
    body = np.einsum(",".join(subs) + "->abcdefABCDEF", *ops, optimize=True).reshape(side, side)
    return BipartiteSupermap(Process(System(slots), System(chan), body))


def _dress(w, slots, rng):
    """``w``, a supermap with qubit slots, dressed with random causal
    channels so that its slots take ``slots``."""
    a1, a2, b1, b2 = slots
    q = System((2,))
    ends = [(q, System((a1,))), (System((a2,)), q), (q, System((b1,))), (System((b2,)), q)]
    return dress_slots(w, *(random_causal_channel(i, o, seed=rng) for i, o in ends))


def supermap(kind, slots, chan, rng, bump=0.0):
    """A supermap of ``kind`` whose slots take ``slots``, plus ``bump``
    times a random Hermitian body ``g + g^dag``.

    ``kind`` is one of :data:`KINDS` or ``"sparse"``.  A random body (of a
    :func:`random_body` kind) and a comb have C dims ``chan``; every other
    kind is a construction with C dims of its own.  A fixed order is the
    order itself where its wires chain; the switch and the spoiled order are
    built at ``d`` where every slot is ``d``; ``"mix"`` is the affine mixture
    ``t AB + (1 - t) BA`` of the qubit orders, ``t`` drawn in [-1, 2); and
    ``"dressed"`` is the qubit A-then-B order.  A construction whose slots
    are not ``slots`` is built at qubits and dressed with random causal
    channels to take them, and the dressed order always is."""
    a1, a2, b1, b2 = slots
    if kind in (*BODIES, "sparse"):
        w = BipartiteSupermap(random_body(rng, System(slots), System(chan), kind))
    elif kind.startswith("comb_"):
        w = _comb(rng, slots, chan, kind[5])
    elif kind == "a_then_b" and a2 == b1:
        w = fixed_order_a_then_b(*slots)
    elif kind == "b_then_a" and b2 == a1:
        w = fixed_order_b_then_a(*slots)
    elif kind in ("switch", "spoiled"):
        w = (quantum_switch if kind == "switch" else spoiled_supermap)(a1 if len(set(slots)) == 1 else 2)
    elif kind == "mix":
        t = float(rng.uniform(-1.0, 2.0))
        w = mix([(t, fixed_order_a_then_b(2, 2, 2, 2)), (1.0 - t, fixed_order_b_then_a(2, 2, 2, 2))])
    else:
        w = (fixed_order_b_then_a if kind == "b_then_a" else fixed_order_a_then_b)(2, 2, 2, 2)
    if kind == "dressed" or (w.a_in, w.a_out, w.b_in, w.b_out) != tuple(slots):
        w = _dress(w, slots, rng)
    if bump:
        body = w.body
        g = naive.random_matrix(rng, body.choi.shape[0])
        w = BipartiteSupermap(Process(body.in_sys, body.out_sys, body.choi + bump * (g + g.conj().T)))
    return w


class Drawn(NamedTuple):
    """``supermap(kind, slots, chan, np.random.default_rng(seed), bump)`` as
    :func:`supermaps` drew it, with the generator, left for the test's own
    draws.  ``preserving`` is the verdict the kind promises, and
    ``positive`` whether the body is positive semidefinite by construction."""

    kind: str
    slots: tuple
    chan: tuple
    seed: int
    bump: float
    w: BipartiteSupermap
    rng: np.random.Generator

    preserving = property(lambda self: self.kind in PRESERVING and not self.bump)
    positive = property(lambda self: self.kind in POSITIVE and not self.bump)


@st.composite
def supermaps(draw, slots=SLOTS, chans=CHANS, bumps=(0.0,)):
    """A :class:`Drawn` supermap of any of :data:`KINDS`, its slots, C dims
    and bump drawn from ``slots``, ``chans`` and ``bumps``, and its seed."""
    kind, s, c, bump = (draw(st.sampled_from(choices)) for choices in (KINDS, slots, chans, bumps))
    seed = draw(seeds)
    rng = np.random.default_rng(seed)
    return Drawn(kind, s, c, seed, bump, supermap(kind, s, c, rng, bump), rng)


def realize_by_wiring(comb):
    """The pseudo-state wiring, kept as a reference for realize_affine: the
    diagonal pseudo-state's two registers control one local channel each."""
    _, f0, g0 = comb.terms[0]
    a1, a2 = f0.in_sys.total, f0.out_sys.total
    b1, b2 = g0.in_sys.total, g0.out_sys.total
    ctrl_a = controlled_local_channel([relabel(f, (a1,), (a2,)) for _, f, _ in comb.terms])
    ctrl_b = controlled_local_channel([relabel(g, (b1,), (b2,)) for _, _, g in comb.terms])
    prep = compose_par(pseudo_state(comb.coeffs), identity_process(System((a1, b1))))
    arranged = rewire(prep, (0, 1), (2, 4, 3, 5))
    return compose_seq(arranged, compose_par(ctrl_a, ctrl_b))


def flip(w):
    """The body read as a channel from [C1, A2, B2] to [A1, B1, C2]."""
    return rewire(w.body, [4, 1, 3], [0, 2, 5])


def closed_form_hex(w):
    """``float.hex`` of the residual and parts of three closed-form verdicts on ``w``."""
    verdicts = {
        "soc2": is_soc2(w),
        "soc_merged": is_soc(merged_slot_process(w), 2, 1),
        "nonsignalling": is_nonsignalling(flip(w), 1, 1),
    }
    return {k: (v.residual.hex(), {n: g.hex() for n, g in v.parts.items()}) for k, v in verdicts.items()}


def assert_same_bits(got, want):
    """Equal values and equal signs of zero, entry by entry."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == complex and got.shape == want.shape
    g, w = got.view(float), want.view(float)
    assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


def assert_same_process(got, want, tol=1e-12):
    assert got.in_sys == want.in_sys and got.out_sys == want.out_sys
    assert np.linalg.norm(got.choi - want.choi) <= tol * max(1.0, np.linalg.norm(want.choi))


# --- documents ---------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
FUZZ_FILES = sorted(p.relative_to(GOLDEN).as_posix() for pattern in ("*.json", "*.diag", "boxes/*.json") for p in GOLDEN.glob(pattern))
TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"


def dumped(p: Process) -> str:
    """The text ``_dump_process`` writes."""
    buf = io.StringIO()
    _dump_process(p, buf)
    return buf.getvalue()


def tracer_constant(name):
    """The literal value assigned to ``name`` at the top of the tracer file."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER.name} assigns no {name}")


def _fuzz_leaf(value):
    """What a mutation puts in place of one node of a document."""
    return st.sampled_from(
        [
            "2", "", True, False, None, {}, [], [value], 0, -2, 3, 10**6, 2**40,
            1e308, -1e308, 1e-320, 5e-324, 10**400, float("nan"), float("inf"),
        ]
    )


@st.composite
def mutated_document(draw, text: str) -> str:
    """``text``, a golden document, with one mutation: a node replaced by a
    wrong type, an extreme number, a bool, a string or a bad dimension; a
    node nested once more; a list entry dropped or repeated, which makes a
    matrix non-square; a key dropped; or the text cut short.  A diagram's
    numbers are replaced, or its text cut short."""
    # Most replacements leave a document that loads, so they come thrice.
    kind = draw(st.sampled_from(["replace"] * 3 + ["nest", "drop", "repeat", "dims", "truncate"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if not text.lstrip().startswith("{"):
        # A size of 10**6 is refused before anything is allocated; one of 9
        # would make a yanking diagram of a gigabyte, which is its right.
        sizes = [str(n) for n in (0, -1, 1, 3, 10**6)] + ["9" * 5000, "2.5", "x"]
        return re.sub(r"\d+", lambda _: draw(st.sampled_from(sizes)), text, count=draw(st.integers(1, 3)))
    doc = json.loads(text)
    if kind == "dims":
        record = doc.get("process", doc)
        key = draw(st.sampled_from(["in", "out"]))
        dims = record[key]
        bad = draw(st.sampled_from([0, -1, -2, 10**6, 2**31, 3, 1]))
        record[key] = draw(st.sampled_from([dims[:-1] + [bad], [bad, bad], []]))
        return json.dumps(doc)
    # Walk down from the root to a node, one drawn step at a time; three
    # steps in four go on, so that most walks end at a number.
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.integers(0, 3))):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = node[key]
    if parent is None:
        return json.dumps(draw(_fuzz_leaf(doc)))
    if kind == "replace":
        parent[key] = draw(_fuzz_leaf(node))
    elif kind == "nest":
        parent[key] = [node]
    elif kind == "drop":
        del parent[key]
    elif isinstance(parent, list):
        parent.append(node)
    return json.dumps(doc)
