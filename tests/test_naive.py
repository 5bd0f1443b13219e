"""The reference layer ``naive.py`` against definitions, and the guard that
keeps every reference in the tests off the shared layer that both forms of
each verdict read."""

import ast
from pathlib import Path

import numpy as np
import pytest

import naive

TESTS = Path(__file__).parent

# soclab's shared layer: a bug in any of these would move a reference that
# used it together with its subject.
SHARED = {
    "partial_trace", "link", "kron", "permute_subsystems", "apply_to_state", "causal_affine_basis", "hermitian_basis", "norm",
    "compose_seq", "compose_par", "rewire", "relabel", "insert", "insert_stacked", "insert_with_ancilla", "_discard_outputs",
}
# A function of a test module or of the fixtures is a reference when its
# name says so.
MARKERS = ("_reference", "_by_", "_at_a_time", "_fill_then_trace", "_kron")
# The references that read the shared layer on purpose, and why.
ALLOWED = {
    "test_predicates.causal_affine_basis_by_kron": "pins causal_affine_basis with array_equal to the kron of two Gell-Mann bases: its bits are the point",
    "fixtures.realize_by_wiring": "the paper's own wiring of a pseudo-state into controlled channels, which acceptance criterion 6 holds to realize_affine",
    "test_harness.one_trial_at_a_time": "a verification run must give the bits of its trials filled one at a time through the public insertions",
}


def shared_uses(tree: ast.Module) -> dict[str, set[str]]:
    """The shared-layer names that each reference function of a module reads,
    itself or through the module's other functions, by a name imported from
    soclab or as an attribute of one."""
    bound = {}  # local name -> soclab name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "soclab":
            bound.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.Import):
            bound.update({a.asname or a.name.split(".")[0]: a.name for a in node.names if a.name.split(".")[0] == "soclab"})
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def uses(name: str, seen: set[str]) -> set[str]:
        seen.add(name)
        found = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name) and bound.get(node.id) in SHARED:
                found.add(bound[node.id])
            elif isinstance(node, ast.Name) and node.id in functions.keys() - seen:
                found |= uses(node.id, seen)
            elif isinstance(node, ast.Attribute) and node.attr in SHARED:
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in bound:
                    found.add(node.attr)
        return found

    return {n: uses(n, set()) for n in functions if not n.startswith("test") and any(m in n for m in MARKERS)}


def test_naive_imports_numpy_and_nothing_else():
    tree = ast.parse((TESTS / "naive.py").read_text())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module or "." for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert imported and all(m.split(".")[0] == "numpy" for m in imported)


def test_no_reference_reads_the_shared_layer_unless_allowed():
    found = {}
    for path in [*sorted(TESTS.glob("test_*.py")), TESTS / "fixtures.py"]:
        found.update({f"{path.stem}.{name}": used for name, used in shared_uses(ast.parse(path.read_text())).items()})
    assert {name: used for name, used in found.items() if used and name not in ALLOWED} == {}
    # Every exception names a reference that exists and still needs it.
    assert all(found.get(name) and reason for name, reason in ALLOWED.items())


def test_the_guard_sees_a_shared_name_however_it_is_reached():
    tree = ast.parse(
        "from soclab.tensor import partial_trace as pt\n"
        "from soclab import process\n"
        "def helper(m):\n    return pt(m, (2,), ())\n"
        "def trace_reference(m):\n    return helper(m)\n"
        "def rewire_by_module(p):\n    return process.rewire(p, [], [])\n"
        "def clean_reference(m):\n    return m.sum()\n"
        "def test_kron():\n    return pt\n"
    )
    assert shared_uses(tree) == {"trace_reference": {"partial_trace"}, "rewire_by_module": {"rewire"}, "clean_reference": set()}


def test_the_identity_channel_has_the_unnormalized_bell_choi_matrix():
    for d in (1, 2, 3):
        v = np.eye(d).ravel()
        assert np.array_equal(naive.choi([np.eye(d)], d, d), np.outer(v, v))


def test_the_partial_trace_of_a_product_is_a_trace_times_the_other_factor():
    rng = np.random.default_rng(0)
    a, b = naive.random_matrix(rng, 2), naive.random_matrix(rng, 3)
    assert np.allclose(naive.ptrace(np.kron(a, b), (2, 3), (1,)), np.trace(a) * b)
    assert np.allclose(naive.ptrace(np.kron(a, b), (2, 3), (0,)), np.trace(b) * a)
    assert np.allclose(naive.permute(np.kron(a, b), (2, 3), (1, 0)), np.kron(b, a))


def test_unitary_channels_compose_as_their_unitaries():
    rng = np.random.default_rng(1)
    u, v = naive.random_unitary(rng, 2), naive.random_unitary(rng, 3)
    w = naive.random_unitary(rng, 3)[:, :2]  # an isometry 2 -> 3
    assert np.allclose(naive.seq(naive.choi([w], 2, 3), naive.choi([v], 3, 3), 2, 3, 3), naive.choi([v @ w], 2, 3))
    assert np.allclose(naive.par(naive.choi([u], 2, 2), (2, 2), naive.choi([v], 3, 3), (3, 3)), naive.choi([np.kron(u, v)], 6, 6))


@pytest.mark.parametrize("d_in, d_out", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)])
def test_every_basis_point_is_trace_preserving_and_the_directions_are_orthonormal(d_in, d_out):
    points = naive.tp_basis(d_in, d_out)
    k = d_in * d_in * (d_out * d_out - 1)
    assert points.shape == (k + 1, d_in * d_out, d_in * d_out)
    assert np.allclose(naive.ptrace(points, (d_in, d_out), (0,)), np.eye(d_in))
    directions = (points[1:] - points[0]).reshape(k, (d_in * d_out) ** 2)
    assert np.allclose(directions.conj() @ directions.T, np.eye(k))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_filling_the_a_then_b_order_with_two_unitaries_gives_their_product(d):
    # The order's body by its wires, C1 -> A1, A2 -> B1 and B2 -> C2: the
    # vector with entry 1 where those indices agree, on [A1, A2, B1, B2, C1, C2].
    i = np.eye(d)
    v = np.einsum("ae,bc,df->abcdef", i, i, i).ravel()
    rng = np.random.default_rng(d)
    u, w = naive.random_unitary(rng, d), naive.random_unitary(rng, d)
    got = naive.fill(np.outer(v, v), (d,) * 6, naive.choi([u], d, d), naive.choi([w], d, d))
    assert np.allclose(got, naive.choi([w @ u], d, d))
