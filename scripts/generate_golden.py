"""Regenerate the fixed input corpus under tests/golden/.

Everything here is seeded, so a rerun writes the same files with the same
diagrams, keys and dims, but not always the same bytes: the Choi entries of
the files built from random channels (boxes/noise.json,
product_channel.json, cup_loop.json, ns_mix.json) can differ in the last
bit, by up to about 1e-16, with the linear-algebra library that computes
them.  tests/test_golden.py regenerates into a temporary directory and
checks the result against the corpus to 1e-12; the rest of the test suite
treats the directory as read-only.
"""

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from soclab.process import (
    Process,
    compose_par,
    cup,
    identity_process,
    process_to_dict,
    random_causal_channel,
    swap_process,
)
from soclab.supermap import fixed_order_a_then_b, supermap_to_dict
from soclab.affine import AffineCombination, random_product_span, realize_affine
from soclab.tensor import System, kron

GOLDEN = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "tests", "golden"))

DIAGRAMS = {
    "yanking.diag": """\
# a wire bent right and back is still a straight wire
system Q = 2 ;
(id[Q] * cup[Q]) ; (cap[Q] * id[Q])
""",
    "discards.diag": """\
# half of a correlated pair, sent through noise and traced out
system Q = 2 ;
box noise : Q -> Q @ "boxes/noise.json" ;
cup[Q] ; (noise * id[Q]) ; (discard[Q] * id[Q])
""",
    "cap_then_cup.diag": """\
system R = 3 ;
cap[R] ; cup[R]
""",
    "bad_syntax.diag": """\
system Q = 2
id[Q]
""",
    "type_error.diag": """\
system Q = 2 ;
system R = 3 ;
id[Q] ; id[R]
""",
}


def write_json(name: str, payload: dict) -> None:
    path = os.path.join(GOLDEN, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    for name, text in DIAGRAMS.items():
        with open(os.path.join(GOLDEN, name), "w") as fh:
            fh.write(text)

    q = System((2,))
    write_json("boxes/noise.json", process_to_dict(random_causal_channel(q, q, seed=100)))
    write_json("identity_channel.json", process_to_dict(identity_process(q)))
    write_json("cup_state.json", process_to_dict(cup(q)))
    write_json(
        "product_channel.json",
        process_to_dict(
            compose_par(
                random_causal_channel(q, q, seed=101),
                random_causal_channel(q, q, seed=102),
            )
        ),
    )
    write_json("swap_channel.json", process_to_dict(swap_process(q, q)))

    # feeds the hole one half of a correlated pair and reads the other half
    # back; filling with the identity outputs four times a normalized state
    v = np.eye(2, dtype=complex).ravel()
    sigma = random_causal_channel(q, q, seed=103)
    loop = Process(System((2, 2)), System((2, 2)), kron(np.outer(v, v), sigma.choi))
    write_json("cup_loop.json", process_to_dict(loop))

    write_json(
        "fixed_order_a_then_b.json", supermap_to_dict(fixed_order_a_then_b(2, 2, 2, 2))
    )

    rng = np.random.default_rng(104)
    pairs = random_product_span(8, seed=rng)
    r = rng.normal(size=8)
    r = r / r.sum()
    comb = AffineCombination(tuple((float(c), f, g) for c, (f, g) in zip(r, pairs)))
    write_json("ns_mix.json", process_to_dict(realize_affine(comb)))

    print(f"wrote corpus to {GOLDEN}")


if __name__ == "__main__":
    main()
