"""The digests of the benchmark's `solve` round, rebuilt here, equal golden.json.

A `solve` round in `perfbench/child.py` digests the derivation bases of five
algebras, the basis of fix(omega), the rows of `inheriting_signatures` and
the basis of ker c with `child.digest`, which tells an int from a Fraction.
This test rebuilds those outputs from the same fixture documents, with the
same calls and the same digest, and compares them with
`golden.json["outputs"]["solve"]`: a change of value or of scalar type fails
here, in the test suite, and not only in a benchmark run.
"""

import json
from pathlib import Path

import pytest

from e6lab import chevalley, e6sp8
from e6lab.algcore import algebra_from_json, derivations, fixed_subspace
from e6lab.scalars import QQ

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())["outputs"]["solve"]
DERIVATIONS = sorted(n for n in GOLDEN if n.startswith("derivations.") and n.endswith(".sha256"))
CHECKED = DERIVATIONS + [
    "fix_omega.sha256",
    "inheriting.rows_sha256",
    "inheriting.signatures",
    "kernel_c.sha256",
]


@pytest.fixture(scope="module")
def outputs(perfbench_child, fixture_documents):
    child = perfbench_child
    out = {}
    for name in child.SOLVE_ALGEBRAS:
        basis = derivations(algebra_from_json(fixture_documents[f"solve-{name}"]))
        out[f"derivations.{name}.sha256"] = child.digest(basis)
    # `child.load_chevalley`, on the document rather than its file
    lie = child.load_lie(fixture_documents["model-chevalley-e6"])
    rs = chevalley.e6_roots()
    chains = [chevalley.chain_for(rs, alpha) for alpha in rs.positive]
    cb = chevalley.ChevalleyBasis(lie=lie, roots=rs, chains=chains)
    inh = chevalley.inheriting_signatures(cb)
    out["inheriting.signatures"] = child.plain(inh["signatures"])
    out["inheriting.rows_sha256"] = child.digest(inh["rows"])
    basis, _ = fixed_subspace(chevalley.omega(cb), QQ)
    out["fix_omega.sha256"] = child.digest(basis)
    out["kernel_c.sha256"] = child.digest(e6sp8.kernel_c_basis())
    return out


def test_every_solve_algebra_is_checked(perfbench_child):
    assert DERIVATIONS == sorted(f"derivations.{n}.sha256" for n in perfbench_child.SOLVE_ALGEBRAS)


@pytest.mark.parametrize("name", CHECKED)
def test_solve_output_matches_golden(outputs, name):
    assert outputs[name] == GOLDEN[name]
