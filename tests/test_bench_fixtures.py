"""The catalog's models and gradings are byte-identical to the benchmark's golden
fixtures.

`perfbench/child.py` exports every catalog model and grading as a canonical
JSON document, and `perfbench/golden.json` pins the sha256 of each.  This
test builds the same documents with the same code and compares the digests,
so a change that moves any structure constant, label, provenance or grading
vector fails here, in the test suite, and not only in a benchmark run.
"""

import hashlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PREFIXES = ("model-", "grading-")


@pytest.fixture(scope="module")
def digests(perfbench_child, fixture_documents):
    return {
        name: hashlib.sha256(perfbench_child.canonical(doc)).hexdigest()
        for name, doc in fixture_documents.items()
        if name.startswith(PREFIXES)
    }


GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())["build"]["fixtures"]


@pytest.mark.parametrize("name", sorted(n for n in GOLDEN if n.startswith(PREFIXES)))
def test_fixture_matches_golden(digests, name):
    assert digests[name] == GOLDEN[name]
