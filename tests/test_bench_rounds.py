"""One traced round of each benchmark workload fires every span it expects
and reproduces golden.json.

`perfbench/run.py` starts `perfbench/child.py` for every round and rejects a
run whose outputs differ from `golden.json["outputs"]` (exit 1) or whose
traced rounds leave a span of `EXPECTED_SPANS` silent (exit 2).  This test
runs one traced round of each workload the same way, in a fresh interpreter
on fixtures written from the catalog's own builds, so either failure shows in
the test suite and not only in a benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())["outputs"]


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


RUN = _load_run()


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory, perfbench_child, fixture_documents):
    """A benchmark cache holding only the fixtures a round loads."""
    cache = tmp_path_factory.mktemp("bench")
    fixtures = cache / "fixtures"
    fixtures.mkdir()
    for name, doc in fixture_documents.items():
        (fixtures / f"{name}.json").write_bytes(perfbench_child.canonical(doc))
    return cache


@pytest.mark.parametrize("workload", RUN.WORKLOADS)
def test_traced_round_matches_golden(cache_dir, workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "round", workload, "1", "1", str(cache_dir)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    trace = result["trace"]
    silent = [s for s in RUN.EXPECTED_SPANS[workload] if trace.get(s, {}).get("calls", 0) == 0]
    assert not silent, f"spans never fired on {workload}: {silent}"
    assert result["outputs"] == GOLDEN[workload]
