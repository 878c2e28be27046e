"""Acceptance battery: every criterion at its stated (exact) tolerance.

One test per criterion; each prints a PASS/FAIL line.  All arithmetic in the
package is exact, so every comparison here is equality, never approximate.
"""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from e6lab import catalog, verify

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def results():
    return verify.run_all()


def test_report_validates_against_schema(results):
    doc = verify.report_document(results)
    schema = json.loads((ROOT / "docs" / "report.schema.json").read_text())
    jsonschema.validate(doc, schema)


def test_battery_matches_the_benchmark_golden_digest(results):
    # the whole report byte for byte, as the benchmark's build step checks
    # it, not criterion by criterion
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["build"]
    doc = verify.report_document(results)
    report = verify.render_json(doc).encode()
    assert hashlib.sha256(report).hexdigest() == golden["battery_sha256"]
    assert doc["total"] == golden["battery_total"]
    assert doc["failed"] == ["C05.tensor-alpha"]


def test_structure_constants_are_fractions(results):
    # construction runs on ints, but a stored constant must stay a Fraction:
    # int / int is a float
    for name in catalog.MODEL_NAMES:
        lie, _ = catalog.model(name)
        assert all(type(x) is Fraction for row in lie.alg.sc.values() for x in row.values()), name


def _criterion(results, prefix, label):
    checks = [c for c in results if c.id.startswith(prefix + ".")]
    assert checks, f"no checks ran for {prefix}"
    failing = [c for c in checks if not c.passed]
    status = "PASS" if not failing else "FAIL"
    print(f"{status} {prefix}: {label} ({len(checks)} checks)")
    for c in failing:
        print(f"    {c.id}: expected {c.expected}, computed {c.computed}")
    assert not failing, [
        f"{c.id}: expected {c.expected}, computed {c.computed}" for c in failing
    ]


def test_criterion_01_dimensions(results):
    _criterion(results, "C01", "derivation and model dimensions")


def test_criterion_02_jacobi(results):
    _criterion(results, "C02", "Jacobi defect empty on all nine models")


def test_criterion_03_jacobson_table(results):
    _criterion(results, "C03", "signature table over 2-dim composition algebras")


def test_criterion_04_minus26(results):
    _criterion(results, "C04", "signature of T(O, M3R) is -26")


def test_criterion_05_constants(results):
    # NOTE: C05.tensor-alpha asserts the published -60; the exact value of
    # the printed formula is -144 (see decisions ledger).  Expected RED.
    _criterion(results, "C05", "Killing proportionality constants")


def test_criterion_06_sp31(results):
    _criterion(results, "C06", "quaternionic decomposition and twist identity")


def test_criterion_07_grading_types(results):
    _criterion(results, "C07", "five gradings verify with Table-2 types")


def test_criterion_08_e_components(results):
    _criterion(results, "C08", "identity components have the torus rank dims")


def test_criterion_09_orthogonality(results):
    _criterion(results, "C09", "Killing orthogonality across degrees")


def test_criterion_10_bound_and_witt(results):
    _criterion(results, "C10", "signature bound and graded Witt certificates")


def test_criterion_11_sp8(results):
    _criterion(results, "C11", "symplectic model battery")


def test_criterion_12_chevalley(results):
    _criterion(results, "C12", "Chevalley battery and inheritance enumeration")


def test_criterion_13_carriers(results):
    _criterion(results, "C13", "four gradings on -26 carriers, Z2^7 excluded")


def test_criterion_14_determinism():
    cmd = [sys.executable, "-m", "e6lab.cli", "verify-all", "--json", "--no-self-check"]
    # two fresh processes, started together
    procs = [
        subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outs = [p.communicate() for p in procs]
    first, second = (
        subprocess.CompletedProcess(cmd, p.returncode, *out) for p, out in zip(procs, outs)
    )
    identical = first.stdout == second.stdout and first.stdout
    status = "PASS" if identical else "FAIL"
    print(f"{status} C14: two fresh verify-all --json runs are byte-identical")
    assert first.returncode in (0, 1)
    assert second.returncode == first.returncode
    assert first.stdout == second.stdout
    assert first.stdout.strip()
