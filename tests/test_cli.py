import itertools
import json
import re
import subprocess
import time
from pathlib import Path

import jsonschema
import pytest

from e6lab import catalog, verify
from e6lab.cli import main

DOCS = Path(__file__).resolve().parent.parent / "docs"


def load_schema(name):
    return json.loads((DOCS / name).read_text())


def test_build_writes_valid_algebra_json(tmp_path, capsys):
    out = tmp_path / "model.json"
    rc = main(["build", "tits-o-m3r", "-o", str(out), "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim"] == 78
    assert report["jacobi_ok"] is True
    assert report["killing_signature"] == -26
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema("algebra.schema.json"))
    assert doc["dim"] == 78
    assert doc["provenance"]["C"] == "O"


def test_build_unknown_model_usage_error(capsys):
    assert main(["build", "nope", "--json"]) == 2


def test_killing_unknown_model_names_the_choices(capsys):
    assert main(["killing", "nope"]) == 2
    err = capsys.readouterr().err
    assert err == f"unknown model 'nope'; choose from {', '.join(catalog.MODEL_NAMES)}\n"


def test_default_verify_all_adds_a_passed_self_check(capsys):
    assert main(["verify-all", "--json"]) == 1
    full = json.loads(capsys.readouterr().out)
    assert main(["verify-all", "--json", "--no-self-check"]) == 1
    core = capsys.readouterr().out
    (c14,) = [c for c in full["checks"] if c["id"] == "C14.determinism"]
    assert c14["passed"]
    rest = [c for c in full["checks"] if c is not c14]
    assert verify.render_json({**full, "checks": rest, "total": full["total"] - 1}) == core


def test_self_check_process_is_ended_when_the_battery_raises(monkeypatch):
    children = []
    popen = subprocess.Popen

    def recorded(*args, **kwargs):
        children.append(popen(*args, **kwargs))
        return children[-1]

    def battery():
        raise RuntimeError("the battery raised")

    monkeypatch.setattr(subprocess, "Popen", recorded)
    monkeypatch.setattr(verify, "run_all", battery)
    with pytest.raises(RuntimeError, match="the battery raised"):
        main(["verify-all", "--json"])
    (child,) = children
    assert child.poll() is not None


def test_exported_model_reloads_identically(tmp_path, capsys):
    from e6lab.algcore import algebra_from_json
    from e6lab.catalog import model

    out = tmp_path / "sp8.json"
    assert main(["build", "sp8-e6", "-o", str(out), "--json"]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["provenance"]["odd_bracket_scale"] == "1"
    reloaded = algebra_from_json(doc)
    original, _ = model("sp8-e6")
    assert reloaded.sc == original.alg.sc
    assert reloaded.basis_labels == original.alg.basis_labels


def test_build_deterministic_output(tmp_path, capsys):
    out = tmp_path / "a.json"
    main(["build", "chevalley-e6", "-o", str(out), "--json"])
    first = capsys.readouterr().out
    bytes1 = out.read_bytes()
    main(["build", "chevalley-e6", "-o", str(out), "--json"])
    second = capsys.readouterr().out
    assert first == second
    assert out.read_bytes() == bytes1


def test_grading_command(tmp_path, capsys):
    out = tmp_path / "g.json"
    rc = main(["grading", "gamma4", "--type", "--verify", "--json", "-o", str(out)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] == [48, 1, 0, 7]
    assert doc["verified"] is True
    gdoc = json.loads(out.read_text())
    jsonschema.validate(gdoc, load_schema("grading.schema.json"))
    assert gdoc["group"] == {"free_rank": 2, "torsion": [2, 2, 2]}


def test_grading_unknown_name(capsys):
    assert main(["grading", "gamma99"]) == 2


def test_killing_command(capsys):
    rc = main(["killing", "tits-rr-albert", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["signature"] == -26
    assert doc["n_plus"] + doc["n_minus"] == 78


def test_constants_command(capsys):
    rc = main(["constants", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["c_der_C"] == "12"
    assert doc["c_der_J"] == "8"
    assert doc["delta"] == "12/5"
    assert doc["alpha"] == "-144"


def test_chevalley_command(tmp_path, capsys):
    csv = tmp_path / "torus.csv"
    rc = main(["chevalley", "--csv", str(csv), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["roots"] == 72
    assert doc["split_signature"] == 6
    assert doc["inheriting_signatures"] == [-78, -14, 2, 6]
    assert doc["contains_minus_26"] is False
    lines = csv.read_text().strip().split("\n")
    assert len(lines) == 65  # header + 64 torus elements
    assert lines[0].startswith("s1,s2,s3,s4,s5,s6")
    id_row = [l for l in lines[1:] if l.startswith("1,1,1,1,1,1,")][0]
    assert id_row.endswith("78,36,-78,6")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_chevalley_unwritable_csv_usage_error(tmp_path, capsys):
    path = tmp_path / "no_such_dir" / "t.csv"
    assert main(["chevalley", "--csv", str(path)]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith(f"cannot write {path}")


def test_grading_unwritable_output_usage_error(tmp_path, capsys):
    path = tmp_path / "no_such_dir" / "g.json"
    assert main(["grading", "gamma4", "-o", str(path)]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith(f"cannot write {path}")


def test_gamma_mutation_is_detected(monkeypatch):
    # deliberately flip the gamma convention of the "albert-split" ingredient
    # and rebuild: the signature table check must fail (and only then)
    import e6lab.tits as tits_mod
    import e6lab.verify as verify_mod

    monkeypatch.setitem(tits_mod.JORDAN_INGREDIENTS, "albert-split", ("O", (1, 1, 1)))
    tits_mod.tits_model.cache_clear()
    try:
        results = verify_mod.group_jacobson()
        bad = [c.id for c in results if not c.passed]
        # T(C, compact albert) is -78 where -14 was expected
        assert "C03.sig-c-albert-split" in bad
        # undoing the flip and clearing that one cache is the whole invalidation
        monkeypatch.undo()
        tits_mod.tits_model.cache_clear()
        assert all(c.passed for c in verify_mod.group_jacobson())
    finally:
        tits_mod.tits_model.cache_clear()


def _sl2_doc():
    return {
        "field": "Q",
        "dim": 3,
        "basis": ["h", "e", "f"],
        "sc": [[0, 1, 1, "2"], [1, 0, 1, "-2"], [0, 2, 2, "-2"], [2, 0, 2, "2"],
               [1, 2, 0, "1"], [2, 1, 0, "-1"]],
    }


def test_foreign_field_and_complex_entries_are_rejected():
    from e6lab.algcore import AlgebraError, algebra_from_json

    schema = load_schema("algebra.schema.json")
    doc = _sl2_doc()
    jsonschema.validate(doc, schema)
    assert algebra_from_json(doc).dim == 3
    gaussian_field = {**doc, "field": "Qi"}
    complex_entry = {**doc, "sc": doc["sc"][:-1] + [[2, 1, 0, {"re": "-1", "im": "0"}]]}
    for bad in (gaussian_field, complex_entry):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)
    with pytest.raises(AlgebraError, match="'Qi'"):
        algebra_from_json(gaussian_field)
    with pytest.raises(AlgebraError):
        algebra_from_json(complex_entry)
    with pytest.raises(AlgebraError, match="2 basis labels for dimension 3"):
        algebra_from_json({**doc, "basis": ["h", "e"]})
    grading_schema = load_schema("grading.schema.json")
    for entry, valid in (("1", True), ({"re": "1", "im": "0"}, False)):
        grading = {"group": {"free_rank": 0, "torsion": [2]},
                   "components": [{"degree": [1], "vectors": [[entry]]}]}
        if valid:
            jsonschema.validate(grading, grading_schema)
        else:
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(grading, grading_schema)


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "tits-o-m3r"],
        ["grading", "gamma11"],
        ["killing", "tits-o-m3r"],
        ["constants"],
        ["chevalley"],
        ["verify-all", "--no-self-check"],
    ],
    ids=lambda argv: argv[0],
)
def test_elapsed_time_is_not_negative_when_the_wall_clock_steps_back(monkeypatch, capsys, argv):
    # the wall clock steps an hour back at every read; elapsed time is read
    # from a monotonic clock
    steps = itertools.count()
    monkeypatch.setattr(time, "time", lambda: 2e9 - 3600.0 * next(steps))
    main(argv)
    (elapsed,) = re.findall(r"^elapsed: (\S+)s$", capsys.readouterr().err, re.M)
    assert float(elapsed) >= 0
