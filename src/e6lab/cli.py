"""Command-line driver: build models, run verifications, emit JSON artifacts.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Machine output
(--json) is canonical: sorted keys, no whitespace variance, no timing, so two
identical invocations produce byte-identical documents.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time

from . import catalog, chevalley, verify
from .algcore import algebra_to_json, jacobi_certificate
from .gradings import grading_to_json, type_vector, verify as verify_grading
from .tits import proportionality_constants


def _elapsed_note(t0: float):
    print(f"elapsed: {time.perf_counter() - t0:.1f}s", file=sys.stderr)


def _unknown(kind, name, choices) -> int:
    """Print the usage error for an unknown name with its choices; return 2."""
    print(f"unknown {kind} {name!r}; choose from {', '.join(choices)}", file=sys.stderr)
    return 2


def _write(path, text) -> bool:
    """Write text to path; on failure print one line on stderr, return False."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    if args.model not in catalog.MODEL_NAMES:
        return _unknown("model", args.model, catalog.MODEL_NAMES)
    lie, provenance = catalog.model(args.model)
    defect = jacobi_certificate(lie.alg)
    sig = catalog.model_signature(args.model)
    doc = algebra_to_json(lie.alg, provenance=provenance)
    if args.out and not _write(args.out, verify.render_json(doc)):
        return 2
    report = {
        "model": args.model,
        "dim": lie.dim,
        "jacobi_ok": not defect,
        "killing_signature": sig,
        "path": args.out,
    }
    if args.json:
        sys.stdout.write(verify.render_json(report))
    else:
        status = "ok" if not defect else f"FAILED ({len(defect)} triples)"
        print(f"{args.model}: dim {lie.dim}, jacobi {status}, signature {sig}")
        if args.out:
            print(f"wrote {args.out}")
        _elapsed_note(t0)
    return 0 if not defect else 1


def cmd_grading(args) -> int:
    t0 = time.perf_counter()
    if args.name not in catalog.GRADING_NAMES:
        return _unknown("grading", args.name, catalog.GRADING_NAMES)
    g, carrier, desc = catalog.grading(args.name)
    tvec = type_vector(g)
    meta = catalog.TABLE2[args.name]
    verified = None
    if args.verify:
        verified = verify_grading(g).valid
    doc = {
        "name": args.name,
        "carrier": desc,
        "group": g.group.name(),
        "type": list(tvec),
        "expected_type": list(meta["type"]),
        "components": {
            ",".join(map(str, deg)): len(vs) for deg, vs in sorted(g.components.items())
        },
        "verified": verified,
    }
    if args.out and not _write(args.out, verify.render_json(grading_to_json(g))):
        return 2
    if args.json:
        sys.stdout.write(verify.render_json(doc))
    else:
        print(f"{args.name} on {desc}: group {doc['group']}")
        if args.type or not args.verify:
            print(f"type: {tvec} (expected {meta['type']})")
        print("per-degree dimensions:")
        for deg in sorted(g.components):
            print(f"  {deg}: {len(g.components[deg])}")
        if verified is not None:
            print(f"verified: {verified}")
        if args.out:
            print(f"wrote {args.out}")
        _elapsed_note(t0)
    if args.verify and not verified:
        return 1
    if tvec != meta["type"]:
        return 1
    return 0


def cmd_killing(args) -> int:
    t0 = time.perf_counter()
    if args.model not in catalog.MODEL_NAMES:
        return _unknown("model", args.model, catalog.MODEL_NAMES)
    lie, _ = catalog.model(args.model)
    r = lie.killing_inertia()
    doc = {
        "model": args.model,
        "n_plus": r.n_plus,
        "n_minus": r.n_minus,
        "n_zero": r.n_zero,
        "signature": r.signature,
    }
    if args.json:
        sys.stdout.write(verify.render_json(doc))
    else:
        print(
            f"{args.model}: inertia (+{r.n_plus}, -{r.n_minus}, 0:{r.n_zero}), signature {r.signature}"
        )
        _elapsed_note(t0)
    return 0


def cmd_constants(args) -> int:
    t0 = time.perf_counter()
    pc = proportionality_constants()
    doc = {k: str(v) for k, v in pc.items()}
    if args.json:
        sys.stdout.write(verify.render_json(doc))
    else:
        for k in sorted(doc):
            print(f"{k} = {doc[k]}")
        _elapsed_note(t0)
    return 0


def cmd_chevalley(args) -> int:
    t0 = time.perf_counter()
    cb = chevalley.e6_chevalley()
    inh = cb.inheriting_signatures()
    doc = {
        "roots": 2 * len(cb.roots.positive),
        "split_signature": chevalley.split_signature(cb),
        "inheriting_signatures": inh["signatures"],
        "fix_t_values": inh["fix_t_values"],
        "contains_minus_26": inh["contains_minus_26"],
    }
    if args.csv:
        lines = ["s1,s2,s3,s4,s5,s6,dim_fix_t,dim_fix_omega_t,sig_via_omega_t,sig_via_t\n"]
        for row in inh["rows"]:
            signs = ",".join(str(s) for s in row["signs"])
            lines.append(
                f"{signs},{row['dim_fix_t']},{row['dim_fix_omega_t']},"
                f"{row['signature_via_omega_t']},{row['signature_via_t']}\n"
            )
        if not _write(args.csv, "".join(lines)):
            return 2
    if args.json:
        sys.stdout.write(verify.render_json(doc))
    else:
        print(f"roots: {doc['roots']}, split signature: {doc['split_signature']}")
        print(f"real forms inheriting the Z2^7 grading: {doc['inheriting_signatures']}")
        print(f"dim fix(t) values over t != id: {doc['fix_t_values']}")
        print(f"-26 present: {doc['contains_minus_26']}")
        if args.csv:
            print(f"wrote {args.csv}")
        _elapsed_note(t0)
    return 0


def cmd_verify_all(args) -> int:
    t0 = time.perf_counter()
    child = None
    if not args.no_self_check:
        # determinism: a fresh process, started before the battery and read
        # after it, must reproduce the core report byte for byte
        cmd = [sys.executable, "-m", "e6lab.cli", "verify-all", "--json", "--no-self-check"]
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        results = verify.run_all()
        out = child.communicate()[0] if child else None
    finally:
        if child and child.poll() is None:  # the battery raised
            child.kill()
            child.communicate()
    doc = verify.report_document(results)
    if child:
        identical = child.returncode in (0, 1) and out == verify.render_json(doc)
        results = results + [
            verify.CheckResult(
                id="C14.determinism",
                description="fresh-process verify-all --json is byte-identical",
                passed=identical,
                expected="True",
                computed=str(identical),
            )
        ]
        doc = verify.report_document(results)
    if args.json:
        sys.stdout.write(verify.render_json(doc))
    else:
        for cid, desc, ok, failing in verify.criterion_lines(results):
            mark = "PASS" if ok else "FAIL"
            extra = "" if ok else f"  [{', '.join(failing)}]"
            print(f"{mark} {cid}: {desc}{extra}")
        n_fail = len(doc["failed"])
        print(f"{doc['total']} checks, {doc['total'] - n_fail} passed, {n_fail} failed")
        _elapsed_note(t0)
    return 0 if doc["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="e6lab",
        description="exact models and fine gradings of the real Lie algebra e6(-26)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a model and export its structure constants")
    b.add_argument("model", help=f"one of {', '.join(catalog.MODEL_NAMES)}")
    b.add_argument("-o", "--out", help="write the algebra JSON here")
    b.add_argument("--json", action="store_true", help="machine-readable report")
    b.set_defaults(func=cmd_build)

    g = sub.add_parser("grading", help="build and check a fine grading")
    g.add_argument("name", help=f"one of {', '.join(catalog.GRADING_NAMES)}")
    g.add_argument("--verify", action="store_true", help="run the exhaustive closure check")
    g.add_argument("--type", action="store_true", help="print the type vector")
    g.add_argument("-o", "--out", help="write the grading JSON here")
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=cmd_grading)

    k = sub.add_parser("killing", help="Killing form inertia of a model")
    k.add_argument("model")
    k.add_argument("--json", action="store_true")
    k.set_defaults(func=cmd_killing)

    c = sub.add_parser("constants", help="Killing proportionality constants on T(O, M3R)")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_constants)

    ch = sub.add_parser("chevalley", help="split-form battery and inheritance enumeration")
    ch.add_argument("--csv", help="write the per-torus-element CSV here")
    ch.add_argument("--json", action="store_true")
    ch.set_defaults(func=cmd_chevalley)

    v = sub.add_parser("verify-all", help="run the full acceptance battery")
    v.add_argument("--json", action="store_true")
    v.add_argument(
        "--no-self-check",
        action="store_true",
        help="skip the fresh-process determinism check (used by that check itself)",
    )
    v.set_defaults(func=cmd_verify_all)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
