"""The acceptance battery: every numeric claim the package reproduces.

Checks are small records with stable ids; `run_all` executes the groups
and returns them sorted by id, so the JSON rendering is byte-deterministic.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import catalog, chevalley, e6sp8, linalg
from .algcore import derivation_int_matrices, fixed_subspace, jacobi_certificate
from .composition import hurwitz
from .gradings import (
    killing_orthogonality_violations,
    graded_witt_basis,
    signature_bound,
    type_vector,
    verify as verify_grading,
)
from .jordan import h3, m3r
from .tits import (
    jacobson_table,
    proportionality_constants,
    sp31_decomposition,
    twist_signature_identity,
)

F = Fraction


@dataclass(frozen=True)
class CheckResult:
    id: str
    description: str
    passed: bool
    expected: str
    computed: str


def _check(cid, desc, expected, computed) -> CheckResult:
    return CheckResult(
        id=cid,
        description=desc,
        passed=expected == computed,
        expected=str(expected),
        computed=str(computed),
    )


def _check_bool(cid, desc, ok) -> CheckResult:
    return CheckResult(
        id=cid, description=desc, passed=bool(ok), expected="True", computed=str(bool(ok))
    )


# ---------------------------------------------------------------------------
# groups


def group_dimensions():
    out = []
    # dim Der(A) is the number of kept int matrices
    for cid, desc, want, alg in (
        ("C01.der-O", "dim Der(O)", 14, hurwitz("O").alg),
        ("C01.der-albert", "dim Der(H3(O,I))", 52, h3("O", (1, 1, 1)).alg),
        ("C01.der-albert-split", "dim Der(H3(O,diag(1,-1,1)))", 52, h3("O", (1, -1, 1)).alg),
        ("C01.der-m3r", "dim Der(M3R+)", 8, m3r().alg),
    ):
        out.append(_check(cid, desc, want, len(derivation_int_matrices(alg)[1])))
    out.append(_check("C01.dim-tits-o-m3r", "dim T(O, M3R)", 78, catalog.model("tits-o-m3r")[0].dim))
    out.append(
        _check("C01.dim-tits-rr-albert", "dim T(R+R, H3(O,I))", 78, catalog.model("tits-rr-albert")[0].dim)
    )
    out.append(
        _check(
            "C01.dim-tits-rr-albert-split",
            "dim T(R+R, H3(O,diag))",
            78,
            catalog.model("tits-rr-albert-split")[0].dim,
        )
    )
    return out


def group_jacobi():
    out = []
    for name in catalog.MODEL_NAMES:
        lie, _ = catalog.model(name)
        out.append(
            _check(f"C02.jacobi-{name}", f"Jacobi defect of {name}", 0, len(jacobi_certificate(lie.alg)))
        )
    return out


def group_jacobson():
    expected = {
        ("C", "albert"): -78,
        ("C", "albert-split"): -14,
        ("C", "splitalbert"): 2,
        ("RR", "albert"): -26,
        ("RR", "albert-split"): -26,
        ("RR", "splitalbert"): 6,
    }
    table = jacobson_table()
    out = []
    for key in sorted(expected):
        cname, jname = key
        out.append(
            _check(
                f"C03.sig-{cname.lower()}-{jname}",
                f"signature T({cname}, {jname})",
                expected[key],
                table[key],
            )
        )
    out.append(
        _check("C04.sig-tits-o-m3r", "signature T(O, M3R)", -26, catalog.model_signature("tits-o-m3r"))
    )
    return out


def group_constants():
    pc = proportionality_constants()
    out = [
        _check("C05.der-O-ratio", "Killing/trace on Der(O)", F(12), pc["c_der_C"]),
        _check("C05.der-M-ratio", "Killing/trace on Der(M)", F(8), pc["c_der_J"]),
        _check(
            "C05.tensor-alpha",
            "alpha in k(a x, b y) = alpha n(a,b) t_M(x.y)",
            F(-60),
            pc["alpha"],
        ),
        _check("C05.sp31-delta", "delta = k|sp(3,1) / own Killing", F(12, 5), pc["delta"]),
    ]
    dec = sp31_decomposition()
    out.append(_check("C06.even-dim", "dim of the theta*nu even part", 36, dec["even_dim"]))
    out.append(
        _check("C06.fix-theta-nu", "dim fix(theta) & fix(nu)", 24, dec["fix_theta_and_nu_dim"])
    )
    out.append(_check("C06.even-sig", "Killing signature of the even part", -12, dec["even_signature"]))
    tw = twist_signature_identity()
    out.append(_check("C06.twist-sign", "sign(L)", -26, tw["sign"]))
    out.append(_check("C06.twist-sign-minus", "sign(L^-1)", -78, tw["sign_twisted"]))
    out.append(_check("C06.twist-sign-even", "sign(K|even)", -52, tw["sign_even"]))
    out.append(
        _check_bool(
            "C06.twist-identity",
            "sign(L) + sign(L^-1) = 2 sign(K|even)",
            tw["identity_holds"],
        )
    )
    return out


def _grading_checks(name: str):
    meta = catalog.TABLE2[name]
    g, carrier, desc = catalog.grading(name)
    out = []
    rep = verify_grading(g)
    out.append(_check_bool(f"C07.{name}.verified", f"{name} direct sum + closure on {desc}", rep.valid))
    out.append(_check(f"C07.{name}.group", f"{name} universal group", meta["group"], g.group.name()))
    out.append(_check(f"C07.{name}.type", f"{name} type vector", meta["type"], type_vector(g)))
    out.append(
        _check(
            f"C08.{name}.e-dim",
            f"{name} identity component dimension",
            meta["e_dim"],
            g.dimension_of(g.group.identity()),
        )
    )
    viols = killing_orthogonality_violations(g, carrier)
    out.append(
        _check(f"C09.{name}.orthogonality", f"{name} K(L_g, L_h) = 0 off pairing", 0, len(viols))
    )
    bound = signature_bound(g, carrier)
    out.append(
        _check_bool(
            f"C10.{name}.bound",
            f"{name} |sign - dim L_e| <= {bound['d']} (sign {bound['sign']}, dim_e {bound['dim_e']})",
            bound["holds"],
        )
    )
    witt = graded_witt_basis(g, carrier)
    out.append(
        _check_bool(
            f"C10.{name}.witt",
            f"{name} graded Witt basis Gram certificate",
            witt["gram_ok"] and witt["signature"] == bound["sign"],
        )
    )
    return out


def group_gradings_tits():
    out = []
    for name in ("gamma4", "gamma7", "gamma8"):
        out.extend(_grading_checks(name))
    return out


def group_sp8():
    out = []
    out.append(_check_bool("C11.frame", "A_i C A_i^t = C, A2^2 = -I, A4^4 = I", e6sp8.frame_check()))
    out.append(_check("C11.eigen-type", "sp8 joint eigenspace type", (24, 6), e6sp8.eigenspace_type()))
    out.append(_check("C11.kerc-dim", "dim ker c", 42, len(e6sp8.kernel_c_basis())))
    out.append(
        _check("C11.fix-CA123", "dim fix Ad(C A1 A2 A3) on sp8", 24, e6sp8.fix_ad_c_a123_dim())
    )
    out.append(_check("C11.even-sig", "even-part signature of the model", 4, e6sp8.model_even_signature()))
    data = e6sp8.conjugated_form()
    out.append(_check("C11.conj-even-sig", "conjugated form even signature", -12, data["even_sig"]))
    out.append(
        _check(
            "C11.conj-pair",
            "conjugated {full, twisted} signatures",
            {-26, 2},
            {data["full_sig"], data["twisted_sig"]},
        )
    )
    out.append(
        _check(
            "C11.conj-sum",
            "full + twisted = 2 * even",
            -24,
            data["full_sig"] + data["twisted_sig"],
        )
    )
    out.append(
        _check_bool(
            "C11.dot-group",
            "<A., theta> is Z4 x Z2^4 of order 64",
            e6sp8.dot_group_order_data()["is_z4_x_z2_4"],
        )
    )
    out.extend(_grading_checks("gamma11"))
    return out


def group_chevalley():
    cb = chevalley.e6_chevalley()
    out = []
    out.append(_check("C12.roots", "number of roots", 72, 2 * len(cb.roots.positive)))
    out.append(_check("C12.split-sig", "split form signature", 6, chevalley.split_signature(cb)))
    _, dfo = fixed_subspace(chevalley.omega(cb))
    out.append(_check("C12.fix-omega", "dim fix(omega)", 36, dfo))
    inh = cb.inheriting_signatures()
    all36 = all(r["dim_fix_omega_t"] == 36 for r in inh["rows"])
    out.append(_check_bool("C12.fix-omega-t", "dim fix(omega t) = 36 for all 64 t", all36))
    out.append(
        _check("C12.fix-t-values", "dim fix(t) values over t != id", [38, 46], inh["fix_t_values"])
    )
    out.append(
        _check(
            "C12.inheriting-set",
            "signatures inheriting the Z2^7 grading",
            [-78, -14, 2, 6],
            inh["signatures"],
        )
    )
    out.append(_check_bool("C12.no-minus26", "-26 absent", not inh["contains_minus_26"]))
    out.extend(_grading_checks("gamma13"))
    return out


def group_carriers():
    out = []
    for name in ("gamma4", "gamma7", "gamma8", "gamma11"):
        out.append(
            _check(
                f"C13.{name}.carrier-sig",
                f"{name} carrier has signature -26",
                -26,
                catalog.grading_carrier_signature(name),
            )
        )
    out.append(
        _check(
            "C13.gamma13.carrier-sig",
            "gamma13 carrier is the split form (not -26)",
            6,
            catalog.grading_carrier_signature("gamma13"),
        )
    )
    inh = chevalley.e6_chevalley().inheriting_signatures()
    out.append(_check_bool("C13.gamma13.excludes-minus26", "-26 does not inherit the Z2^7 grading", not inh["contains_minus_26"]))
    return out


GROUPS = {
    "dimensions": group_dimensions,
    "jacobi": group_jacobi,
    "jacobson": group_jacobson,
    "constants": group_constants,
    "gradings-tits": group_gradings_tits,
    "sp8": group_sp8,
    "chevalley": group_chevalley,
    "carriers": group_carriers,
}


@linalg.acyclic
def run_all():
    """All checks, sorted by id."""
    results = []
    for group in GROUPS.values():
        results.extend(group())
    return sorted(results, key=lambda c: c.id)


def report_document(results) -> dict:
    """Canonical machine-readable report (no timing, fixed ordering)."""
    return {
        "checks": [asdict(c) for c in results],
        "failed": [c.id for c in results if not c.passed],
        "total": len(results),
        "all_passed": all(c.passed for c in results),
    }


def render_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


CRITERIA = {
    "C01": "dimensions of the derivation algebras and Tits models",
    "C02": "Jacobi defect empty for every constructed Lie algebra",
    "C03": "signature table over the 2-dimensional composition algebras",
    "C04": "signature of T(O, M3R) is -26",
    "C05": "Killing proportionality constants",
    "C06": "quaternionic decomposition and twist identity",
    "C07": "grading verification and Table-2 types",
    "C08": "identity-component dimensions",
    "C09": "Killing orthogonality across degrees",
    "C10": "signature bound and graded Witt basis",
    "C11": "symplectic model battery",
    "C12": "Chevalley battery and inheritance enumeration",
    "C13": "the four gradings live on -26 carriers; Z2^7 does not",
    "C14": "fresh-process verify-all --json is byte-identical",
}


def criterion_lines(results):
    """(criterion id, description, passed, failing sub-ids) per criterion."""
    by_crit = {}
    for c in results:
        key = c.id.split(".")[0]
        by_crit.setdefault(key, []).append(c)
    out = []
    for key in sorted(by_crit):
        checks = by_crit[key]
        ok = all(c.passed for c in checks)
        out.append(
            (
                key,
                CRITERIA.get(key, ""),
                ok,
                [c.id for c in checks if not c.passed],
            )
        )
    return out
