"""Canonical model and grading registry.

One place that knows how to build every named model and every flagship
grading on its canonical carrier.  Models come from the cached builders
(`tits_model`, `assemble_e6`, `e6_chevalley`) and gradings are cached here,
so the CLI, the verification engine and the test suite share work.
"""

from __future__ import annotations

from functools import lru_cache

from . import chevalley as chev
from . import e6sp8
from .composition import hurwitz, octonion_z23_grading
from .gradings import (
    FinAbGroup,
    GradedDecomposition,
    combine,
    common_refinement,
)
from .jordan import h3, jordan_gradings, m3r
from .tits import JORDAN_INGREDIENTS, derj_model, tits_model

MODEL_NAMES = (
    "tits-o-m3r",
    "tits-rr-albert",
    "tits-rr-albert-split",
    "tits-c-albert",
    "tits-c-albert-split",
    "tits-rr-splitalbert",
    "tits-c-splitalbert",
    "sp8-e6",
    "chevalley-e6",
)

GRADING_NAMES = ("gamma4", "gamma7", "gamma8", "gamma11", "gamma13")

TABLE2 = {
    "gamma4": {"group": "Z^2 x Z2^3", "type": (48, 1, 0, 7), "e_dim": 2},
    "gamma7": {"group": "Z2^6", "type": (48, 1, 0, 7), "e_dim": 0},
    "gamma8": {"group": "Z x Z2^4", "type": (57, 0, 7), "e_dim": 1},
    "gamma11": {"group": "Z4 x Z2^4", "type": (48, 13, 0, 1), "e_dim": 0},
    "gamma13": {"group": "Z2^7", "type": (72, 0, 0, 0, 0, 1), "e_dim": 0},
}


def _tits_name_parts(name: str):
    rest = name[len("tits-") :]
    cname, jname = rest.split("-", 1)
    return {"rr": "RR", "c": "C", "o": "O"}[cname], jname


def model(name: str):
    """(LieAlgebra, provenance dict) for a catalog model name."""
    if name not in MODEL_NAMES:
        raise KeyError(f"unknown model {name!r}")
    if name == "sp8-e6":
        m = e6sp8.assemble_e6()
        return m.lie, dict(m.provenance)
    if name == "chevalley-e6":
        cb = chev.e6_chevalley()
        return cb.lie, {"construction": "chevalley", "root_system": "E6"}
    cname, jname = _tits_name_parts(name)
    t = tits_model(cname, jname)
    return t.lie, dict(t.provenance)


def model_signature(name: str) -> int:
    lie, _ = model(name)
    return lie.killing_inertia().signature


def rr_z2_grading() -> GradedDecomposition:
    """The even/odd split of R+R: 1 even, s odd."""
    rr = hurwitz("RR")
    return GradedDecomposition(
        group=FinAbGroup(0, (2,)),
        algebra=rr.alg,
        components={
            (0,): [rr.alg.basis_vector(0)],
            (1,): [rr.alg.basis_vector(1)],
        },
    )


@lru_cache(maxsize=None)
def grading(name: str):
    """(GradedDecomposition, carrier LieAlgebra, carrier description)."""
    if name == "gamma4":
        t = tits_model("O", "m3r")
        g = combine(
            octonion_z23_grading(), jordan_gradings(m3r())["z^2"], t
        )
        return g, t.lie, "tits-o-m3r"
    if name in ("gamma7", "gamma8"):
        t = derj_model("albert-split")
        jg = jordan_gradings(h3(*JORDAN_INGREDIENTS["albert-split"]))
        if name == "gamma7":
            fine_j = common_refinement(jg["z2^2"], jg["z2^3"])
        else:
            fine_j = common_refinement(jg["z"], jg["z2^3"])
        g = combine(rr_z2_grading(), fine_j, t)
        return g, t.lie, "derj+j0(albert-split)"
    if name == "gamma11":
        carrier, data = e6sp8.minus26_carrier()
        g = e6sp8.gamma11()
        return g, carrier, "sp8-e6 conjugated (-26 member)"
    if name == "gamma13":
        cb = chev.e6_chevalley()
        return chev.gamma13(cb), cb.lie, "chevalley-e6 (split)"
    raise KeyError(f"unknown grading {name!r}")


def grading_carrier_signature(name: str) -> int:
    _, carrier, _ = grading(name)
    return carrier.killing_inertia().signature
