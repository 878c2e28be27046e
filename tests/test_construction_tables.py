"""A byte-identity guard for the construction tables.

The dump is `repr(list(sc.items()))` of the seven catalog `tits_model`
tables, of `derivation_algebra(.).sc` on O, M3R, H3(O, I),
H3(O, diag(1, -1, 1)) and H3(Os, I), and of `assemble_e6().lie.alg.sc`,
joined by newlines: values, key order and entry types.  Its length and
sha256 were recorded before the Der(A) tables were read on a few basis
vectors and the C pairing on int matrices, and a change to how a table is
built must leave them as they are.
"""

import hashlib

from e6lab.algcore import derivation_algebra
from e6lab.composition import hurwitz
from e6lab.e6sp8 import assemble_e6
from e6lab.jordan import h3, m3r
from e6lab.tits import tits_model

TITS = [
    ("O", "m3r"),
    ("RR", "albert"),
    ("RR", "albert-split"),
    ("C", "albert"),
    ("C", "albert-split"),
    ("RR", "splitalbert"),
    ("C", "splitalbert"),
]
DUMP_BYTES = 1_533_468
DUMP_SHA256 = "bf22c3873c12db1fcbbc9ba3e3ad0672a1138c04bb07729ed9f83a1918f8ee60"


def test_construction_tables_are_byte_identical():
    tables = [tits_model(c, j).lie.alg.sc for c, j in TITS]
    ders = [hurwitz("O"), m3r(), h3("O", (1, 1, 1)), h3("O", (1, -1, 1)), h3("Os", (1, 1, 1))]
    tables += [derivation_algebra(x.alg).sc for x in ders]
    tables.append(assemble_e6().lie.alg.sc)
    dump = "\n".join(repr(list(sc.items())) for sc in tables).encode()
    assert (len(dump), hashlib.sha256(dump).hexdigest()) == (DUMP_BYTES, DUMP_SHA256)
