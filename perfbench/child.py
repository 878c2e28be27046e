"""One benchmark process: build, set up one workload, or run one timed round.

run.py starts this file with ``PYTHONPATH=src`` in a fresh interpreter for
every round, because every cache in e6lab (20 lru_caches and
``gradings._span_algebra_cache``) lives for the life of the process.  A round
prints ``READY`` once its set-up is done, then one JSON line with its timing
and its outputs; a set-up child stops after the host speed that scales its
set-up time.  run.py compares the outputs with golden.json.

    python3 perfbench/child.py build CACHE_DIR
    python3 perfbench/child.py setup|round WORKLOAD SEED TRACE CACHE_DIR
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import resource
import signal
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

import spans

# The battery round: verify-all's own code path (cli -> run_all -> report)
# over these check groups, in the program's order.  The full battery runs once
# per checkout in `build` and is checked there.
BATTERY_GROUPS = ("constants", "sp8")
# A Tits and a Chevalley model, and the grading on the symplectic carrier:
# about 6 s a round at full speed, split between Jacobi/Killing and the graded
# Fraction loops much as in the full battery.
CERTIFY_MODELS = ("tits-o-m3r", "chevalley-e6")
CERTIFY_GRADINGS = ("gamma11",)
SOLVE_ALGEBRAS = {
    "O": ("O", None),
    "albert": ("O", (1, 1, 1)),
    "albert-split": ("O", (1, -1, 1)),
    "splitalbert": ("Os", (1, 1, 1)),
    "m3r": (None, None),
}
# One model per construction family plus the compact Tits form: about 3 s a
# round at full speed, so a run gets two or more rounds.
WIDE_MODELS = ("tits-o-m3r", "tits-c-albert", "sp8-e6", "chevalley-e6")
# Rescaling primes for `wide`: all of one bit length, so every seed does the
# same amount of big-integer work.
WIDE_PRIME_BITS = 31


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def plain(x):
    """JSON-able form of an output: exact scalars as strings."""
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(plain(v) for v in x)
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    return str(x)  # Fraction, GaussRational


def digest(x) -> str:
    return hashlib.sha256(canonical(plain(x))).hexdigest()


# ---------------------------------------------------------------------------
# host-speed calibration
#
# The reference box switches between a fast state and one about 1.8 times
# slower, often within a second, and the mix drifts over minutes (README.md,
# "Host-speed calibration").  A round therefore stops every CALIBRATE_EVERY_S,
# from a timer signal, to time a fixed piece of work in the same process; each
# stretch of the round is scaled by the samples at its ends to seconds at full
# speed, and the samples' own time is left out.  The work is the two kinds
# e6lab does: Fraction sums in Python loops and int64 matrix products in
# numpy.  It does not call e6lab, so no change to the package can change it.

CALIBRATE_FRACTIONS = 10_000
CALIBRATE_PRODUCTS = 100
_CALIBRATE_MATRIX = (np.arange(78 * 78, dtype=np.int64).reshape(78, 78) % 7) - 3
# calibrate() at full speed on the reference box.
CALIBRATE_REF_S = 0.05
CALIBRATE_EVERY_S = 1.0


def calibrate() -> float:
    """Seconds taken by the fixed calibration work."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, CALIBRATE_FRACTIONS):
        s += Fraction(1, i % 97 + 1)
    a = _CALIBRATE_MATRIX
    for _ in range(CALIBRATE_PRODUCTS):
        a @ a
    return time.perf_counter() - t0


class Meter:
    """Calibration samples of one round, with the clocks around each."""

    def __init__(self):
        self.marks = []  # (wall, cpu before; calibration seconds; wall, cpu after)

    def sample(self, *_signal_args):
        wall, cpu = time.perf_counter(), cpu_now()
        seconds = calibrate()
        self.marks.append((wall, cpu, seconds, time.perf_counter(), cpu_now()))

    def speed(self, i, j):
        """Host speed from samples i and j: 1.0 at full speed."""
        return 2 * CALIBRATE_REF_S / (self.marks[i][2] + self.marks[j][2])

    def times(self):
        """Wall and CPU seconds of the work between the samples, as measured
        and at full speed.  Each stretch is scaled by the samples at its ends."""
        out = dict.fromkeys(("wall_s", "cpu_s", "wall_norm_s", "cpu_norm_s"), 0.0)
        for k, (a, b) in enumerate(zip(self.marks, self.marks[1:])):
            wall, cpu, speed = b[0] - a[3], b[1] - a[4], self.speed(k, k + 1)
            out["wall_s"] += wall
            out["cpu_s"] += cpu
            out["wall_norm_s"] += wall * speed
            out["cpu_norm_s"] += cpu * speed
        return out


# ---------------------------------------------------------------------------
# build: the full cold battery plus the fixture documents, once per checkout


def fixture_documents():
    """name -> canonical document, exported from the catalog's own builds."""
    from e6lab import catalog, jordan
    from e6lab.algcore import algebra_to_json
    from e6lab.composition import hurwitz
    from e6lab.gradings import grading_to_json

    docs = {}
    for name in catalog.MODEL_NAMES:
        lie, provenance = catalog.model(name)
        docs[f"model-{name}"] = algebra_to_json(lie.alg, provenance=provenance)
    for name in catalog.GRADING_NAMES:
        g, carrier, desc = catalog.grading(name)
        docs[f"grading-{name}"] = {
            "carrier": algebra_to_json(carrier.alg, provenance={"carrier": desc}),
            "grading": grading_to_json(g),
        }
    for name, (comp, gamma) in SOLVE_ALGEBRAS.items():
        if comp is None:
            alg = jordan.m3r().alg
        elif gamma is None:
            alg = hurwitz(comp).alg
        else:
            alg = jordan.h3(comp, gamma).alg
        docs[f"solve-{name}"] = algebra_to_json(alg)
    return docs


def build(cache_dir: Path) -> dict:
    from e6lab import cli

    # The counts are a by-product; a renamed span must not stop the build,
    # only the traced runs.
    try:
        tracer = spans.install()
    except spans.TraceError as exc:
        print(f"build runs untraced: {exc}", file=sys.stderr)
        tracer = None
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["verify-all", "--json", "--no-self-check"])
    report = out.getvalue().encode()
    doc = json.loads(report)
    fixtures = {}
    fdir = cache_dir / "fixtures"
    fdir.mkdir(parents=True, exist_ok=True)
    for name, fdoc in fixture_documents().items():
        data = canonical(fdoc)
        (fdir / f"{name}.json").write_bytes(data)
        fixtures[name] = hashlib.sha256(data).hexdigest()
    calls = {k: v["calls"] for k, v in tracer.summary().items()} if tracer else None
    return {
        "battery_sha256": hashlib.sha256(report).hexdigest(),
        "battery_exit": code,
        "battery_failed": doc["failed"],
        "battery_total": doc["total"],
        "battery_calls": calls,
        "fixtures": fixtures,
    }


# ---------------------------------------------------------------------------
# fixtures


def load_doc(cache_dir: Path, name: str):
    return json.loads((cache_dir / "fixtures" / f"{name}.json").read_bytes())


def load_lie(doc):
    from e6lab.algcore import LieAlgebra, algebra_from_json

    return LieAlgebra(algebra_from_json(doc), check_jacobi=False)


def load_grading(cache_dir: Path, name: str):
    from e6lab.gradings import grading_from_json

    doc = load_doc(cache_dir, f"grading-{name}")
    lie = load_lie(doc["carrier"])
    return grading_from_json(doc["grading"], lie.alg), lie


def load_chevalley(cache_dir: Path):
    """ChevalleyBasis on the exported structure constants (no rebuild)."""
    from e6lab import chevalley

    lie = load_lie(load_doc(cache_dir, "model-chevalley-e6"))
    rs = chevalley.e6_roots()
    chains = [chevalley.chain_for(rs, alpha) for alpha in rs.positive]
    return chevalley.ChevalleyBasis(lie=lie, roots=rs, chains=chains)


def rescaled(lie, primes):
    """The same algebra on the basis p_i b_i: c'_ij^k = c_ij^k p_i p_j / p_k."""
    from e6lab.algcore import LieAlgebra, StructAlgebra

    alg = lie.alg
    sc = {
        (i, j): {k: v * primes[i] * primes[j] / primes[k] for k, v in row.items()}
        for (i, j), row in alg.sc.items()
    }
    return LieAlgebra(
        StructAlgebra(field=alg.field, dim=alg.dim, basis_labels=list(alg.basis_labels), sc=sc),
        check_jacobi=False,
    )


def seeded_primes(rng: random.Random, count: int, bits: int):
    """`count` distinct primes of exactly `bits` bits (Miller-Rabin, fixed bases)."""
    def is_prime(n):
        if n % 2 == 0:
            return False
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True

    out = set()
    while len(out) < count:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(n):
            out.add(n)
    return sorted(out, key=lambda p: rng.random())


# ---------------------------------------------------------------------------
# workloads: setup returns the round's items as callables.  An item returns
# {output name: value}; a value that is a callable is evaluated after
# the timed region, so digests and cross-checks are not timed.


def finalize(raw: dict) -> dict:
    """The outputs as compared with golden.json."""
    return {k: v() if callable(v) else plain(v) for k, v in raw.items()}


def model_certificates(name, lie):
    """Jacobi defect and Killing inertia; also returns the Killing matrix."""
    from e6lab.algcore import inertia, jacobi_defect, killing_matrix

    defect = jacobi_defect(lie.alg)
    k = killing_matrix(lie)
    r = inertia(k)
    return {
        f"{name}.jacobi_defect": defect,
        f"{name}.inertia": [r.n_plus, r.n_minus, r.n_zero],
    }, k


def setup_battery(cache_dir, seed):
    from e6lab import cli, verify

    groups = {name: verify.GROUPS[name] for name in BATTERY_GROUPS}
    verify.GROUPS.clear()
    verify.GROUPS.update(groups)

    def run():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["verify-all", "--json", "--no-self-check"])
        report = out.getvalue()
        doc = json.loads(report)
        return {
            "battery.sha256": lambda: hashlib.sha256(report.encode()).hexdigest(),
            "battery.exit": code,
            "battery.failed": doc["failed"],
            "battery.total": doc["total"],
        }

    return [run]


def setup_certify(cache_dir, seed):
    from e6lab.gradings import (
        graded_witt_basis,
        killing_orthogonality_violations,
        signature_bound,
        verify,
    )

    items = []
    for name in CERTIFY_MODELS:
        lie = load_lie(load_doc(cache_dir, f"model-{name}"))

        def run(lie=lie, name=name):
            out, k = model_certificates(name, lie)
            out[f"{name}.killing_sha256"] = lambda: digest(k)
            return out

        items.append(run)
    for name in CERTIFY_GRADINGS:
        g, lie = load_grading(cache_dir, name)

        def run(g=g, lie=lie, name=name):
            rep = verify(g)
            viol = killing_orthogonality_violations(g, lie)
            bound = signature_bound(g, lie)
            witt = graded_witt_basis(g, lie)
            return {
                f"{name}.verify": [rep.direct_sum_ok, rep.closure_ok, len(rep.violations)],
                f"{name}.orthogonality_violations": viol,
                f"{name}.signature_bound": bound,
                f"{name}.witt": [witt["signature"], witt["gram_ok"]],
                f"{name}.witt_sha256": lambda: digest([witt["hyperbolic_pairs"], witt["diagonal"]]),
            }

        items.append(run)
    random.Random(seed).shuffle(items)
    return items


def rescaled_killing_ok(lie, p, k_wide) -> bool:
    """K' = D K D with D = diag(p), against the Killing form of the original."""
    from e6lab.algcore import killing_matrix

    k = killing_matrix(lie)
    n = lie.dim
    return all(k_wide[i][j] == k[i][j] * p[i] * p[j] for i in range(n) for j in range(n))


def setup_wide(cache_dir, seed):
    rng = random.Random(seed)
    items = []
    for name in WIDE_MODELS:
        lie = load_lie(load_doc(cache_dir, f"model-{name}"))
        primes = seeded_primes(rng, lie.dim, WIDE_PRIME_BITS)
        wide = rescaled(lie, primes)

        def run(lie=lie, wide=wide, primes=primes, name=name):
            out, k = model_certificates(name, wide)
            out[f"{name}.killing_rescaled_ok"] = lambda: rescaled_killing_ok(lie, primes, k)
            return out

        items.append(run)
    rng.shuffle(items)
    return items


def setup_solve(cache_dir, seed):
    from e6lab import chevalley, e6sp8
    from e6lab.algcore import algebra_from_json, derivations, fixed_subspace
    from e6lab.scalars import QQ

    items = []
    for name in SOLVE_ALGEBRAS:
        alg = algebra_from_json(load_doc(cache_dir, f"solve-{name}"))

        def run(alg=alg, name=name):
            basis = derivations(alg)
            return {
                f"derivations.{name}.dim": len(basis),
                f"derivations.{name}.sha256": lambda: digest(basis),
            }

        items.append(run)
    cb = load_chevalley(cache_dir)

    def inheriting():
        inh = chevalley.inheriting_signatures(cb)
        return {
            "inheriting.signatures": inh["signatures"],
            "inheriting.fix_t_values": inh["fix_t_values"],
            "inheriting.contains_minus_26": inh["contains_minus_26"],
            "inheriting.rows_sha256": lambda: digest(inh["rows"]),
        }

    def fix_omega():
        basis, dim = fixed_subspace(chevalley.omega(cb), QQ)
        return {"fix_omega.dim": dim, "fix_omega.sha256": lambda: digest(basis)}

    def kernel_c():
        basis = e6sp8.kernel_c_basis()
        return {"kernel_c.dim": len(basis), "kernel_c.sha256": lambda: digest(basis)}

    items += [
        inheriting,
        fix_omega,
        lambda: {"split_signature": chevalley.split_signature(cb)},
        kernel_c,
        lambda: {"fix_ad_c_a123_dim": e6sp8.fix_ad_c_a123_dim()},
        lambda: {"dot_group": e6sp8.dot_group_order_data()},
    ]
    random.Random(seed).shuffle(items)
    return items


SETUP = {
    "battery": setup_battery,
    "certify": setup_certify,
    "solve": setup_solve,
    "wide": setup_wide,
}


# ---------------------------------------------------------------------------


def cpu_now() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def check_source(src: Path):
    import e6lab

    where = Path(e6lab.__file__).resolve().parent
    if where != (src / "e6lab").resolve():
        raise RuntimeError(f"e6lab imported from {where}, not from {src}")


def main(argv) -> int:
    role = argv[0]
    if role == "build":
        cache_dir = Path(argv[1])
        check_source(Path("src"))
        result = build(cache_dir)
        print(json.dumps(result, sort_keys=True))
        return 0
    workload, seed, traced, cache_dir = argv[1], int(argv[2]), argv[3] == "1", Path(argv[4])
    check_source(Path("src"))
    tracer = spans.install() if traced else None
    items = SETUP[workload](cache_dir, seed)
    print("READY", flush=True)
    meter = Meter()
    # The first sample also scales the set-up time run.py has just measured.
    meter.sample()
    if role == "setup":
        print(json.dumps({"setup_speed": meter.speed(0, 0)}), flush=True)
        return 0
    raw = {}
    if tracer:
        tracer.reset()
    # The timed region is the work between the first sample and the last.
    # A sample inside a span counts in no span.
    signal.signal(signal.SIGALRM, tracer.exclude(meter.sample) if tracer else meter.sample)
    signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
    for run in items:
        raw.update(run())
    signal.setitimer(signal.ITIMER_REAL, 0)
    meter.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = None
    if tracer:
        summary = tracer.summary()
        tdir = cache_dir / "spans"
        tdir.mkdir(parents=True, exist_ok=True)
        tracer.dump(tdir / f"{workload}-seed{seed}.json")
    outputs = finalize(raw)
    result = {
        **meter.times(),
        "setup_speed": meter.speed(0, 0),
        "peak_rss_mb": rss_mb,
        "outputs": outputs,
        "trace": summary,
    }
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
