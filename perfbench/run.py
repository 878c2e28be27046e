"""The e6lab benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload battery|certify|solve|wide \
        --seed N --seconds S --trace 0|1

Run it from the root of a source tree; the package is imported from ./src.
The first run in a tree builds: it runs the full cold `verify-all` battery
once and exports the fixture documents the other workloads load, under
.bench_build/perfbench/.  Every round runs in a fresh single-threaded child
process (perfbench/child.py), because every cache in e6lab is per process.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones, with --trace 1
the per-layer ones.  Every output is checked against golden.json; the run
exits 1 after printing if any output differs.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
# A run must end within 180 s, or 900 s when it has to build first.
BUILD_TIMEOUT_S = 700
RUN_DEADLINE_S = 170
FIRST_RUN_DEADLINE_S = 880

# The one red check, asserted exactly as published (-60 against the exact
# -144).  It is never edited to make the battery green.
EXPECTED_FAILED = ["C05.tensor-alpha"]

WORKLOADS = ("battery", "certify", "solve", "wide")
# Set-up-only child processes per run, on top of one discarded warm-up.
SETUP_SAMPLES = 4

# Spans each workload must fire; a rename then fails the traced run loudly
# instead of reporting a silent zero.
EXPECTED_SPANS = {
    "battery": (
        "cli.cmd_verify_all", "verify.group.constants", "verify.group.sp8",
        "tits.tits", "tits.proportionality_constants", "tits.sp31_decomposition",
        "tits.derj_j0_model", "composition.hurwitz", "jordan.h3",
        "e6sp8.assemble_e6", "e6sp8.conjugated_form", "catalog.grading",
        "algcore.jacobi_defect", "algcore.killing_matrix", "algcore.inertia",
        "gradings.verify", "gradings.graded_witt_basis", "linalg.rref",
    ),
    "certify": (
        "algcore.jacobi_defect", "algcore.killing_matrix",
        "algcore.StructAlgebra.int_tensor", "algcore.inertia",
        "linalg.congruence_inertia", "linalg.congruence_diagonalize",
        "linalg.mat_inverse", "linalg.SpanSolver", "linalg.rref",
        "gradings.verify", "gradings.killing_orthogonality_violations",
        "gradings.signature_bound", "gradings.graded_witt_basis",
    ),
    "solve": (
        "algcore.derivations", "linalg.IntKernelAccumulator",
        "algcore.fixed_subspace", "linalg.kernel", "linalg.rref",
        "linalg.mat_mul", "algcore.is_monomial_automorphism",
        "algcore.is_diagonal_automorphism", "chevalley.omega",
        "chevalley.inheriting_signatures", "algcore.killing_matrix",
        "algcore.inertia", "linalg.SpanSolver",
    ),
    "wide": (
        "algcore.jacobi_defect", "algcore.killing_matrix",
        "algcore.StructAlgebra.int_tensor", "algcore.inertia",
        "linalg.congruence_inertia",
    ),
}
BATTERY_COUNTS = ("chevalley.omega", "algcore.jacobi_defect")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def source_key() -> str:
    """Hash of the package source and of the benchmark's build code."""
    h = hashlib.sha256()
    files = sorted(SRC.glob("e6lab/*.py")) + [CHILD, HERE / "spans.py"]
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def child_env():
    env = dict(os.environ)
    env.pop("E6_THREADS", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline passed")
        return left


def run_child(args, deadline: Deadline):
    """Start child.py; return (seconds until READY or None, last stdout line).

    The child is killed if the deadline passes, so a hung round cannot hold
    the run past its time limit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-u", str(CHILD), *args],
        stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), text=True,
    )
    timer = threading.Timer(deadline.left(), proc.kill)
    timer.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args[:2])} exited with {proc.returncode}")
    return ready, (lines[-1] if lines else "")


def ensure_build(cache: Path) -> dict:
    stamp = cache / "build.json"
    if stamp.exists():
        return json.loads(stamp.read_text())
    cache.mkdir(parents=True, exist_ok=True)
    _, line = run_child(["build", str(cache)], Deadline(BUILD_TIMEOUT_S))
    build = json.loads(line)
    tmp = cache / "build.json.tmp"
    tmp.write_text(json.dumps(build, sort_keys=True))
    tmp.replace(stamp)
    return build


def check_build(build, golden):
    """(attempted, failures) for the full battery and the fixture documents."""
    want = dict(golden["build"])
    want["battery_failed"] = EXPECTED_FAILED
    got = {k: build[k] for k in want if k != "fixtures"}
    failures = [k for k in got if got[k] != want[k]]
    fx_want, fx_got = want["fixtures"], build["fixtures"]
    failures += [f"fixture {n}" for n in sorted(set(fx_want) | set(fx_got)) if fx_want.get(n) != fx_got.get(n)]
    return len(got) + len(fx_want), failures


def check_outputs(outputs, golden):
    """(attempted, failures) for one round's outputs against golden values."""
    failures = [k for k in sorted(set(outputs) | set(golden)) if outputs.get(k) != golden.get(k)]
    return len(golden), failures


def environment(cache: Path):
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": cache.name,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "E6_THREADS_found": os.environ.get("E6_THREADS"),
    }


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def layer_metrics(traced, untraced, build):
    """Per-layer metrics from the traced rounds of one run."""
    from spans import GROUP_PREFIX, SPANS

    wall = sum(r["wall_s"] for r in traced)
    n = len(traced)
    names = list(SPANS) + [k for k in traced[0]["trace"] if k.startswith(GROUP_PREFIX)]
    tot = {}
    for name in names:
        agg = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "units": 0, "hits": 0}
        for r in traced:
            for key in agg:
                agg[key] += r["trace"][name][key]
        tot[name] = agg
    m = {}
    for name in SPANS:
        m[f"{name}.calls"] = (tot[name]["calls"] / n, "count")
        m[f"{name}.self_pct"] = (100.0 * tot[name]["self_s"] / wall, "%")
    for name in names[len(SPANS):]:
        m[f"{name}.total_pct"] = (100.0 * tot[name]["total_s"] / wall, "%")
    jac = tot["algcore.jacobi_defect"]
    ver = tot["gradings.verify"]
    it = tot["algcore.StructAlgebra.int_tensor"]
    m["algcore.jacobi_defect.triples_per_s"] = (jac["units"] / jac["self_s"] if jac["self_s"] else 0.0, "1/s")
    m["gradings.verify.pairs_per_s"] = (ver["units"] / ver["self_s"] if ver["self_s"] else 0.0, "1/s")
    m["algcore.int_tensor.fast_frac"] = (it["hits"] / it["calls"] if it["calls"] else 0.0, "ratio")
    for name in BATTERY_COUNTS:
        m[f"full_battery.{name}.calls"] = (build["battery_calls"][name], "count")
    m["trace.overhead_s"] = (
        statistics.median(r["wall_norm_s"] for r in traced)
        - statistics.median(r["wall_norm_s"] for r in untraced),
        "s",
    )
    return m, tot


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "e6lab" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'e6lab'}; run from the root of a source tree", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    load_before = loadavg()
    t_begin = time.monotonic()
    cache = ROOT / ".bench_build" / "perfbench" / source_key()
    try:
        build = ensure_build(cache)
        deadline = Deadline(min(RUN_DEADLINE_S, FIRST_RUN_DEADLINE_S - (time.monotonic() - t_begin)))
        child_args = lambda role, traced: [role, args.workload, str(args.seed), traced, str(cache)]
        run_child(child_args("setup", "0"), deadline)  # warm-up, discarded
        setups = [run_child(child_args("setup", "0"), deadline) for _ in range(SETUP_SAMPLES)]
        untraced, traced = [], []
        round_s = []
        t_start = time.perf_counter()
        # Rounds run back to back while the next one is expected to end no
        # more than half a round after --seconds, so a run measures about
        # --seconds whatever the round length.
        while True:
            t_round = time.perf_counter()
            setups.append(run_child(child_args("round", "0"), deadline))
            untraced.append(json.loads(setups[-1][1]))
            if args.trace:
                traced.append(json.loads(run_child(child_args("round", "1"), deadline)[1]))
            round_s.append(time.perf_counter() - t_round)
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(round_s) / 2 > args.seconds:
                break
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    setup_raw = [ready for ready, _ in setups]
    setup_speed = [json.loads(line)["setup_speed"] for _, line in setups]
    attempted, failures = check_build(build, golden)
    for r in untraced + traced:
        a, f = check_outputs(r["outputs"], golden["outputs"][args.workload])
        attempted += a
        failures += [f"{args.workload}: {k}" for k in f]
    for r in traced:
        attempted += 1
        if r["outputs"] != untraced[0]["outputs"]:
            failures.append("traced outputs differ from untraced outputs")
    env = environment(cache)
    env["loadavg_before"], env["loadavg_after"] = load_before, loadavg()
    env["seed"], env["workload"], env["rounds"] = args.seed, args.workload, len(untraced)

    if args.trace:
        metrics, tot = layer_metrics(traced, untraced, build)
        silent = [s for s in EXPECTED_SPANS[args.workload] if tot[s]["calls"] == 0]
        if silent:
            print(f"spans never fired on {args.workload}: {', '.join(silent)}", file=sys.stderr)
            return 2
        print("per traced round, by self time: span, self s, total s, calls")
        n = len(traced)
        for name, agg in sorted(tot.items(), key=lambda kv: -kv[1]["self_s"]):
            if agg["calls"]:
                print(f"  {name:48s} {agg['self_s'] / n:9.3f} {agg['total_s'] / n:9.3f} {agg['calls'] / n:9.0f}")
    else:
        metrics = {
            "wall_norm_s": (statistics.median(r["wall_norm_s"] for r in untraced), "s"),
            # One calibration sample is noisier than a set-up, so the median
            # set-up is scaled by the median speed, not each by its own.
            "setup_s": (statistics.median(setup_raw) * statistics.median(setup_speed), "s"),
            "cpu_norm_s": (statistics.median(r["cpu_norm_s"] for r in untraced), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
    print("environment: " + json.dumps(env, sort_keys=True))
    for f in failures:
        print(f"MISMATCH {f}")
    print(
        f"{args.workload} mismatch_frac = {len(failures) / attempted:.6g} ratio"
        f" ({len(failures)} of {attempted} outputs checked)"
    )
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} untraced rounds: {len(untraced)}")
    raw = {
        "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in untraced), "s"),
        "setup_raw_s": (statistics.median(setup_raw), "s"),
        "host_speed": (statistics.median(r["wall_norm_s"] / r["wall_s"] for r in untraced), "ratio"),
    }
    for name, (value, unit) in raw.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (as measured, median)")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
