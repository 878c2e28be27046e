"""Record golden.json from the current source tree.

    python3 perfbench/record_golden.py

Run it only at a commit whose outputs are known to be right: it writes what
the program computes now.  The battery's failed list is not recorded here;
run.py asserts it as published (EXPECTED_FAILED).
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    cache = run.ROOT / ".bench_build" / "perfbench" / run.source_key()
    build = run.ensure_build(cache)
    golden = {
        "build": {k: build[k] for k in ("battery_sha256", "battery_exit", "battery_total", "fixtures")},
        "outputs": {},
    }
    for workload in run.WORKLOADS:
        _, line = run.run_child(["round", workload, "1", "0", str(cache)], run.Deadline(run.RUN_DEADLINE_S))
        golden["outputs"][workload] = json.loads(line)["outputs"]
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
