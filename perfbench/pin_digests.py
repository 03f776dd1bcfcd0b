"""Write digests.json: the exit code and report sha256 of every call, per seed.

    python3 perfbench/pin_digests.py

Run it at the commit whose reports are the reference. Calls run in-process at
MANIP_TASKS=1; the benchmark checks that 2-task runs give the same bytes.
"""
from __future__ import annotations

import json
import os
import sys

os.environ["MANIP_TASKS"] = "1"

import run  # noqa: E402  (sets up the import path)
import workloads  # noqa: E402
from worker import run_call  # noqa: E402

# Seeds whose reports are pinned; other seeds are recorded but not checked.
SEEDS = range(32)


def pin(workload: str, seed: int) -> dict:
    return {call.label: [res["rc"], res["sha256"]]
            for call in workloads.calls(workload, seed)
            for res in [run_call(call.argv)]}


def main() -> int:
    table = {}
    for name, spec in workloads.WORKLOADS.items():
        keys = SEEDS if spec.seeded else [None]
        table[name] = {("any" if seed is None else str(seed)): pin(name, seed or 0)
                       for seed in keys}
        print(f"pinned {name}", file=sys.stderr)
    doc = {"source_sha256": run.host_info()["source_sha256"], "workloads": table}
    run.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
