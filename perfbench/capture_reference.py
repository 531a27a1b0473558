#!/usr/bin/env python3
"""Rewrite reference.json: the checked numbers of the first ops of every workload.

    python3 perfbench/capture_reference.py

Run this only on a commit whose outputs are known good (it was captured
on the seed commit).  Ops use the reference seed, so a benchmark run with
``--seed 1`` compares its first REFERENCE_OPS ops with these numbers.
"""

import json
import shutil
import sys

from run import REFERENCE, REFERENCE_SEED, WORK
from workloads import WORKLOADS, import_program

REFERENCE_OPS = 12


def main() -> int:
    import_program()
    ops = {}
    for name, workload in WORKLOADS.items():
        workdir = WORK / f"capture-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        fingerprints = []
        for index in range(REFERENCE_OPS):
            op = workload.prepare(workdir / f"op{index}", REFERENCE_SEED, index)
            workload.run(op)
            check = workload.check(op)
            if check.problems:
                print(f"{name} op {index}: {check.problems}", file=sys.stderr)
                return 1
            fingerprints.append(check.fingerprint)
        shutil.rmtree(workdir)
        ops[name] = fingerprints
        print(f"{name}: {len(fingerprints)} ops")
    payload = {"seed": REFERENCE_SEED, "ops": ops}
    REFERENCE.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
