"""Pin the sha256 digests of the ``study`` and ``scan`` reports per seed.

Run from the root of the repo, on a commit whose reports are known good::

    python3 nsecbench/pin_digests.py 1 2 3 ...

It runs each workload's command once per seed and merges the digests
into ``nsecbench/digests.json``; an existing pin that disagrees is an
error, never overwritten. ``fleet`` is checked against the ``study`` pin.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main(argv=None):
    from batch import WORKLOADS
    from proc import run_program

    seeds = [int(seed) for seed in (argv if argv is not None else sys.argv[1:])]
    path = os.path.join(BENCH_DIR, "digests.json")
    with open(path, encoding="utf-8") as handle:
        pins = json.load(handle)
    for report in ("study", "scan"):
        args = WORKLOADS[report][0]
        for seed in seeds:
            run = run_program(args + ["--seed", str(seed)], ROOT)
            if run.returncode != 0:
                raise SystemExit(f"{report} seed {seed} exited {run.returncode}")
            digest = hashlib.sha256(run.stdout).hexdigest()
            pinned = pins.setdefault(report, {}).setdefault(str(seed), digest)
            if pinned != digest:
                raise SystemExit(f"{report} seed {seed}: {digest} != pinned {pinned}")
            print(f"{report} seed {seed}: {digest}")
    for report in pins:
        pins[report] = dict(sorted(pins[report].items(), key=lambda kv: int(kv[0])))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
