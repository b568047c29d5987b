"""Write the reference report digests that ``run.py`` checks against.

    python3 perfbench/record_digests.py [--workload NAME ...]

Runs one untraced iteration of each named workload (default: all) at every
input seed (``range(INPUT_SEEDS)``) and stores its report digest in
``digests.json``, keyed by workload and seed.  Re-record only in a change
that means to alter the suite reports or the CLI output.  An iteration that
fails any correctness gate is not recorded; the script then exits 1.  All
three workloads take about twenty minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import DIGESTS, INPUT_SEEDS, OUT, SRC, WORKLOADS, Run


def load() -> dict:
    try:
        with open(DIGESTS) as fh:
            return json.load(fh)
    except OSError:
        return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record reference report digests")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "resolvend", "cli.py")):
        print(f"record_digests: no resolvend sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    status = 0
    for workload in args.workload or sorted(WORKLOADS):
        for seed in range(INPUT_SEEDS):
            run = Run(workload, seed, trace=False)
            it = WORKLOADS[workload](run, {"run_id": f"{workload}:{seed}:record"})
            if run.failed or run.problems or it["digest"] is None:
                print(f"{workload} seed {seed}: not recorded, the iteration was wrong")
                status = 1
                continue
            store = load()  # re-read, so that concurrent recorders keep each other's entries
            store.setdefault(workload, {})[str(seed)] = it["digest"]
            with open(DIGESTS, "w") as fh:
                json.dump(store, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{workload} seed {seed}: {it['digest']}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
