"""Tracer completeness check.

    python3 perfbench/check_tracer.py [--seed N]

Runs the suite-cold workload traced twice with one seed, the first time
also under cProfile.  It passes when, for every traced function, the
tracer's call count equals cProfile's ``ncalls`` for the original function
(so no call went around a wrapper, whatever name it was made through), and
the two traced runs give identical call counts.  Exits 0 on pass, 1 on
failure, 2 when the sources are missing.  Takes about two minutes.
"""

from __future__ import annotations

import argparse
import os
import sys

from run import OUT, SRC, Run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tracer completeness check")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "resolvend", "cli.py")):
        print(f"check_tracer: no resolvend sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    run = Run("suite-cold", args.seed, trace=True)
    profiled = run.spawn("suite", {"trace": True, "profile": True, "run_id": "profiled"})
    plain = run.spawn("suite", {"trace": True, "run_id": "plain"})
    failures = []
    for res in (profiled, plain):
        if res["code"] != 0 or "trace" not in res:
            failures.append(f"child exited {res['code']}: {res['stderr'][-500:]!r}")
    if failures:
        print("\n".join(failures))
        return 1

    targets = profiled["trace"]["targets"]
    plain_calls = {t["path"]: t["calls"] for t in plain["trace"]["targets"]}
    print(f"{'target':58} {'tracer':>9} {'cProfile':>9} {'rerun':>9}")
    for t, ncalls in zip(targets, profiled["profile_ncalls"]):
        rerun = plain_calls.get(t["path"])
        print(f"{t['path']:58} {t['calls']:9d} {str(ncalls):>9} {str(rerun):>9}")
        if ncalls is not None and ncalls != t["calls"]:
            failures.append(f"{t['path']}: tracer saw {t['calls']} calls, cProfile {ncalls}")
        if rerun != t["calls"]:
            failures.append(f"{t['path']}: {t['calls']} calls, then {rerun} on a rerun")
    for path in profiled["trace"]["missing"]:
        failures.append(f"{path}: not found, so not traced")
    print("\n".join(failures) if failures else
          f"PASS: {len(targets)} traced functions, calls match cProfile and repeat exactly")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
