"""One measured child interpreter of the benchmark.

    python3 perfbench/child.py MODE RESULT_FILE OPTIONS_JSON [CLI ARGS...]

The child first starts its speed probe, then does ``import resolvend.cli``
and records the moment that import returns, so that the parent can compute
set-up time from the moment it spawned the process (both read the
system-wide monotonic clock).  It then runs one piece of work, writes a
JSON result to RESULT_FILE and exits.  MODE is one of:

- ``setup``: nothing more; the child only measures start-up.
- ``suite``: one ``run_suite(seed=S)`` at the defaults.
- ``sweep``: the criterion-11 sequence: the check-11 run, one suite per
  fault, then two identical runs with the first fault.
- ``cli``: ``resolvend.cli.main(CLI ARGS)``, which is what
  ``python -m resolvend.cli CLI ARGS`` runs; stdout and stderr stay the
  command's own, and the exit code is the command's.

The speed probe: every ``PROBE_INTERVAL_S`` a timer signal runs a fixed
pure-Python loop and records when it ended and how long it took.  The
loop's duration tracks how fast the machine runs this interpreter at that
moment, which on a shared machine drifts by tens of percent within
minutes; the parent uses it to scale measured times to a reference speed.

With ``"trace": true`` in OPTIONS_JSON the child installs the tracer after
the import and before the work, and adds the per-op summary to its result;
``"profile": true`` also runs the work under cProfile and adds its call
count for each traced function (see ``check_tracer.py``).
"""

import signal
import time

PROBE_INTERVAL_S = 0.025
PROBE_LOOPS = 3000  # fixed: the probe's duration defines the reference speed
_probes: list = []  # (end, duration) of each probe, monotonic seconds


def _probe(signum, frame):
    t0 = time.monotonic()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    t1 = time.monotonic()
    _probes.append((t1, t1 - t0))


signal.signal(signal.SIGALRM, _probe)
signal.siginterrupt(signal.SIGALRM, False)  # restart system calls the timer interrupts
signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

_t_import = time.monotonic()
import resolvend.cli  # noqa: E402  (set-up ends when this returns)

_t_imported = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def digest(report) -> str:
    """SHA-256 of the canonical report: sorted keys, no timings."""
    text = json.dumps(report.to_json(), sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def describe(label: str, report) -> dict:
    return {"label": label, "ok": report.ok, "entries": len(report.entries),
            "failed_entries": sum(1 for e in report.entries if not e.ok),
            "digest": digest(report)}


def profile_ncalls(profiler, targets: list) -> list:
    """cProfile's call count for each traced target's original function."""
    import pstats
    stats = pstats.Stats(profiler).stats
    return [stats.get(tuple(t["code"]), (0, 0))[1] if t["code"] else None
            for t in targets]


def run_suite_cold(opts: dict) -> list:
    from resolvend.suite import run_suite
    return [describe("suite", run_suite(seed=opts["seed"]))]


def run_sweep(opts: dict) -> list:
    from resolvend import faults
    from resolvend.suite import run_suite
    seed = opts["seed"]
    params = opts["suite_params"]
    reports = [("clean-11", run_suite(checks=["11"], seed=seed))]
    for fault in faults.ALL_FAULTS:
        reports.append((f"mutate:{fault}", run_suite(mutate=fault, seed=seed, **params)))
    for label in ("repeat-a", "repeat-b"):
        reports.append((label, run_suite(mutate=faults.ALL_FAULTS[0], seed=seed, **params)))
    return [describe(label, r) for label, r in reports]


def main() -> int:
    mode, result_file, opts = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    tracer = profiler = None
    if opts.get("trace"):
        from tracer import Tracer
        tracer = Tracer(opts["run_id"])
        tracer.install()
    if opts.get("profile"):
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    result = {"t_imported": _t_imported, "import_s": _t_imported - _t_import}
    code = 0
    result["t_work"] = time.monotonic()
    try:
        if mode == "suite":
            result["runs"] = run_suite_cold(opts)
        elif mode == "sweep":
            result["runs"] = run_sweep(opts)
        elif mode == "cli":
            code = resolvend.cli.main(sys.argv[4:])
        elif mode != "setup":
            raise SystemExit(f"unknown child mode {mode!r}")
    finally:
        result["t_done"] = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if profiler is not None:
            profiler.disable()
        sys.stdout.flush()
        result["probes"] = _probes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["trace"] = tracer.summary()
            if profiler is not None:
                result["profile_ncalls"] = profile_ncalls(profiler, result["trace"]["targets"])
            if opts.get("spans_file"):
                tracer.save(opts["spans_file"])
        with open(result_file, "w") as fh:
            json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
