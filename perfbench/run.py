"""resolvend benchmark: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from any directory; it measures the package under ``src/`` next to
this directory.  The input seed is N mod ``INPUT_SEEDS``.  Workloads (see
``WORKLOADS``):

- ``suite-cold``: one default ``run_suite(seed=S)`` in a fresh interpreter.
- ``mutation-sweep``: the criterion-11 sequence in one interpreter, with the
  mutated suites at reduced parameters (``SWEEP_SUITE``).
- ``cli-cold``: a fixed script of eleven CLI commands, each in a fresh
  interpreter.

Each piece of work runs in a child interpreter, one at a time.  Iterations
repeat while another one would end at most half an iteration after S seconds
(at least one runs).  Every output is checked; an operation (a suite entry
or a CLI command) whose outcome is wrong counts as failed.  Every iteration's
report digest must equal the one ``digests.json`` holds for the workload and
input seed, so a change that alters report bytes makes the run incorrect.

With ``--trace 0`` the run reports the end-to-end metrics, all from untraced
children: ``wall_s`` (median per iteration), ``setup_s`` (median time from
spawning a child until ``import resolvend.cli`` returns in it, over every
child, plus extra start-up-only children) and ``peak_rss_mb`` (median over
iterations of the largest child resident set).  The two times are scaled
to a reference interpreter speed by each child's speed probe (see
``timing``); the raw times are printed as ``raw_wall_s`` and
``raw_setup_s``.  With ``--trace 1`` it runs one untraced and one traced
iteration and reports the per-layer metrics of the traced one (see
``tracer.py``) and ``trace.overhead_s``.

The last line of stdout is the JSON result; the lines before it give every
metric with its sample count, the machine, and the report digests.  The full
record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")

SUITE_ENTRIES = 90            # entries of the default suite
SETUP_CHILDREN = 8            # start-up-only children per untraced run
CHILD_TIMEOUT_S = 150
REF_PROBE_S = 250e-6          # speed-probe duration at the reference speed
# mutated suites of the sweep: checks 04 and 08 still catch every fault, and
# one sequence takes tens of seconds instead of a minute and more
SWEEP_SUITE = {"max_order": 7, "p_list": [3, 5]}
# --seed N runs input seed N mod INPUT_SEEDS, so that every run has a
# committed reference digest (DIGESTS, written by record_digests.py)
INPUT_SEEDS = 32


class Run:
    """State of one benchmark run: counts, problems and child results."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed % INPUT_SEEDS
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.env.pop("PYTHONSTARTUP", None)
        self.result_file = os.path.join(OUT, f"child-{os.getpid()}.json")

    def problem(self, text: str):
        self.problems.append(text)
        print(f"problem: {text}")

    def spawn(self, mode: str, opts: dict | None = None, cli_args=()) -> dict:
        """Run one child to completion; returns its result plus timings."""
        opts = dict(opts or {}, seed=self.seed)
        if os.path.exists(self.result_file):
            os.remove(self.result_file)
        cmd = [sys.executable, CHILD, mode, self.result_file, json.dumps(opts), *cli_args]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        t1 = time.monotonic()
        try:
            with open(self.result_file) as fh:
                res = json.load(fh)
            os.remove(self.result_file)
        except (OSError, ValueError):
            res = {}
        res.update(code=proc.returncode, stdout=proc.stdout, stderr=proc.stderr,
                   t_spawn=t0, t_exit=t1)
        if "t_imported" in res:
            res["setup"] = timing(res, t0, res["t_imported"])
        return res


def timing(res: dict, t0: float, t1: float) -> tuple:
    """(raw, reference) seconds of the window [t0, t1] of one child.

    The reference time is the window minus the child's speed probes inside
    it, scaled by the median probe duration over its duration at the
    reference speed: the time the work would take on a machine running
    this interpreter at a fixed speed.  A window too short to hold a probe
    uses every probe of the child."""
    probes = res.get("probes") or []
    inside = [d for end, d in probes if t0 <= end <= t1]
    sample = inside or [d for _, d in probes]
    if not sample:
        return t1 - t0, None
    return t1 - t0, (t1 - t0 - sum(inside)) * REF_PROBE_S / statistics.median(sample)


def work_timing(res: dict) -> tuple:
    if "t_work" not in res:
        return None, None
    return timing(res, res["t_work"], res["t_done"])


# ------------------------------------------------------------------ suite


def suite_cold(run: Run, opts: dict) -> dict:
    res = run.spawn("suite", opts)
    runs = res.get("runs") or []
    rep = runs[0] if runs else None
    run.attempted += rep["entries"] if rep else SUITE_ENTRIES
    if res["code"] != 0 or res["stderr"] or rep is None:
        run.problem(f"suite child exited {res['code']}: {res['stderr'][-500:]!r}")
        run.failed += rep["entries"] if rep else SUITE_ENTRIES
    else:
        run.failed += rep["failed_entries"]
        if rep["entries"] != SUITE_ENTRIES:
            run.problem(f"suite has {rep['entries']} entries, expected {SUITE_ENTRIES}")
        if not rep["ok"]:
            run.problem(f"suite failed {rep['failed_entries']} entries")
    return {"wall": work_timing(res), "children": [res],
            "digest": rep["digest"] if rep else None,
            "suite_digests": {"suite": rep["digest"] if rep else None}}


def mutation_sweep(run: Run, opts: dict) -> dict:
    res = run.spawn("sweep", dict(opts, suite_params=SWEEP_SUITE))
    runs = {r["label"]: r for r in res.get("runs") or []}
    if res["code"] != 0 or res["stderr"] or len(runs) != 6:
        run.problem(f"sweep child exited {res['code']}: {res['stderr'][-500:]!r}")
        run.attempted += 1
        run.failed += 1
        return {"wall": work_timing(res), "children": [res], "digest": None,
                "suite_digests": {}}
    for label, r in runs.items():
        run.attempted += r["entries"]
        if label == "clean-11":
            run.failed += r["failed_entries"]
            if not r["ok"] or r["entries"] != 3:
                run.problem(f"clean check-11 run: ok={r['ok']}, {r['entries']} entries")
        elif r["ok"]:
            # a mutated suite that passes missed its fault: every entry is wrong
            run.failed += r["entries"]
            run.problem(f"{label} passed the suite")
    if runs["repeat-a"]["digest"] != runs["repeat-b"]["digest"]:
        run.failed += runs["repeat-b"]["entries"]
        run.problem("two identical mutated runs gave different reports")
    order = ["clean-11"] + [k for k in runs if k.startswith("mutate:")] + ["repeat-a"]
    joined = "".join(runs[k]["digest"] for k in order)
    return {"wall": work_timing(res), "children": [res],
            "digest": hashlib.sha256(joined.encode()).hexdigest(),
            "suite_digests": {k: runs[k]["digest"] for k in order}}


# -------------------------------------------------------------------- cli


def cli_script(seed: int) -> list[tuple[str, list[str], int, str | None]]:
    """(name, arguments, expected exit code, expected envelope status)."""
    rng = random.Random(f"{seed}:theta-psi")
    psi = ",".join(f"{c}:{rng.choice((-3, -2, -1, 1, 2, 3))}"
                   for c in sorted(rng.sample(range(27), 4)))
    return [
        ("pairing-27", ["pairing", "--group", "27"], 0, "ok"),
        ("pairing-3x9-csv", ["pairing", "--group", "3,9", "--format", "csv"], 0, None),
        ("kernel-basis-3x3x3", ["kernel-basis", "--group", "3,3,3"], 0, "ok"),
        ("theta-27", ["theta", "--group", "27", "--psi", psi], 0, "ok"),
        ("different-9331", ["different", "--filtration", "9,3,3,1"], 0, "ok"),
        ("tame-gen-3x3", ["tame-gen", "--group", "3,3", "--e", "3", "--q", "7",
                          "--s", "1,0", "--conductor", "57"], 0, "ok"),
        ("tame-gen-9", ["tame-gen", "--group", "9", "--e", "9", "--q", "19",
                        "--s", "1"], 0, "ok"),
        ("wild-verify-3", ["wild-verify", "--p", "3"], 0, "ok"),
        ("wild-verify-5", ["wild-verify", "--p", "5"], 0, "ok"),
        ("suite-07-09", ["suite", "--checks", "07,09", "--seed", str(seed)], 0, "ok"),
        ("suite-max-order-99", ["suite", "--max-order", "99"], 2, "error"),
    ]


def check_cli_output(name: str, res: dict, code: int, status: str | None):
    """None if the command behaved as expected, else what went wrong."""
    if res["code"] != code:
        return f"exit code {res['code']}, expected {code}"
    if res["stderr"]:
        return f"stderr not empty: {res['stderr'][-300:]!r}"
    out = res["stdout"].decode()
    if status is None:  # raw CSV: a header plus one row per character of Z/3 x Z/9
        lines = out.splitlines()
        if out.lstrip().startswith("{") or len(lines) != 28 or len(lines[0].split(",")) != 28:
            return "CSV table malformed"
        return None
    try:
        envelope = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    if set(envelope) != {"command", "params", "result", "status"}:
        return f"envelope keys {sorted(envelope)}"
    if envelope["status"] != status:
        return f"status {envelope['status']!r}, expected {status!r}"
    result = envelope["result"]
    if name.startswith("theta") and result["integral"] != result["det_trivial"]:
        return "integrality and determinant triviality disagree"
    if name == "pairing-27" and len(result["matrix"]) != 27:
        return "pairing matrix is not 27 x 27"
    if name.startswith("suite-07") and result["counts"]["fail"] != 0:
        return "suite entries failed"
    return None


def cli_cold(run: Run, opts: dict) -> dict:
    children = []
    stdout_hash = hashlib.sha256()
    suite_digest = None
    for name, args, code, status in cli_script(run.seed):
        res = run.spawn("cli", dict(opts, run_id=f"{opts.get('run_id')}:{name}",
                                    spans_file=opts.get("spans_dir") and
                                    os.path.join(opts["spans_dir"], f"{name}.npz")),
                        args)
        res["command"] = name
        children.append(res)
        run.attempted += 1
        wrong = check_cli_output(name, res, code, status)
        if wrong is not None:
            run.failed += 1
            run.problem(f"cli {name}: {wrong}")
        stdout_hash.update(res["stdout"])
        if name.startswith("suite-07") and wrong is None:
            text = json.dumps(json.loads(res["stdout"])["result"], sort_keys=True, indent=2)
            suite_digest = hashlib.sha256(text.encode()).hexdigest()
    # the pass takes the children's lifetimes; the parent's checks between them
    # are benchmark overhead
    lives = [timing(c, c["t_spawn"], c["t_exit"]) for c in children]
    wall = (sum(raw for raw, _ in lives),
            None if any(ref is None for _, ref in lives) else sum(ref for _, ref in lives))
    return {"wall": wall, "children": children, "digest": stdout_hash.hexdigest(),
            "suite_digests": {"suite-07-09": suite_digest}}


WORKLOADS = {
    "suite-cold": suite_cold,
    "mutation-sweep": mutation_sweep,
    "cli-cold": cli_cold,
}


# ---------------------------------------------------------------- metrics


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": nproc, "cpu_model": cpu, "python": platform.python_version(),
            "python_implementation": platform.python_implementation(),
            "numpy": numpy_version, "platform": platform.platform(),
            "commit": git_commit(), "source_sha256": source_fingerprint()}


def git_commit() -> str | None:
    """HEAD of a git checkout at ROOT, or None outside one."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_fingerprint() -> str:
    """SHA-256 over the package sources, so results name the code they ran."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "resolvend", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def expected_digest(run: Run) -> str | None:
    """The committed report digest of this workload and input seed."""
    try:
        with open(DIGESTS) as fh:
            return json.load(fh)[run.workload][str(run.seed)]
    except (OSError, ValueError, KeyError):
        return None


def per_layer(traced: dict, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced iteration."""
    ops: dict[str, dict] = {}
    hits: dict[str, int] = {}
    for child in traced["children"]:
        summary = child.get("trace") or {"ops": {}, "hits": {}}
        for op, rec in summary["ops"].items():
            acc = ops.setdefault(op, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
        for op, n in summary["hits"].items():
            hits[op] = hits.get(op, 0) + n
    from tracer import INTERNED
    metrics = {}
    for op, rec in sorted(ops.items()):
        if op in INTERNED:
            calls = rec["calls"]
            metrics[INTERNED[op]] = (hits.get(op, 0) / calls if calls else 0.0, "ratio")
            metrics[f"{op}.calls"] = (calls, "count")
        elif op.startswith("suite.check_"):
            metrics[f"{op}_s"] = (rec["total_s"], "s")
        else:
            metrics[f"{op}.calls"] = (rec["calls"], "count")
            metrics[f"{op}.self_s"] = (rec["self_s"], "s")
    children = traced["children"]
    metrics["cli.import_s"] = (median(c.get("import_s") for c in children), "s")
    for c in children:
        if "command" in c:
            metrics[f"cli.{c['command']}_s"] = (work_timing(c)[0], "s")
    if traced["wall"][1] is not None and untraced_wall is not None:
        metrics["trace.overhead_s"] = (traced["wall"][1] - untraced_wall, "s")
    return metrics


def declared_metrics(trace: bool) -> dict | None:
    """name -> unit of the metrics BENCHMARK.json asks of this kind of run."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "resolvend", "cli.py")):
        print(f"perfbench: no resolvend sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    run = Run(args.workload, args.seed, bool(args.trace))
    work = WORKLOADS[args.workload]
    info = machine_info()

    # unmeasured start-up: compiles bytecode and warms the file cache
    run.spawn("setup")
    setup_children = [] if run.trace else [run.spawn("setup") for _ in range(SETUP_CHILDREN)]

    iterations = []
    t_start = time.monotonic()
    while True:
        it = work(run, {"run_id": f"{run.workload}:{run.seed}:{len(iterations)}"})
        iterations.append(it)
        walls = [i["wall"][0] for i in iterations if i["wall"][0] is not None]
        # another iteration runs if it would end at most half an iteration late
        if run.trace or not walls or \
                time.monotonic() - t_start + median(walls) / 2 > args.seconds:
            break
    reference = expected_digest(run)
    if reference is None:
        run.problem(f"no reference digest for {run.workload} input seed {run.seed} "
                    f"in {os.path.relpath(DIGESTS, ROOT)}")
    for it in iterations:
        if reference is not None and it["digest"] != reference:
            run.failed += 1
            run.problem(f"report digest {it['digest']} differs from the reference "
                        f"{reference} of {run.workload} input seed {run.seed}")

    record = {"workload": run.workload, "seed": args.seed, "input_seed": run.seed,
              "seconds": args.seconds,
              "trace": run.trace, "machine": info, "iterations": len(iterations),
              "report_digest": iterations[0]["digest"],
              "per_iteration": [{"raw_wall_s": it["wall"][0], "wall_s": it["wall"][1]}
                                for it in iterations],
              "suite_digests": iterations[0]["suite_digests"]}
    untraced_wall = median(it["wall"][1] for it in iterations)
    if run.trace:
        spans_dir = os.path.join(OUT, f"spans-{run.workload}")
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
        run_id = f"{run.workload}:{run.seed}:traced"
        traced = work(run, {"trace": True, "run_id": run_id, "spans_dir": spans_dir,
                            "spans_file": os.path.join(spans_dir, "spans.npz")})
        if traced["digest"] != iterations[0]["digest"]:
            run.problem("the traced iteration changed the report digest")
        missing = set()
        for child in traced["children"]:
            if child.get("trace") is None:
                run.problem(f"a traced child exited {child['code']} without a trace")
            else:
                missing.update(child["trace"]["missing"])
        if missing:
            run.problem(f"tracer found no {', '.join(sorted(missing))}, so its calls went unmeasured")
        values = per_layer(traced, untraced_wall)
        record["trace_targets"] = [c.get("trace") for c in traced["children"]]
        samples = {name: 1 for name in values}
        samples["cli.import_s"] = len(traced["children"])
    else:
        children = setup_children + [c for it in iterations for c in it["children"]]
        setups = [c["setup"] for c in children if "setup" in c]
        peaks = [max(c.get("peak_rss_mb", 0.0) for c in it["children"]) for it in iterations]
        values = {"wall_s": (untraced_wall, "s"),
                  "setup_s": (median(ref for _, ref in setups), "s"),
                  "peak_rss_mb": (median(peaks), "MB"),
                  "raw_wall_s": (median(it["wall"][0] for it in iterations), "s"),
                  "raw_setup_s": (median(raw for raw, _ in setups), "s")}
        samples = {"wall_s": len(iterations), "setup_s": len(setups),
                   "peak_rss_mb": len(peaks), "raw_wall_s": len(iterations),
                   "raw_setup_s": len(setups)}

    declared = declared_metrics(run.trace) or {k: u for k, (v, u) in values.items()}
    unmeasured = [k for k in declared if values.get(k, (None,))[0] is None]
    if unmeasured:
        run.problem(f"not measured, so reported as null: {', '.join(sorted(unmeasured))}")
    record.update(attempted=run.attempted, failed=run.failed,
                  failed_ratio=run.failed / max(run.attempted, 1),
                  problems=run.problems,
                  metrics={k: {"value": v, "unit": u, "samples": samples[k]}
                           for k, (v, u) in values.items()})
    suffix = "traced" if run.trace else "untraced"
    with open(os.path.join(OUT, f"result-{run.workload}-{args.seed}-{suffix}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(f"workload {run.workload} seed {args.seed} (input seed {run.seed}): "
          f"{len(iterations)} untraced "
          f"iteration(s), {run.attempted} operations, {run.failed} failed "
          f"(failed_ratio {record['failed_ratio']:.4f})")
    print(f"report digest: {record['report_digest']}")
    for name, (value, unit) in sorted(values.items()):
        print(f"  {name} = {value} {unit} (median of {samples[name]})")
    correct = run.failed == 0 and not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": values.get(k, (None,))[0], "unit": u}
                                  for k, u in declared.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
