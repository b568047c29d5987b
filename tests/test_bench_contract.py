"""The benchmark's contract with the sources.

perfbench/tracer.py names every traced operation by attribute path.  A
refactor that renames one of them, or that lets two paths reach the same
function (say, by moving a method to a shared base class), makes the traced
per-layer numbers wrong without failing any other test.

perfbench/digests.json pins the report bytes of every workload.  The
``mutation-sweep`` and ``cli-cold`` pins at input seed 0 are rebuilt here in
process, so a change to a mutated suite's witnesses or to a command's output
fails tier-1 and not only the benchmark.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

from resolvend import cli, faults
from resolvend.suite import run_suite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_module("perfbench_tracer", TRACER)


def pinned_digest(workload: str) -> str:
    return json.loads((PERFBENCH / "digests.json").read_text())[workload]["0"]


def test_every_traced_path_resolves_to_its_own_function():
    tracer = load_tracer()
    owner_of = {}
    for op, paths in tracer.OPS.items():
        for path in paths:
            _, _, raw = tracer._resolve(path)  # raises if the path is gone
            fn = tracer._unwrap(raw)
            assert callable(fn), path
            assert id(fn) not in owner_of, f"{path} and {owner_of.get(id(fn))} are one function"
            owner_of[id(fn)] = path


def test_mutation_sweep_report_bytes_are_pinned():
    """The sweep child's sequence (perfbench/child.py, which cannot be
    imported: it arms a timer at import): the clean check-11 run, one suite
    per fault at ``SWEEP_SUITE``, then the first repeat."""
    bench = load_module("perfbench_run", PERFBENCH / "run.py")
    reports = [run_suite(checks=["11"], seed=0)]
    reports += [run_suite(mutate=fault, seed=0, **bench.SWEEP_SUITE)
                for fault in faults.ALL_FAULTS]
    reports.append(run_suite(mutate=faults.ALL_FAULTS[0], seed=0, **bench.SWEEP_SUITE))
    digests = [hashlib.sha256(json.dumps(r.to_json(), sort_keys=True, indent=2).encode())
               .hexdigest() for r in reports]
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == pinned_digest("mutation-sweep")


def test_cli_cold_output_bytes_are_pinned(capsys):
    """Every command of ``cli_script(0)`` through ``cli.main``, its stdout
    hashed in script order."""
    bench = load_module("perfbench_run", PERFBENCH / "run.py")
    stdout = hashlib.sha256()
    for name, args, code, _ in bench.cli_script(0):
        assert cli.main(args) == code, name
        out, err = capsys.readouterr()
        assert err == "", name
        stdout.update(out.encode())
    assert stdout.hexdigest() == pinned_digest("cli-cold")
