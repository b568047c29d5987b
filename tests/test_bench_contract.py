"""The traced benchmark's contract with the sources.

perfbench/tracer.py names every traced operation by attribute path.  A
refactor that renames one of them, or that lets two paths reach the same
function (say, by moving a method to a shared base class), makes the traced
per-layer numbers wrong without failing any other test.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
