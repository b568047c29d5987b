"""Span tracer that measures resolvend's layers from outside the package.

``Tracer.install()`` replaces each public function listed in ``OPS`` with a
wrapper that records one span per call (op, start, end, parent span) and
then delegates to the original.  The wrapper is bound in every namespace of
the package that holds the original object: a name imported with
``from .cyclotomic import cyc_inverse`` in ``localfield`` and ``wild`` is a
second reference, and calls through it would otherwise go unseen.  Aliases
inside a class (``__rmul__ = __mul__``) are found the same way.

Spans live in compact in-memory arrays until ``save()`` writes them out.
The interned constructors (``CycContext``, ``LocalModel``, ``WildAlgebra``)
additionally count cache hits: a call hits when it returns an instance that
an earlier call already returned.

The suite's check generators are traced through ``suite.CHECKS``: each
resume of a check generator is one span, so a check's time is the time its
generator actually runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "resolvend"

# op name -> attribute paths (module.attr or module.Class.attr) it covers
OPS = {
    "cyclotomic.mul": ("cyclotomic.CycNumber.__mul__",),
    "cyclotomic.add": ("cyclotomic.CycNumber.__add__",),
    "cyclotomic.reduce": ("cyclotomic.CycContext.reduce",),
    "cyclotomic.inverse": ("cyclotomic.cyc_inverse",),
    "cyclotomic.galois": ("cyclotomic.galois_apply",),
    "cyclotomic.dlog": ("cyclotomic.discrete_log_in_mu",),
    "cyclotomic.context": ("cyclotomic.CycContext.__new__",),
    "localfield.mul": ("localfield.PuiseuxElement.__mul__",),
    "localfield.add": ("localfield.PuiseuxElement.__add__",),
    "localfield.inv": ("localfield.LocalModel.inv",),
    "localfield.frac_power": ("localfield.LocalModel.frac_power",),
    "localfield.model": ("localfield.LocalModel.__new__",),
    "groupring.convolve": ("groupring.Resolvend.__mul__",
                           "groupring.resolvend_product_transport"),
    "groupring.to_chars": ("groupring.to_character_space",),
    "groupring.from_chars": ("groupring.from_character_space",),
    "groupring.resolvent": ("groupring.resolvent",),
    "groupring.gen_cert": ("groupring.generator_certificate",),
    "groupring.unit_cert": ("groupring.unit_certificate",),
    "groupring.trace_check": ("groupring.trace_pairing_identity_check",),
    "stickelberger.pairing": ("stickelberger.stickelberger_pairing",),
    "stickelberger.map": ("stickelberger.stickelberger_map",),
    "stickelberger.equivariance": ("stickelberger.equivariance_check",),
    "stickelberger.kernel_basis": ("stickelberger.DetKernelBasis.__init__",),
    "intlinalg.kernel_basis": ("intlinalg.kernel_basis",),
    "intlinalg.hnf": ("intlinalg.hnf_rows",),
    "intlinalg.det": ("intlinalg.det",),
    "tame.transpose_lift": ("tame.transpose_lift",),
    "tame.generator": ("tame.tame_generator",),
    "tame.unramified_search": ("tame.unramified_generator_search",),
    "tame.decompose": ("tame.decompose_tame_resolvend",),
    "tame.inversion_check": ("tame.inversion_identity_check",),
    "tame.basis_det": ("tame.basis_change_determinant",),
    "wild.mul": ("wild.WildElement.__mul__",),
    "wild.omega": ("wild.omega_action",),
    "wild.tau": ("wild.tau_action",),
    "wild.weight": ("wild.weight_lower_bound",),
    "wild.alpha_bound": ("wild.alpha_valuation_bound",),
    "wild.algebra": ("wild.WildAlgebra.__new__",),
    "suite.run": ("suite.run_suite",),
    "cli.main": ("cli.main",),
}

# ops whose calls are interned constructions; they report a hit ratio
INTERNED = {"cyclotomic.context": "cyclotomic.context_hit_ratio",
            "localfield.model": "localfield.model_hit_ratio",
            "wild.algebra": "wild.algebra_hit_ratio"}


def _resolve(path: str):
    """(owner, attribute name, raw attribute) for 'module.attr' or
    'module.Class.attr'; raw keeps a staticmethod wrapper as it is."""
    parts = path.split(".")
    owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    for name in parts[1:-1]:
        owner = getattr(owner, name)
    name = parts[-1]
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if name in klass.__dict__:
                return klass, name, klass.__dict__[name]
        raise AttributeError(path)
    return owner, name, getattr(owner, name)


def _namespaces():
    """Every module dict and class dict of the package, as (owner, dict)."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        yield module, vars(module)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == modname:
                yield value, value.__dict__


def _unwrap(raw):
    return raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw


class Tracer:
    """Records spans of the wrapped ops of one traced child process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.targets: list[tuple[str, str, object]] = []  # (op, path, original)
        self.starts = array("q")
        self.ends = array("q")
        self.span_target = array("i")
        self.parents = array("i")
        self._stack = [-1]
        self.hits: dict[str, int] = {op: 0 for op in INTERNED}
        self.missing: list[str] = []

    # -- recording ------------------------------------------------------

    def _open(self, target: int) -> int:
        idx = len(self.starts)
        self.parents.append(self._stack[-1])
        self.span_target.append(target)
        self.ends.append(0)
        self.starts.append(time.perf_counter_ns())
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, target: int):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(target)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return wrapper

    def _wrap_interned(self, new, target: int, op: str):
        seen: set[int] = set()
        keep: list = []  # holds results so their ids stay unique
        hits = self.hits
        open_, close = self._open, self._close

        @functools.wraps(new)
        def wrapper(cls, *args, **kwargs):
            idx = open_(target)
            try:
                obj = new(cls, *args, **kwargs)
            finally:
                close(idx)
            if id(obj) in seen:
                hits[op] += 1
            else:
                seen.add(id(obj))
                keep.append(obj)
            return obj
        return wrapper

    def _wrap_check(self, gen_fn, target: int):
        """A check is a generator: one span per resume, so time spent by
        the consumer between entries is not charged to the check."""
        open_, close = self._open, self._close

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            gen = gen_fn(*args, **kwargs)
            while True:
                idx = open_(target)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close(idx)
                yield item
        return wrapper

    # -- installation ---------------------------------------------------

    def _add_target(self, op: str, path: str, original) -> int:
        self.targets.append((op, path, original))
        return len(self.targets) - 1

    def install(self):
        """Wrap every op in every namespace of the loaded package."""
        replacements = {}  # id(original) -> (original, wrapper); keeps ids unique
        for op, paths in OPS.items():
            for path in paths:
                try:
                    _, _, raw = _resolve(path)
                except (ImportError, AttributeError):
                    self.missing.append(path)
                    continue
                original = _unwrap(raw)
                target = self._add_target(op, path, original)
                if op in INTERNED:
                    wrapper = self._wrap_interned(original, target, op)
                else:
                    wrapper = self._wrap(original, target)
                replacements[id(original)] = (original, wrapper)
        for owner, namespace in _namespaces():
            for name, value in list(namespace.items()):
                entry = replacements.get(id(_unwrap(value)))
                if entry is not None:
                    wrapper = entry[1]
                    if isinstance(value, (staticmethod, classmethod)):
                        wrapper = type(value)(wrapper)
                    setattr(owner, name, wrapper)
        self._install_checks()
        stale = self.unwrapped_references()
        if stale:
            raise RuntimeError(f"tracer left originals bound at {stale}")

    def _install_checks(self):
        suite = importlib.import_module(f"{PACKAGE}.suite")
        checks = getattr(suite, "CHECKS", None)
        if checks is None:
            self.missing.append("suite.CHECKS")
            return
        wrapped = []
        for cid, fn in checks:
            op = f"suite.check_{cid[:2]}"
            target = self._add_target(op, f"suite.{fn.__name__}", fn)
            if inspect.isgeneratorfunction(fn):
                wrapped.append((cid, self._wrap_check(fn, target)))
            else:
                wrapped.append((cid, self._wrap(fn, target)))
        suite.CHECKS = tuple(wrapped)

    def unwrapped_references(self) -> list[str]:
        """Names in the package that still hold an original op function."""
        originals = {id(t[2]) for t in self.targets if not t[0].startswith("suite.check_")}
        found = []
        for owner, namespace in _namespaces():
            for name, value in namespace.items():
                if id(_unwrap(value)) in originals:
                    found.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return found

    # -- results --------------------------------------------------------

    def arrays(self):
        starts = np.frombuffer(self.starts, dtype=np.int64)
        ends = np.frombuffer(self.ends, dtype=np.int64)
        return (starts, ends, np.frombuffer(self.span_target, dtype=np.int32),
                np.frombuffer(self.parents, dtype=np.int32))

    def summary(self) -> dict:
        """calls and self time per op and per target, plus hit counts.

        Self time is a span's duration minus the durations of its direct
        child spans, which are nested inside it."""
        starts, ends, targets, parents = self.arrays()
        n_targets = len(self.targets)
        dur = (ends - starts).astype(np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_ns = dur - child
        calls_t = np.bincount(targets, minlength=n_targets)
        self_t = np.bincount(targets, weights=self_ns, minlength=n_targets)
        incl_t = np.bincount(targets, weights=dur, minlength=n_targets)
        ops: dict[str, dict] = {}
        per_target = []
        for i, (op, path, original) in enumerate(self.targets):
            rec = ops.setdefault(op, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            rec["calls"] += int(calls_t[i])
            rec["self_s"] += float(self_t[i]) / 1e9
            rec["total_s"] += float(incl_t[i]) / 1e9
            code = getattr(original, "__code__", None)
            per_target.append({"op": op, "path": path, "calls": int(calls_t[i]),
                               "code": None if code is None else
                               [code.co_filename, code.co_firstlineno, code.co_name]})
        return {"run_id": self.run_id, "spans": int(len(dur)), "ops": ops,
                "hits": dict(self.hits), "targets": per_target,
                "missing": list(self.missing)}

    def save(self, path: str):
        starts, ends, targets, parents = self.arrays()
        names = np.array([t[0] for t in self.targets])
        np.savez(path, run_id=np.array(self.run_id), target_op=names,
                 start_ns=starts, end_ns=ends, target=targets, parent=parents)
