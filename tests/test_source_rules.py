"""Source rules that hold for the whole package."""
from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

import resolvend


def _float_uses(tree: ast.AST) -> list[str]:
    """Float literals (so also ``** 0.5``), ``sqrt`` from math, and
    ``float(...)`` calls other than ``float("inf")``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt":
            found.append(f"line {node.lineno}: .sqrt")
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and any(
                alias.name == "sqrt" for alias in node.names):
            found.append(f"line {node.lineno}: from math import sqrt")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            args = [a.value for a in node.args if isinstance(a, ast.Constant)]
            if args != ["inf"] or node.keywords:
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_package_computes_without_floats():
    sources = sorted(Path(resolvend.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    offences = {path.name: _float_uses(ast.parse(path.read_text())) for path in sources}
    assert {name: found for name, found in offences.items() if found} == {}


def test_float_rule_catches_each_form():
    code = ("import math\nfrom math import sqrt\n"
            "a = 0.25\nb = n ** 0.5\nc = math.sqrt(n)\nd = float(n)\ne = float('inf')\n")
    assert len(_float_uses(ast.parse(code))) == 5


DERIVED_RANDOM = {"random", "randint", "randrange", "choice", "choices", "sample",
                  "shuffle", "uniform"}


def _derived_random_calls(tree: ast.AST) -> list[str]:
    """Calls of the ``random.Random`` methods derived from its 32-bit words,
    as methods or imported by name.  The random docs promise only random()'s
    sequence across Python versions, not randint's or choices', so reports
    read the words themselves through getrandbits."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            found += [f"line {node.lineno}: from random import {alias.name}"
                      for alias in node.names if alias.name in DERIVED_RANDOM]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in DERIVED_RANDOM):
            found.append(f"line {node.lineno}: {ast.unparse(node.func)}")
    return found


def test_package_draws_only_generator_words():
    sources = sorted(Path(resolvend.__file__).parent.glob("*.py"))
    offences = {path.name: _derived_random_calls(ast.parse(path.read_text())) for path in sources}
    assert {name: found for name, found in offences.items() if found} == {}


def test_derived_random_rule_catches_each_form():
    calls = "".join(f"rng.{name}(x)\n" for name in sorted(DERIVED_RANDOM))
    code = calls + "from random import choice, getrandbits\nrandom.random()\nrng.getrandbits(8)\n"
    assert len(_derived_random_calls(ast.parse(code))) == len(DERIVED_RANDOM) + 2


def _numpy_imports(tree: ast.AST) -> list[int]:
    """Lines that import numpy or a numpy submodule in any form: ``import``
    and ``from ... import`` statements anywhere, function bodies included,
    and ``__import__`` or ``importlib.import_module`` calls on a literal name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and ast.unparse(node.func) in ("__import__", "import_module",
                                             "importlib.import_module")):
            names = [str(node.args[0].value)]
        else:
            names = []
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            found.append(node.lineno)
    return sorted(found)


def test_package_never_imports_numpy():
    """The package computes in Python integers and needs no numpy at all."""
    sources = sorted(Path(resolvend.__file__).parent.glob("*.py"))
    offences = {path.name: _numpy_imports(ast.parse(path.read_text())) for path in sources}
    assert {name: lines for name, lines in offences.items() if lines} == {}


def test_numpy_rule_catches_each_form():
    code = ("import numpy as np\nfrom numpy import array\nimport os, numpy.linalg\n"
            "if flag:\n    import numpy\nclass K:\n    from numpy.random import rand\n"
            "def f():\n    import numpy as np\n    return np\nimport numbers\n"
            "m = __import__('numpy')\nn = importlib.import_module('numpy.linalg')\n"
            "o = import_module('numbers')\nfrom . import numpyish\n")
    assert _numpy_imports(ast.parse(code)) == [1, 2, 3, 5, 7, 9, 12, 13]


def _name_uses(sources: dict[str, str], name: str, allowed: set[str]) -> list[str]:
    """``module:line`` of each use of ``name`` outside the modules in
    ``allowed``: a call, any other reference, or an import of the name."""
    found = []
    for module, code in sources.items():
        if module in allowed:
            continue
        for node in ast.walk(ast.parse(code)):
            if ((isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.ImportFrom)
                        and any(alias.name == name for alias in node.names))):
                found.append(f"{module}:{node.lineno}")
    return sorted(found)


def test_only_cyclotomic_builds_numbers_without_normalising():
    """``_lowest`` skips the gcd pass; a number it builds outside lowest terms
    would break ``==`` and ``hash``, so only the module that proves each
    call's result is in lowest terms may use it."""
    sources = {path.stem: path.read_text()
               for path in Path(resolvend.__file__).parent.glob("*.py")}
    assert "_lowest(" in sources["cyclotomic"]
    assert _name_uses(sources, "_lowest", {"cyclotomic"}) == []


def test_lowest_terms_rule_catches_each_form():
    code = ("from .cyclotomic import CycNumber, _lowest\n"
            "from . import cyclotomic\n"
            "a = _lowest(ctx, (1, 0), 1)\n"
            "b = cyclotomic._lowest(ctx, (2, 0), 1)\n"
            "build = cyclotomic._lowest\n"
            "c = CycNumber(ctx, (2, 0), 2)\n")
    inside = "def _lowest(ctx, num, den):\n    return num\nx = _lowest(1, 2, 3)\n"
    assert _name_uses({"m": code, "cyclotomic": inside}, "_lowest", {"cyclotomic"}) == [
        "m:1", "m:3", "m:4", "m:5"]


def test_only_the_laurent_core_builds_elements_without_filtering():
    """``laurent._trusted`` skips the zero filter and the wild arity check;
    an element it builds with a zero coefficient or a foreign key would
    break ``==`` and ``is_zero``, so only the modules that prove each call's
    terms nonzero and inside the algebra may use it."""
    sources = {path.stem: path.read_text()
               for path in Path(resolvend.__file__).parent.glob("*.py")}
    assert "_trusted(" in sources["laurent"]
    assert _name_uses(sources, "_trusted", {"laurent", "localfield", "wild"}) == []


def test_trusted_rule_catches_each_form():
    code = ("from .laurent import LaurentElement, _trusted\n"
            "from . import laurent\n"
            "a = _trusted(alg, {0: one})\n"
            "b = laurent._trusted(alg, {})\n"
            "build = laurent._trusted\n"
            "c = alg.element(alg, {0: one})\n")
    inside = "x = _trusted(alg, {})\n"
    assert _name_uses({"m": code, "localfield": inside, "wild": inside},
                      "_trusted", {"laurent", "localfield", "wild"}) == [
        "m:1", "m:3", "m:4", "m:5"]


def test_only_groupring_takes_resolvents():
    """Every resolvent outside ``groupring`` comes from
    ``to_character_space``, so a faster transform there serves every
    caller, and no module loops ``resolvent`` over the characters."""
    sources = {path.stem: path.read_text()
               for path in Path(resolvend.__file__).parent.glob("*.py")}
    assert "resolvent(" in sources["groupring"]
    assert _name_uses(sources, "resolvent", {"groupring"}) == []


def test_resolvent_rule_catches_each_form():
    code = ("from .groupring import resolvent, to_character_space\n"
            "from . import groupring\n"
            "a = resolvent(r, chi)\n"
            "b = groupring.resolvent(r, chi)\n"
            "take = groupring.resolvent\n"
            "rows = resolvent_table(r, s)\n"
            "c = to_character_space(r)\n"
            "d = 'resolvent'\n")
    inside = "def resolvent(a, chi):\n    return a\nx = resolvent(r, chi)\n"
    assert _name_uses({"m": code, "groupring": inside}, "resolvent", {"groupring"}) == [
        "m:1", "m:3", "m:4", "m:5"]


def _reads_val(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "val" for n in ast.walk(node))


def _val_compared_with_zero(tree: ast.AST) -> list[str]:
    """Comparisons of 0 with an operand that reads a ``.val`` method, called
    or passed on (``min(map(model.val, xs))``), by any operator and on
    either side.  A valuation held in a plain name first is not seen."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(_reads_val(x) and isinstance(y, ast.Constant) and y.value == 0
                   and not isinstance(y.value, bool)
                   for left, right in zip(operands, operands[1:])
                   for x, y in ((left, right), (right, left))):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_only_groupring_decides_integrality():
    """Integrality is decided by ``groupring.nonintegral_coefficients``
    alone, where ``val`` is used in its sound direction; elsewhere a
    valuation is compared with a floor, never with 0."""
    root = Path(resolvend.__file__).parent
    offences = {path.name: _val_compared_with_zero(ast.parse(path.read_text()))
                for path in sorted(root.glob("*.py")) if path.name != "groupring.py"}
    assert {name: found for name, found in offences.items() if found} == {}
    assert "def nonintegral_coefficients(" in (root / "groupring.py").read_text()


def test_integrality_rule_catches_each_form():
    code = ("a = model.val(c) < 0\n"
            "b = 0 > alg.val(c)\n"
            "c = model.val(c) >= 0\n"
            "d = min(map(model.val, xs)) < 0\n"
            "e = lo < model.val(c) < 0\n"
            "f = any(alg.val(v) != 0 for v in vs)\n"
            "g = model.val(c) < floor\n"
            "h = below < floor\n"
            "i = model.value(s) < 0\n"
            "j = val < 0\n"
            "k = model.val(c) < False\n")
    assert [f.split(":")[0] for f in _val_compared_with_zero(ast.parse(code))] == [
        f"line {n}" for n in range(1, 7)]



def _has_product(node: ast.AST) -> bool:
    return any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult) for n in ast.walk(node))


def _accumulated_products(tree: ast.AST) -> list[str]:
    """Statements that add a product into a running value: ``acc += x * y``,
    and ``acc = acc + x * y`` or ``out[k] = out[k] + x * y`` with the running
    value on either side of the ``+`` and the product anywhere in the other
    operand (a conditional included).  A product of accumulators and a sum
    without a product are not matched."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign):
            if isinstance(node.op, ast.Add) and _has_product(node.value):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = ast.unparse(node.targets[0])
            if any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add) and any(
                    ast.unparse(side) == target and _has_product(other)
                    for side, other in ((n.left, n.right), (n.right, n.left)))
                   for n in ast.walk(node.value)):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_sums_of_products_go_through_dot():
    """In the group-ring layer, the Laurent core and the tame checks, a sum of
    products is one ``dot``, which reduces mod Phi_N and normalises each
    output coefficient once, never a running sum of products."""
    root = Path(resolvend.__file__).parent
    offences = {name: _accumulated_products(ast.parse((root / name).read_text()))
                for name in ("groupring.py", "laurent.py", "tame.py")}
    assert {name: found for name, found in offences.items() if found} == {}


def test_accumulated_product_rule_catches_each_form():
    code = ("acc = acc + x * y\n"
            "acc = x * y + acc\n"
            "acc += x * y\n"
            "out[k] = out[k] + x * y\n"
            "acc = acc + (v * r if flag else v)\n"
            "out[s] = out[s] + v1 * v2 if s in out else v1 * v2\n"
            "acc = acc * powers[c]\n"
            "acc = acc + model.pi_power(k)\n"
            "acc += 1\n"
            "other = acc + x * y\n"
            "acc = alg.dot([(x, y)])\n")
    assert [f.split(":")[0] for f in _accumulated_products(ast.parse(code))] == [
        f"line {n}" for n in range(1, 7)]


def _public_defs(module: str, tree: ast.Module):
    """(dotted path, node, is_method) of each public module-level function
    or class and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item, True


def _lineage(name: str, bases: dict[str, list[str]]) -> list[str]:
    """The class ``name`` and its base classes in ``bases``, transitively."""
    todo, seen = [name], []
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(bases.get(cls, ()))
    return seen


def _unreferenced(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """Public names of ``sources`` (module name -> code) that no code uses
    outside their own definition, matched by name: an attribute ``.name``
    uses a method or a module-level name, except that ``Class.name`` on the
    bare name of a class of ``sources`` uses only the method ``name`` of that
    class or of its bases; a bare ``name`` uses a module-level name.
    Imports are not uses."""
    uses: dict[tuple[bool | str, str], list[tuple[str, int]]] = {}
    trees = {module: ast.parse(code) for module, code in sources.items()}
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for tree in trees.values() for node in tree.body
             if isinstance(node, ast.ClassDef)}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bases):
                keys = [(cls, node.attr) for cls in _lineage(node.value.id, bases)]
            elif isinstance(node, ast.Attribute):
                keys = [(True, node.attr), (False, node.attr)]
            elif isinstance(node, ast.Name):
                keys = [(False, node.id)]
            else:
                continue
            for key in keys:
                uses.setdefault(key, []).append((module, node.lineno))
    found = []
    for module, tree in trees.items():
        for path, node, is_method in _public_defs(module, tree):
            found_uses = uses.get((is_method, node.name), [])
            if is_method:
                found_uses = found_uses + uses.get((path.split(".")[-2], node.name), [])
            outside = [(m, line) for m, line in found_uses
                       if not (m == module and node.lineno <= line <= node.end_lineno)]
            if not outside and path not in exempt:
                found.append(path)
    return sorted(found)


def _traced_paths() -> set[str]:
    """Every attribute path in ``OPS`` of the benchmark's tracer: the tracer
    reaches those from outside the package."""
    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "OPS" for t in node.targets):
            return {path for paths in ast.literal_eval(node.value).values() for path in paths}
    raise AssertionError("perfbench/tracer.py defines no OPS")


def test_every_public_name_has_a_caller_in_the_package():
    """No public function, class or method exists only for the tests."""
    sources = {path.stem: path.read_text()
               for path in Path(resolvend.__file__).parent.glob("*.py")}
    traced = _traced_paths()
    assert "groupring.resolvend_product_transport" in traced
    assert _unreferenced(sources, traced) == []


def test_unreferenced_rule_catches_each_form():
    code = ("def used():\n    return 1\n\n"
            "def unused():\n    return used()\n\n"
            "def recursive(n):\n    return recursive(n - 1)\n\n"
            "def traced():\n    return 2\n\n"
            "def _private():\n    return 3\n\n"
            "class Kept:\n"
            "    def method(self):\n        return self.helper()\n"
            "    def helper(self):\n        return 4\n"
            "    def orphan(self):\n        return self.orphan()\n"
            "    def shadowed(self):\n        return 5\n\n"
            "class Orphan:\n    pass\n\n"
            "class A:\n    @classmethod\n    def build(cls):\n        return cls()\n\n"
            "class B:\n    @classmethod\n    def build(cls):\n        return cls()\n\n"
            "class Sub(A):\n    pass\n\n"
            "value = Kept().method()\nshadowed = value\nmade = Sub.build()\nkinds = (B,)\n")
    other = "from .m import unused\n"
    # B.build shares its name with A.build, which only Sub.build reaches
    assert _unreferenced({"m": code, "n": other}, {"m.traced"}) == [
        "m.B.build", "m.Kept.orphan", "m.Kept.shadowed", "m.Orphan", "m.recursive", "m.unused"]


def _unset_defaults(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """``path(param)`` for each defaulted parameter of a public function or
    method of ``sources`` that no call in ``sources`` sets, by position or by
    keyword.  Calls match by name as in ``_unreferenced``: ``f(...)`` and
    ``x.f(...)`` may call a module-level ``f``, and ``x.m(...)`` may call a
    method ``m``, whose first parameter is bound.  A call inside the
    definition itself does not count, and ``*args`` or ``**kwargs`` in a call
    sets every parameter it could reach."""
    calls: dict[tuple[bool, str], list[tuple[str, ast.Call]]] = {}
    trees = {module: ast.parse(code) for module, code in sources.items()}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                keys = [(False, node.func.id)]
            elif isinstance(node.func, ast.Attribute):
                keys = [(True, node.func.attr), (False, node.func.attr)]
            else:
                continue
            for key in keys:
                calls.setdefault(key, []).append((module, node))

    def sets(call: ast.Call, index: int | None, name: str) -> bool:
        """Whether ``call`` sets the parameter ``name`` (keyword-only when
        ``index`` is None)."""
        if index is not None and (len(call.args) > index or any(
                isinstance(a, ast.Starred) for a in call.args)):
            return True
        return any(kw.arg is None or kw.arg == name for kw in call.keywords)

    found = []
    for module, tree in trees.items():
        for path, node, is_method in _public_defs(module, tree):
            if not isinstance(node, ast.FunctionDef) or path in exempt:
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            bound = is_method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                          for d in node.decorator_list)
            defaulted = [(i - bound, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            callers = [call for m, call in calls.get((is_method, node.name), ())
                       if not (m == module and node.lineno <= call.lineno <= node.end_lineno)]
            for index, name in defaulted:
                if not any(sets(call, index, name) for call in callers):
                    found.append(f"{path}({name})")
    return sorted(found)


def test_every_defaulted_parameter_is_set_by_some_caller():
    """No public function or method carries a knob that the package never
    turns.  ``cli.main(argv)`` is set from outside the package, by
    ``python -m resolvend.cli`` and the benchmark's child."""
    sources = {path.stem: path.read_text()
               for path in Path(resolvend.__file__).parent.glob("*.py")}
    assert _unset_defaults(sources, {"cli.main"}) == []


def test_unset_default_rule_catches_each_form():
    code = ("def f(a, b=1, c=2, *, d=3, e=4):\n    return f(a, c=5)\n\n"
            "def g(a, b=1):\n    return a\n\n"
            "def h(a, b=1, c=2):\n    return a\n\n"
            "def exempt(a=1):\n    return a\n\n"
            "def _private(a=1):\n    return a\n\n"
            "class K:\n"
            "    def m(self, a, b=1, c=2):\n        return a\n"
            "    @staticmethod\n"
            "    def s(a, b=1):\n        return a\n\n"
            "g(1, 2)\nh(*args)\nK().m(1, 2)\nK.s(1)\nf(1, e=6)\n")
    other = "from .m import f\nf(0, d=7)\n"
    assert _unset_defaults({"m": code, "n": other}, {"m.exempt"}) == [
        "m.K.m(c)", "m.K.s(b)", "m.f(b)", "m.f(c)"]


def _third_party_imports(tree: ast.AST) -> set[str]:
    """Top-level names of the modules a file imports that are neither in
    the standard library nor relative nor ``resolvend``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return {name for name in names
            if name not in sys.stdlib_module_names and name != "resolvend"}


def test_test_dependencies_are_declared():
    """Every third-party module the tests import is in the ``test`` extra of
    pyproject.toml, which must parse as TOML."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    extra = tomllib.loads((root / "pyproject.toml").read_text())[
        "project"]["optional-dependencies"]["test"]
    declared = {re.split(r"[<>=!~\[ ;]", spec, maxsplit=1)[0] for spec in extra}
    used = set().union(*(_third_party_imports(ast.parse(path.read_text()))
                         for path in (root / "tests").glob("*.py")))
    assert used == declared == {"pytest", "hypothesis", "numpy"}
