"""Source rules that hold for the whole package."""
from __future__ import annotations

import ast
from pathlib import Path

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
