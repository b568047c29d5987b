"""Command-line interface: envelopes, exit codes, determinism."""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resolvend
from resolvend import cli, tame
from resolvend.cli import main
from resolvend.cyclotomic import CycContext


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_pairing_json_envelope(capsys):
    code, out = run_cli(capsys, "pairing", "--group", "3")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"command", "params", "result", "status"}
    assert data["command"] == "pairing"
    assert data["status"] == "ok"
    assert data["params"]["group"] == "3"
    result = data["result"]
    assert result["characters"] == ["0", "1", "2"]
    assert result["elements"] == ["0", "1", "2"]
    assert result["matrix"][1][1] == "1/3"
    assert result["matrix"][1][2] == "-1/3"
    assert result["matrix"][0] == ["0", "0", "0"]


def test_pairing_csv_is_raw(capsys):
    code, out = run_cli(capsys, "pairing", "--group", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "character,0,1,2"
    assert len(lines) == 4
    assert not out.lstrip().startswith("{")


def test_kernel_basis(capsys):
    code, out = run_cli(capsys, "kernel-basis", "--group", "3,3")
    data = json.loads(out)
    assert code == 0
    assert data["result"]["lattice_index"] == 9
    assert len(data["result"]["vectors"]) == 9


def test_theta_integral_and_not(capsys):
    code, out = run_cli(capsys, "theta", "--group", "3", "--psi", "1:3")
    data = json.loads(out)
    assert code == 0
    result = data["result"]
    assert result["integral"] and result["det_trivial"] and result["in_kernel"]
    assert result["theta"]["1"] == "1"

    code, out = run_cli(capsys, "theta", "--group", "3", "--psi", "1:1")
    data = json.loads(out)
    assert code == 0  # the command reports; non-integrality is not a failure
    result = data["result"]
    assert not result["integral"] and not result["det_trivial"]
    assert result["theta"]["1"] == "1/3"


def test_different(capsys):
    code, out = run_cli(capsys, "different", "--filtration", "3,3,1")
    data = json.loads(out)
    assert code == 0
    assert data["result"] == {"orders": [3, 3, 1], "v_D": 4, "v_A": -2,
                              "weakly_ramified": True,
                              "abelian_filtration_ok": True}
    # odd different valuation reports a null square-root entry
    code, out = run_cli(capsys, "different", "--filtration", "2")
    data = json.loads(out)
    assert code == 0
    assert data["result"]["v_D"] == 1
    assert data["result"]["v_A"] is None


def test_tame_gen(capsys):
    code, out = run_cli(capsys, "tame-gen", "--group", "3", "--e", "3",
                        "--q", "7", "--s", "1")
    data = json.loads(out)
    assert code == 0
    assert data["status"] == "ok"
    result = data["result"]
    assert result["certificate"]["ok"]
    assert result["inversion_identity"]
    assert result["basis_change_unit"]
    assert all(row["matches_pi_power"] for row in result["resolvents"])
    assert len(result["generator"]) == 3


def test_tame_gen_rejects_a_non_unit_determinant(capsys, monkeypatch):
    # 3 + zeta_3 has content order 0 at 7 but norm 7, so it is not a unit
    fake = CycContext(3).zeta_power(1) + 3
    monkeypatch.setattr(tame, "basis_change_determinant", lambda *args: fake)
    code, out = run_cli(capsys, "tame-gen", "--group", "3", "--e", "3",
                        "--q", "7", "--s", "1")
    data = json.loads(out)
    assert code == 1
    assert data["status"] == "fail"
    assert data["result"]["basis_change_unit"] is False
    assert data["result"]["certificate"]["ok"]


def test_tame_gen_rejects_short_conductor(capsys):
    """The group exponent 9 needs order-9 roots that conductor 3 lacks; the
    resolvent table's root of unity catches it."""
    code, out = run_cli(capsys, "tame-gen", "--group", "9", "--e", "3",
                        "--q", "7", "--s", "3", "--conductor", "3")
    data = json.loads(out)
    assert code == 2
    assert data["status"] == "error"
    assert data["result"]["error"] == "conductor 3 lacks order-9 roots"


def test_wild_verify(capsys):
    code, out = run_cli(capsys, "wild-verify", "--p", "3")
    data = json.loads(out)
    assert code == 0
    result = data["result"]
    assert all(prop["holds"] for prop in result["propositions"])
    statements = {prop["statement"] for prop in result["propositions"]}
    assert len(statements) == 6


def test_suite_minimal(capsys):
    code, out = run_cli(capsys, "suite", "--max-order", "9", "--p", "3",
                        "--e", "3", "--checks", "07,09")
    data = json.loads(out)
    assert code == 0
    assert data["status"] == "ok"
    assert data["result"]["counts"]["fail"] == 0


@pytest.mark.parametrize("checks", ["", ",", "07,"], ids=["empty", "comma", "trailing-comma"])
def test_suite_rejects_an_empty_check_prefix(capsys, checks):
    # each of these holds an empty prefix, which would otherwise select every check
    code, out = run_cli(capsys, "suite", "--checks", checks)
    data = json.loads(out)
    assert code == 2
    assert data["status"] == "error"
    assert data["result"]["error"] == "an empty check prefix would select every check"


def test_suite_mutation_exit_code(capsys):
    code, out = run_cli(capsys, "suite", "--checks", "04", "--e", "3",
                        "--mutate", "pairing-sign-flip")
    data = json.loads(out)
    assert code == 1
    assert data["status"] == "fail"
    assert data["result"]["counts"]["fail"] > 0


def test_error_envelope_and_exit_2(capsys):
    code, out = run_cli(capsys, "suite", "--max-order", "100")
    data = json.loads(out)
    assert code == 2
    assert data["status"] == "error"
    assert "error" in data["result"]


def test_domain_error_exit_2(capsys):
    # a tame-gen whose degree does not divide q - 1
    code, out = run_cli(capsys, "tame-gen", "--group", "5", "--e", "5",
                        "--q", "7", "--s", "1")
    data = json.loads(out)
    assert code == 2
    assert data["status"] == "error"


@pytest.mark.parametrize("spec, factor", [("3,-3", "-3"), ("0", "0"), ("1", "1")],
                         ids=["negative", "zero", "one"])
def test_a_factor_below_2_exits_2_and_says_so(capsys, spec, factor):
    code, out = run_cli(capsys, "pairing", "--group", spec)
    data = json.loads(out)
    assert code == 2
    assert data["status"] == "error"
    assert data["result"]["error"] == f"cyclic factor {factor} is below 2"


def test_bad_filtration_exits_2(capsys):
    code, out = run_cli(capsys, "different", "--filtration", "a,b")
    data = json.loads(out)
    assert code == 2
    assert data["status"] == "error"
    assert "a,b" in data["result"]["error"]


def test_size_cap_exits_2_before_any_context(capsys):
    before = dict(CycContext._cache)
    tame = ["tame-gen", "--group", "3", "--e", "3", "--q", "7", "--s", "1"]
    for argv in (tame + ["--conductor", "100001"],
                 ["tame-gen", "--group", "100001", "--e", "3", "--q", "7", "--s", "1"],
                 ["tame-gen", "--group", "3", "--e", "3", "--q", str(10**30 + 57), "--s", "1"],
                 ["pairing", "--group", "100001"],
                 ["kernel-basis", "--group", "3,100001"],
                 ["theta", "--group", "100001", "--psi", "1:1"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        data = json.loads(captured.out)
        assert data["status"] == "error"
        assert "exceeds the limit" in data["result"]["error"]
    assert CycContext._cache == before


def test_tame_gen_work_cap_exits_2_before_any_context(capsys):
    before = dict(CycContext._cache)
    # e^4 phi(N)^2 is 1.7e8 and 1.3e11: each ran for 10 s to minutes
    for argv in (["tame-gen", "--group", "27", "--e", "27", "--q", "109", "--s", "1"],
                 ["tame-gen", "--group", "81", "--e", "81", "--q", "163", "--s", "1"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        data = json.loads(captured.out)
        assert data["status"] == "error"
        assert "exceeds the limit" in data["result"]["error"]
    assert CycContext._cache == before
    # the largest cases the benchmark runs stay inside the cap
    for argv in (["--group", "3,3", "--e", "3", "--q", "7", "--s", "1,0", "--conductor", "57"],
                 ["--group", "9", "--e", "9", "--q", "19", "--s", "1"]):
        code, out = run_cli(capsys, "tame-gen", *argv)
        assert code == 0
        assert json.loads(out)["status"] == "ok"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["pairing"])  # missing --group
    assert exc.value.code == 2


def test_byte_determinism(capsys):
    _, first = run_cli(capsys, "suite", "--checks", "09")
    _, second = run_cli(capsys, "suite", "--checks", "09")
    assert first == second


def _child_env() -> dict:
    """The environment for a child interpreter that imports the package from
    where this process found it."""
    root = str(Path(resolvend.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "resolvend.cli", "different", "--filtration", "5"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["result"]["v_D"] == 4
    assert data["result"]["v_A"] == -2


def test_check_01_leaves_numpy_unloaded():
    # check 01 runs both its exhaustive and its sampled mode at the default
    # max order, in plain integers
    code = ("import sys\nfrom resolvend.suite import run_suite\n"
            "report = run_suite(checks=['01'])\n"
            "assert report.ok and {e.params['mode'] for e in report.entries} == "
            "{'exhaustive', 'sampled'}\n"
            "assert 'numpy' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr


# -- what each command loads ---------------------------------------------------

PARSER_MODULES = {"cli", "errors", "faults", "groups"}
STICKELBERGER_MODULES = PARSER_MODULES | {"stickelberger", "cyclotomic", "intlinalg"}
# (arguments, the package modules a fresh interpreter holds after the command)
COMMAND_MODULES = [
    (["pairing", "--group", "27"], STICKELBERGER_MODULES),
    (["pairing", "--group", "3,9", "--format", "csv"], STICKELBERGER_MODULES),
    (["kernel-basis", "--group", "3,3,3"], STICKELBERGER_MODULES),
    (["theta", "--group", "27", "--psi", "1:2,3:-1"], STICKELBERGER_MODULES),
    (["different", "--filtration", "9,3,3,1"],
     PARSER_MODULES | {"localfield", "laurent", "cyclotomic"}),
    (["tame-gen", "--group", "3", "--e", "3", "--q", "7", "--s", "1"],
     STICKELBERGER_MODULES | {"tame", "groupring", "localfield", "laurent"}),
    (["wild-verify", "--p", "3"], STICKELBERGER_MODULES | {"wild", "groupring", "laurent"}),
    (["suite", "--checks", "09"], STICKELBERGER_MODULES | {
        "suite", "tame", "wild", "groupring", "localfield", "laurent"}),
]

_LOADED = ("import sys\nfrom resolvend import cli\n"
           "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
           "sys.stderr.write(' '.join(sorted(name.partition('.')[2] for name in sys.modules\n"
           "                                 if name.startswith('resolvend.'))))\n"
           "sys.exit(code)\n")


def _run_and_list_modules(argv) -> tuple[bytes, set]:
    """Stdout of ``cli.main(argv)`` in a fresh interpreter, and the package
    modules loaded there when it returns."""
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, set(proc.stderr.decode().split())


def test_importing_the_cli_loads_only_the_parser_modules():
    assert _run_and_list_modules([]) == (b"", PARSER_MODULES)


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES,
                         ids=[" ".join(argv) for argv, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(capsys, argv, modules):
    """A cold command imports what its handler calls and nothing more, and
    prints the same bytes as the in-process ``main``."""
    stdout, loaded = _run_and_list_modules(argv)
    assert loaded == modules
    assert main(argv) == 0
    assert stdout == capsys.readouterr().out.encode()


# -- the parser ----------------------------------------------------------------


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_help_text_exits_0(capsys):
    subcommands = list(_subparsers(cli.build_parser()))
    assert len(subcommands) == 7
    for argv in [["--help"]] + [[name, "--help"] for name in subcommands]:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0, argv
        assert capsys.readouterr().out.startswith("usage: resolvend"), argv


def test_parser_bounds_are_the_suite_bounds():
    from resolvend import groups, suite

    assert (suite.MAX_ORDER, suite.ALLOWED_P, suite.ALLOWED_E) == (
        groups.MAX_ORDER, groups.ALLOWED_P, groups.ALLOWED_E) == (27, (3, 5, 7), (3, 5, 7, 9))
    parser = cli.build_parser()
    args = parser.parse_args(["suite"])
    assert args.max_order == suite.MAX_ORDER
    assert args.p == ",".join(map(str, suite.ALLOWED_P))
    assert args.e == ",".join(map(str, suite.ALLOWED_E))
    (p_option,) = [a for a in _subparsers(parser)["wild-verify"]._actions if a.dest == "p"]
    assert tuple(p_option.choices) == suite.ALLOWED_P


def test_internal_error_exits_3_with_an_envelope(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli, "cmd_different", broken)
    code = main(["different", "--filtration", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ""
    data = json.loads(captured.out)  # exactly one JSON document
    assert data == {"command": "different", "params": {"filtration": "5"},
                    "result": {"error": "internal error: RuntimeError: planted"},
                    "status": "error"}


def test_double_dash_value_exits_2(capsys):
    # argparse before Python 3.12 turns --opt=-- into [] without type or choices checks
    for argv in (["pairing", "--group=--"], ["pairing", "--group=3", "--format=--"],
                 ["tame-gen", "--group=3", "--e=3", "--q=--", "--s=1"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        data = json.loads(captured.out)
        assert data["status"] == "error"
        assert "has no value" in data["result"]["error"]


# -- fuzzed arguments ---------------------------------------------------------

STATUS_OF_EXIT = {0: "ok", 1: "fail", 2: "error"}
JUNK = st.text(alphabet="0123456789,.:- +xe", max_size=8)


def _comma_ints(lo: int, hi: int, max_size: int = 3):
    return st.lists(st.integers(lo, hi), max_size=max_size).map(
        lambda xs: ",".join(map(str, xs)))


def _order_at_most_27(spec: str) -> bool:
    """Keeps the fuzzed groups small: a spec that parses must have order <= 27."""
    try:
        return prod(abs(int(part)) for part in spec.split(",")) <= 27
    except ValueError:
        return True


GROUPS = st.one_of(st.sampled_from(["3", "5", "7", "9", "3,3", "15", "21", "25", "27", "3,9"]),
                   _comma_ints(-3, 27), JUNK).filter(_order_at_most_27)
PSI = st.one_of(
    st.lists(st.tuples(st.lists(st.integers(-30, 30), min_size=1, max_size=2),
                       st.integers(-10**6, 10**6)), min_size=1, max_size=4).map(
        lambda terms: ",".join(".".join(map(str, img)) + f":{c}" for img, c in terms)),
    JUNK)
ELEMENTS = st.one_of(_comma_ints(-30, 30), JUNK)
# working tame-gen inputs (group, e, q, s); each runs in at most 0.3 s
TAME_INPUTS = [("3", 3, 7, "1"), ("3,3", 3, 7, "1,0"), ("5", 5, 11, "1"), ("7", 7, 29, "1"),
               ("9", 9, 19, "1"), ("3,9", 9, 37, "0,1"), ("25", 5, 11, "5"),
               ("27", 9, 19, "3"), ("11", 11, 23, "1")]


def _argv(command: str, data) -> list[str]:
    """Option values as --opt=value, so that a value starting with '-' is not
    read as a flag."""
    draw = data.draw
    if command == "pairing":
        return [f"--group={draw(GROUPS)}", f"--format={draw(st.sampled_from(['json', 'csv']))}"]
    if command == "kernel-basis":
        return [f"--group={draw(GROUPS)}"]
    if command == "theta":
        return [f"--group={draw(GROUPS)}", f"--psi={draw(PSI)}"]
    if command == "different":
        return [f"--filtration={draw(st.one_of(_comma_ints(-5, 10**6, 5), JUNK))}"]
    # tame-gen: a working input with at most two of its values replaced,
    # which keeps e <= 15 and the conductor N <= 30
    values = dict(zip(("group", "e", "q", "s"), draw(st.sampled_from(TAME_INPUTS))))
    values["conductor"] = "0"
    fuzzed = {"group": GROUPS, "e": st.integers(-3, 15), "q": st.integers(-3, 40),
              "s": ELEMENTS, "conductor": st.integers(-3, 30)}
    for name in draw(st.sets(st.sampled_from(sorted(fuzzed)), max_size=2)):
        values[name] = draw(fuzzed[name])
    return [f"--{name}={value}" for name, value in values.items()]


@pytest.mark.parametrize("command", ["pairing", "kernel-basis", "theta", "different", "tame-gen"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_arguments_keep_the_contract(command, data):
    """Any value of any option exits 0, 1 or 2 with one JSON envelope whose
    status matches the exit code, and writes nothing to stderr."""
    argv = [command] + _argv(command, data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert err.getvalue() == "", argv
    assert code in STATUS_OF_EXIT, argv
    if command == "pairing" and "--format=csv" in argv and code == 0:
        assert out.getvalue().startswith("character,"), argv
        return
    envelope = json.loads(out.getvalue())
    assert set(envelope) == {"command", "params", "result", "status"}, argv
    assert envelope["status"] == STATUS_OF_EXIT[code], argv
