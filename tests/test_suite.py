"""Suite runner: selection, determinism, shapes, and mutation wiring."""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd, nextafter
from pathlib import Path

import numpy as np
import pytest

from resolvend import cyclotomic, faults, groupring, suite, tame
from resolvend.cyclotomic import CycContext, CycNumber
from resolvend.errors import PreconditionError
from resolvend.groupring import Resolvend, involution
from resolvend.groups import FiniteAbelianGroup
from resolvend.localfield import LocalModel
from resolvend.stickelberger import CharacterTable, characters, pairing_sign
from resolvend.suite import (
    _exhaustive_mismatch,
    _exhaustive_verdicts,
    _integrality_columns,
    _random_cyc,
    _random_wild,
    _sampled_mismatch,
    odd_abelian_groups,
    run_suite,
)
from resolvend.wild import WildAlgebra

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


def test_fast_checks_pass_and_are_deterministic():
    first = run_suite(checks=["02", "07", "09"])
    second = run_suite(checks=["02", "07", "09"])
    assert first.ok
    assert first.to_json() == second.to_json()


def test_report_shape():
    report = run_suite(checks=["07"])
    data = report.to_json()
    assert set(data) == {"status", "counts", "entries"}
    assert data["status"] == "pass"
    assert data["counts"] == {"pass": len(report.entries), "fail": 0}
    ids = [e.check_id for e in report.entries]
    assert ids == sorted(ids)
    for e in report.entries:
        out = e.to_json()
        assert set(out) == {"check_id", "identity", "params", "status"}
        assert out["status"] == "pass"


def test_checks_filter():
    report = run_suite(checks=["07"])
    assert len(report.entries) == 5
    assert all(e.check_id.startswith("07") for e in report.entries)
    with pytest.raises(PreconditionError):
        run_suite(checks=["99-no-such-check"])
    # "" is a prefix of every check id, so it would select all of them
    for checks in (["07", ""], [""]):
        with pytest.raises(PreconditionError):
            run_suite(checks=checks)


def test_parameter_validation():
    with pytest.raises(PreconditionError):
        run_suite(max_order=2)
    with pytest.raises(PreconditionError):
        run_suite(max_order=100)
    with pytest.raises(PreconditionError):
        run_suite(p_list=(11,))
    with pytest.raises(PreconditionError):
        run_suite(e_list=(4,))


def test_timings_are_opt_in():
    plain = run_suite(checks=["09"])
    assert all(e.wall_ms is None for e in plain.entries)
    assert all("wall_ms" not in e.to_json() for e in plain.entries)
    timed = run_suite(checks=["09"], timings=True)
    assert all(isinstance(e.wall_ms, int) and e.wall_ms >= 0 for e in timed.entries)
    assert all("wall_ms" in e.to_json() for e in timed.entries)


def test_mutation_breaks_targeted_check():
    clean = run_suite(checks=["04"], e_list=(3,))
    assert clean.ok
    mutated = run_suite(mutate=faults.PAIRING_SIGN_FLIP, checks=["04"], e_list=(3,))
    assert not mutated.ok
    failed = [e for e in mutated.entries if not e.ok]
    assert failed and all(e.witness for e in failed)
    with pytest.raises(PreconditionError):
        run_suite(mutate="no-such-fault", checks=["07"])


def test_check_04_fails_when_valuations_are_overstated(monkeypatch):
    """val one too high on every nonzero element still passes every
    certificate floor; the certificate entry also needs alpha pi^(-1/e) to
    read below the floor, and that fails at each e."""
    val = LocalModel.val
    monkeypatch.setattr(LocalModel, "val", lambda self, x: val(self, x) + 1 if x.terms else val(self, x))
    report = run_suite(checks=["04"])
    failed = [(e.params["e"], e.params["aspect"], e.witness) for e in report.entries if not e.ok]
    assert failed == [(e, "certificate", f"v(alpha pi^(-1/e)) = {(1 - e) // 2} >= {(1 - e) // 2}")
                      for e in (3, 5, 7, 9)]


def test_check_04_rejects_a_non_unit_determinant(monkeypatch):
    # 3 + zeta_3 has content order 0 at 7 but norm 7, so it is not a unit
    fake = CycContext(3).zeta_power(1) + 3
    monkeypatch.setattr(tame, "basis_change_determinant", lambda *args: fake)
    report = run_suite(checks=["04"], e_list=(3,))
    failed = [e for e in report.entries if not e.ok]
    assert [e.params["aspect"] for e in failed] == ["basis-determinant"]
    assert failed[0].witness == "not a unit at some prime above 7"


def test_mutation_sensitivity_check_is_self_contained():
    report = run_suite(checks=["11"])
    assert report.ok
    assert len(report.entries) == 3


def test_odd_abelian_groups_enumeration():
    groups = list(odd_abelian_groups(27))
    assert len(groups) == 17
    assert all(g.order % 2 == 1 and 3 <= g.order <= 27 for g in groups)
    assert len({g.spec for g in groups}) == 17
    small = list(odd_abelian_groups(9))
    assert {g.spec for g in small} == {"3", "5", "7", "9", "3,3"}
    assert FiniteAbelianGroup((3, 9)) in list(odd_abelian_groups(27))


# ---- check 01: the int64 numpy route it used before, kept as the oracle


def _numpy_matrices(group):
    """The pairing matrix times L = exp(G) (characters by rows, elements
    s != 1 by columns), the character matrix and the invariant factors."""
    pair_mat = np.array(CharacterTable(group).rows, dtype=np.int64)[:, 1:] * pairing_sign()
    return (pair_mat, np.array([list(chi) for chi in characters(group)], dtype=np.int64),
            np.array(group.factors, dtype=np.int64))


def _matmul_verdicts(pair_mat, big_l, det_mat, d_vec):
    """Reference enumeration: every vector of [-2, 2]^n through the int64
    matrix products, in 8192-row chunks; returns the verdict arrays, the
    first mismatch and the count as check 01 reported them."""
    n = len(pair_mat)
    total = 5 ** n
    powers = 5 ** np.arange(n, dtype=np.int64)
    integral_parts, trivial_parts = [], []
    mismatch, checked = None, 0
    for start in range(0, total, 8192):
        stop = min(start + 8192, total)
        idx = np.arange(start, stop, dtype=np.int64)
        block = (idx[:, None] // powers[None, :]) % 5 - 2
        integral = ((block @ pair_mat) % big_l == 0).all(axis=1)
        trivial = ((block @ det_mat) % d_vec[None, :] == 0).all(axis=1)
        integral_parts.append(integral)
        trivial_parts.append(trivial)
        if mismatch is None:
            if np.array_equal(integral, trivial):
                checked += stop - start
            else:
                k = int(np.nonzero(integral != trivial)[0][0])
                mismatch = (block[k].tolist(), bool(integral[k]), bool(trivial[k]))
    return np.concatenate(integral_parts), np.concatenate(trivial_parts), mismatch, checked


def _numpy_sampled(rng, pair_mat, big_l, det_mat, d_vec):
    """Reference sampled sweep: the same 10,000 draws as int8 rows through
    the matrix products; (first mismatch or None, count, 8 sample rows)."""
    n, count = len(pair_mat), 10_000
    block = np.array(rng.choices((-2, -1, 0, 1, 2), k=count * n), dtype=np.int8).reshape(count, n)
    integral = ((block @ pair_mat) % big_l == 0).all(axis=1)
    trivial = ((block @ det_mat) % d_vec[None, :] == 0).all(axis=1)
    mismatch = None
    if not np.array_equal(integral, trivial):
        k = int(np.nonzero(integral != trivial)[0][0])
        mismatch = (block[k].tolist(), bool(integral[k]), bool(trivial[k]))
    return mismatch, count, [block[rng.randrange(count)].tolist() for _ in range(8)]


def _bits(flags) -> int:
    """A boolean array as an int whose bit k is flags[k]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _planted(group):
    """(name, pair_mat, pair_cols) for the clean pairing and two planted
    faults, each made alike in the matrix and in the integer columns: one
    entry off by one, and +1 and -1 in the two top characters' rows, which
    stay invisible until their digits differ."""
    pair_mat, _, _ = _numpy_matrices(group)
    _, pair_cols, _ = _integrality_columns(group)
    n, big_l = group.order, group.exponent
    out = [("clean", pair_mat, pair_cols)]
    for name, shifts in (("one-entry", [(n // 2, n // 3, 1)]),
                         ("top-pair", [(n - 1, 0, 1), (n - 2, 0, -1)])):
        mat, cols = pair_mat.copy(), [list(col) for col in pair_cols]
        for chi, s, step in shifts:
            mat[chi, s] += step
            cols[s][chi] = (cols[s][chi] + step) % big_l
        out.append((name, mat, cols))
    return out


@pytest.mark.parametrize("group", odd_abelian_groups(9), ids=lambda g: g.spec)
def test_meet_in_the_middle_matches_matmul_enumeration(group):
    """Every verdict, the first mismatch and the count equal the reference,
    clean and planted; the planted single entry is caught at every order,
    and at order 9 the planted pair shows first at row 78,135, count 73,728."""
    _, det_mat, d_vec = _numpy_matrices(group)
    _, _, det_cols = _integrality_columns(group)
    big_l, found = group.exponent, {}
    for name, pair_mat, pair_cols in _planted(group):
        ref_integral, ref_trivial, *ref = _matmul_verdicts(pair_mat, big_l, det_mat, d_vec)
        blocks = list(_exhaustive_verdicts(pair_cols, det_cols, big_l))
        size = 5 ** ((group.order + 1) // 2)
        assert [start for start, _, _ in blocks] == list(range(0, 5 ** group.order, size))
        for start, integral, trivial in blocks:
            assert integral == _bits(ref_integral[start:start + size])
            assert trivial == _bits(ref_trivial[start:start + size])
        found[name] = _exhaustive_mismatch(pair_cols, det_cols, big_l)
        assert list(found[name]) == ref
    assert found["clean"] == (None, 5 ** group.order)
    assert found["one-entry"][0] is not None
    if group.order == 9:
        assert found["top-pair"][1] == 73_728


SAMPLED_GROUPS = [FiniteAbelianGroup(spec) for spec in ((11,), (5, 5), (3, 9), (3, 3, 3))]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("group", SAMPLED_GROUPS, ids=lambda g: g.spec)
def test_sampled_sweep_matches_the_numpy_reference(group, seed):
    """Same draws, same first mismatch, count and 8 sample rows, and the
    generator ends in the same state, clean and with one planted entry."""
    _, det_mat, d_vec = _numpy_matrices(group)
    _, _, det_cols = _integrality_columns(group)
    for name, pair_mat, pair_cols in _planted(group)[:2]:
        fast = random.Random(f"{seed}:integrality:{group.spec}")
        slow = random.Random(f"{seed}:integrality:{group.spec}")
        got = _sampled_mismatch(fast, pair_cols, det_cols, group.exponent)
        assert got == _numpy_sampled(slow, pair_mat, group.exponent, det_mat, d_vec)
        assert fast.getstate() == slow.getstate()
        assert (got[0] is None) == (name == "clean")


def test_default_suite_report_bytes_are_pinned():
    expected = json.loads(DIGESTS.read_text())["suite-cold"]["0"]
    text = json.dumps(run_suite(seed=0).to_json(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def _random_cyc_by_sums(rng: random.Random, ctx: CycContext):
    """Check 10's coefficient builder as a sum of scaled powers of zeta, the
    loop the one-constructor builder replaced, kept as an oracle."""
    c = ctx.zero()
    for k in range(ctx.phi):
        c = c + ctx.zeta_power(k) * rng.randint(-2, 2)
    if rng.random() < Fraction(1, 4):
        c = c * Fraction(1, rng.choice((2, 3)))
    return c


def _random_wild_by_sums(rng: random.Random, alg: WildAlgebra):
    """Check 08's element builder with the same summed coefficients."""
    x = alg.zero()
    for _ in range(3):
        exps = [rng.randint(-2, 2) for _ in range(alg.copies * (alg.p - 1))]
        coeff = alg.ctx.zero()
        for k in range(alg.ctx.phi):
            coeff = coeff + alg.ctx.zeta_power(k) * rng.randint(-2, 2)
        if not coeff.is_zero():
            x = x + alg.monomial(exps, coeff)
    return x


@pytest.mark.parametrize("build, oracle, algebras", [
    (_random_cyc, _random_cyc_by_sums, lambda: [CycContext(3), CycContext(21)]),
    (_random_wild, _random_wild_by_sums, lambda: [WildAlgebra(3), WildAlgebra(5),
                                                  WildAlgebra(3, copies=2)]),
], ids=["cyclotomic", "wild"])
def test_random_inputs_match_the_summing_builders(build, oracle, algebras):
    """Same values from the same draws in the same order, so the generator
    ends in the same state."""
    for i, alg in enumerate(algebras()):
        fast, slow = random.Random(f"inputs:{i}"), random.Random(f"inputs:{i}")
        for _ in range(300):
            assert build(fast, alg) == oracle(slow, alg)
            assert fast.getstate() == slow.getstate()


class _Draws:
    """A stand-in generator that replays fixed ``random()`` values."""

    def __init__(self, values):
        self.values = list(values)

    def randint(self, a, b):
        return 1

    def random(self):
        return self.values.pop(0)

    def choice(self, seq):
        return seq[0]


def test_quarter_test_decides_each_draw_exactly():
    """A denominator exactly when the draw is below 1/4, as the Fraction
    comparison decides; the float next to 1/4 on either side included."""
    ctx = CycContext(3)
    below, above = nextafter(0.25, 0), nextafter(0.25, 1)
    for draw in (0.0, below, 0.25, above, 0.5, nextafter(1.0, 0)):
        assert (_random_cyc(_Draws([draw]), ctx).den == 2) == (draw < Fraction(1, 4))


def test_check_10_builds_every_number_in_lowest_terms(monkeypatch):
    built, bad = [0], []

    def check(x):
        built[0] += 1
        if not (x.den > 0 and gcd(x.den, *x.num) == 1):
            bad.append(x)
        return x

    init, lowest = CycNumber.__init__, cyclotomic._lowest

    def checked_init(self, *args):
        init(self, *args)
        check(self)

    monkeypatch.setattr(CycNumber, "__init__", checked_init)
    monkeypatch.setattr(cyclotomic, "_lowest", lambda *args: check(lowest(*args)))
    assert run_suite(checks=["10"]).ok
    assert bad == []
    assert built[0] > 50_000


def test_checks_05_and_06_read_inverses_through_the_table(monkeypatch):
    """A wrong inverse planted in the conductor-57 table, one that leaves
    the integers at 7, fails both checks: neither inverts around it."""
    ctx = CycContext(57)
    assert run_suite(checks=["05", "06"]).ok
    assert ctx.inverses
    for key, inv in list(ctx.inverses.items()):
        monkeypatch.setitem(ctx.inverses, key, inv * Fraction(1, 7))
    report = run_suite(checks=["05", "06"])
    assert {e.check_id for e in report.entries if not e.ok} == {
        "05-decompose-roundtrip", "06-transport-closure"}


def test_check_10_fails_on_a_product_that_drops_a_cross_term(monkeypatch):
    """A convolution that loses one term s1 != s2 breaks the identity at the
    first pair for both algebras."""

    def dropping_product(a1, a2):
        group, out, dropped = a1.group, {}, False
        for s1, v1 in a1.values.items():
            for s2, v2 in a2.values.items():
                if s1 != s2 and not dropped:
                    dropped = True
                    continue
                s = group.add(s1, s2)
                out[s] = out[s] + v1 * v2 if s in out else v1 * v2
        return Resolvend(group, a1.algebra, out)

    monkeypatch.setattr(groupring, "resolvend_product_transport", dropping_product)
    entries = run_suite(checks=["10"]).entries
    assert [(e.params["algebra"], e.status, e.witness) for e in entries] == [
        ("cyclotomic", "fail", "pair 0"), ("fractional-power", "fail", "pair 0")]


def test_check_10_catches_a_trace_side_shifted_by_sub(monkeypatch):
    """sum_t a(t s^-1) b(t) in place of sum_t a(t s) b(t): the random pairs
    are not symmetric under s -> s^-1, so the first one exposes it."""

    def sub_shifted_check(a, b):
        group, alg = a.group, a.algebra
        values = {}
        for s in group.elements():
            acc = alg.zero()
            for t, bt in b.values.items():
                acc = acc + a.value(group.sub(t, s)) * bt
            values[s] = acc
        return a * involution(b) == Resolvend(group, alg, values)

    monkeypatch.setattr(suite, "trace_pairing_identity_check", sub_shifted_check)
    entries = run_suite(checks=["10"]).entries
    assert [(e.status, e.witness) for e in entries] == [("fail", "pair 0")] * 2
