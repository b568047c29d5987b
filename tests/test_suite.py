"""Suite runner: selection, determinism, shapes, and mutation wiring."""
from __future__ import annotations

import hashlib
import inspect
import json
import random
import textwrap
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from resolvend import cyclotomic, faults, groupring, laurent, suite, tame
from resolvend.cyclotomic import CycContext, CycNumber
from resolvend.errors import NotInvertibleError, PreconditionError
from resolvend.groupring import Resolvend, involution
from resolvend.groups import FiniteAbelianGroup
from resolvend.localfield import LocalModel, PuiseuxElement
from resolvend.tame import build_model
from resolvend.stickelberger import CharacterTable, pairing_sign
from resolvend.suite import (
    _below,
    _digits,
    _entry,
    _exhaustive_mismatch,
    _exhaustive_verdicts,
    _integrality_columns,
    _random_cyc,
    _random_local,
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
    assert all(e.witness is None for e in mutated.entries if e.ok)
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


def test_check_06_fails_when_valuations_are_overstated(monkeypatch):
    """The same overstated val passes check 06's certificates too; its
    inverse and translation entries also need the certified maps to reach
    the floor -1, and every one of them then reads 0."""
    val = LocalModel.val
    monkeypatch.setattr(LocalModel, "val", lambda self, x: val(self, x) + 1 if x.terms else val(self, x))
    report = run_suite(checks=["06"])
    failed = [(e.params["aspect"], e.witness) for e in report.entries if not e.ok]
    loose = "min v of the map's values = 0 != -1"
    assert failed == [("inverse", loose), ("translation", f"twist by (0,); {loose}")]


def test_check_04_rejects_a_non_unit_determinant(monkeypatch):
    # 3 + zeta_3 has content order 0 at 7 but norm 7, so it is not a unit
    fake = CycContext(3).zeta_power(1) + 3
    monkeypatch.setattr(tame, "basis_change_determinant", lambda *args: fake)
    report = run_suite(checks=["04"], e_list=(3,))
    failed = [e for e in report.entries if not e.ok]
    assert [e.params["aspect"] for e in failed] == ["basis-determinant"]
    assert failed[0].witness == "not a unit at some prime above 7"


def test_an_aborted_check_reports_in_place_and_in_check_order(monkeypatch):
    """An error raised inside check 04 ends that check with one abort entry
    after the entries it already yielded; the checks run in CHECKS order,
    not in the order they were asked for."""

    def raising(*args):
        raise NotInvertibleError("no inverse")

    monkeypatch.setattr(suite, "inversion_identity_check", raising)
    entries = run_suite(checks=["07", "04"], e_list=(3,)).entries
    assert [(e.check_id, e.params.get("aspect"), e.status) for e in entries] == [
        ("04-ramified-generator", "resolvent-table", "pass"),
        ("04-ramified-generator", None, "fail"),
        *[("07-filtration-valuations", aspect, "pass")
          for aspect in ("tame", "wild", "wild", "wild", "negative")]]
    abort = entries[1]
    assert abort.identity == "check aborted by a raised error"
    assert abort.params == {"seed": 0}
    assert abort.witness == "NotInvertibleError: no inverse"
    assert [e.params.get("p") for e in entries[3:6]] == [3, 5, 7]
    assert all(e.witness is None for e in entries if e.ok)


def test_entry_keeps_only_a_failing_non_empty_witness():
    assert _entry("x", "identity", {}, True, "ignored").witness is None
    assert _entry("x", "identity", {}, True).to_json() == {
        "check_id": "x", "identity": "identity", "params": {}, "status": "pass"}
    assert _entry("x", "identity", {}, False, "").witness is None
    assert "witness" not in _entry("x", "identity", {}, False, "").to_json()
    assert _entry("x", "identity", {}, False).witness is None
    assert _entry("x", "identity", {}, False, "first counterexample").witness == (
        "first counterexample")


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
    return (pair_mat, np.array([list(chi) for chi in group.elements()], dtype=np.int64),
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


def _reference_digits(rng, k):
    """Check 01's digit reader as a plain loop: a generator byte below 250
    gives its residue mod 5, any other is skipped, and a short read is
    topped up with as many bytes as are still missing."""
    out = []
    while len(out) < k:
        m = k - len(out)
        for byte in rng.getrandbits(8 * m).to_bytes(m, "little"):
            if byte < 250:
                out.append(byte % 5)
    return out[:k]


def _numpy_sampled(rng, pair_mat, big_l, det_mat, d_vec):
    """Reference sampled sweep: the same 10,000 draws as int8 rows through
    the matrix products; (first mismatch or None, count)."""
    n, count = len(pair_mat), 10_000
    block = np.array(_reference_digits(rng, count * n), dtype=np.int8).reshape(count, n) - 2
    integral = ((block @ pair_mat) % big_l == 0).all(axis=1)
    trivial = ((block @ det_mat) % d_vec[None, :] == 0).all(axis=1)
    mismatch = None
    if not np.array_equal(integral, trivial):
        k = int(np.nonzero(integral != trivial)[0][0])
        mismatch = (block[k].tolist(), bool(integral[k]), bool(trivial[k]))
    return mismatch, count


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
    """Same draws, same first mismatch and count, and the generator ends in
    the same state, clean and with one planted entry."""
    _, det_mat, d_vec = _numpy_matrices(group)
    _, _, det_cols = _integrality_columns(group)
    for name, pair_mat, pair_cols in _planted(group)[:2]:
        fast = random.Random(f"{seed}:integrality:{group.spec}")
        slow = random.Random(f"{seed}:integrality:{group.spec}")
        got = _sampled_mismatch(fast, pair_cols, det_cols, group.exponent)
        assert got == _numpy_sampled(slow, pair_mat, group.exponent, det_mat, d_vec)
        assert fast.getstate() == slow.getstate()
        assert (got[0] is None) == (name == "clean")


@pytest.mark.parametrize("k", [1, 9, 8 * 27])
def test_digits_are_the_reference_byte_reader(k):
    """Same digits from the same bytes, and the generator ends in the same
    state, for draws as short as check 01's cross-check rows; the sampled
    sweep test covers the long ones."""
    fast, slow = random.Random(f"digits:{k}"), random.Random(f"digits:{k}")
    assert _digits(fast, k) == bytes(_reference_digits(slow, k))
    assert fast.getstate() == slow.getstate()


def test_check_01_report_does_not_depend_on_the_rows_drawn(monkeypatch):
    """A passing entry reports no row, so check 01 reads the same under a
    second uniform reader on differently keyed generators; the patched
    reader serves every sampled sweep and every cross-check draw."""
    expected = json.dumps(run_suite(checks=["01"], seed=0).to_json(), sort_keys=True)
    calls = []

    def other_digits(rng, k):
        calls.append(k)
        return bytearray(_reference_digits(random.Random(f"other:{rng.getrandbits(32)}"), k))

    monkeypatch.setattr(suite, "_digits", other_digits)
    report = run_suite(checks=["01"], seed=0)
    assert json.dumps(report.to_json(), sort_keys=True) == expected
    groups = odd_abelian_groups(27)
    assert len(calls) == len(groups) + sum(g.order > 9 for g in groups)


def test_below_is_randrange():
    for n in [*range(1, 71), 5 ** 9]:
        fast, slow = random.Random(f"below:{n}"), random.Random(f"below:{n}")
        assert [_below(fast.getrandbits, n) for _ in range(50)] == [
            slow.randrange(n) for _ in range(50)]
        assert fast.getstate() == slow.getstate()


def test_default_suite_report_bytes_are_pinned():
    expected = json.loads(DIGESTS.read_text())["suite-cold"]["0"]
    text = json.dumps(run_suite(seed=0).to_json(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == expected


# SHA-256 over the concatenated SHA-256 hex digests of the seed-3 report and
# of the seed-0 report under each fault, in faults.ALL_FAULTS order.
SEED_3_AND_FAULTS_DIGEST = "7fb306216f3c470073ac0fc5a4c02aa7a3e62c2e94976595aaf243fe677491c8"


def test_seed_3_and_faulted_report_bytes_are_pinned():
    reports = [run_suite(seed=3)] + [run_suite(seed=0, mutate=f) for f in faults.ALL_FAULTS]
    digests = "".join(hashlib.sha256(json.dumps(r.to_json(), sort_keys=True, indent=2).encode())
                      .hexdigest() for r in reports)
    assert hashlib.sha256(digests.encode()).hexdigest() == SEED_3_AND_FAULTS_DIGEST


def _random_cyc_by_sums(rng: random.Random, ctx: CycContext):
    """Check 10's coefficient builder as a sum of scaled powers of zeta, the
    loop the one-constructor builder replaced, kept as an oracle."""
    c = ctx.zero()
    for k in range(ctx.phi):
        c = c + ctx.zeta_power(k) * rng.randint(-2, 2)
    if rng.random() < Fraction(1, 4):
        c = c * Fraction(1, rng.choice((2, 3)))
    return c


def _random_local_by_monomials(rng: random.Random, model: LocalModel):
    """Check 10's Puiseux builder through ``monomial`` and Fraction exponents."""
    x = model.zero()
    for _ in range(rng.randint(1, 2)):
        x = x + model.monomial(Fraction(rng.randint(-3, 3), 3), _random_cyc_by_sums(rng, model.ctx))
    return x


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
    (_random_local, _random_local_by_monomials, lambda: [build_model(3, 7),
                                                         build_model(3, 7, conductor=57)]),
], ids=["cyclotomic", "wild", "puiseux"])
def test_random_inputs_match_the_summing_builders(build, oracle, algebras):
    """Same values from the same draws in the same order, so the generator
    ends in the same state."""
    for i, alg in enumerate(algebras()):
        fast, slow = random.Random(f"inputs:{i}"), random.Random(f"inputs:{i}")
        for _ in range(300):
            assert build(fast, alg) == oracle(slow, alg)
            assert fast.getstate() == slow.getstate()


def _random_cyc_by_scaling(rng: random.Random, ctx: CycContext):
    """Check 10's coefficient builder as an integral CycNumber scaled by a
    Fraction, the route the one-constructor builder replaced, kept as an
    oracle."""
    bits = rng.getrandbits
    c = CycNumber(ctx, [_below(bits, 5) - 2 for _ in range(ctx.phi)])
    if bits(64) & 0xC0000000 == 0:
        c = c * Fraction(1, 2 + _below(bits, 2))
    return c


def _random_local_by_sums(rng: random.Random, model: LocalModel):
    """Check 10's Puiseux builder as a sum of one-term elements, the route
    the one-element builder replaced, kept as an oracle."""
    bits, x = rng.getrandbits, model.zero()
    for _ in range(1 + _below(bits, 2)):
        x = x + PuiseuxElement(model, {_below(bits, 7) - 3: _random_cyc_by_scaling(rng, model.ctx)})
    return x


@pytest.mark.parametrize("build, oracle, algebra", [
    (_random_cyc, _random_cyc_by_scaling, lambda: CycContext(3)),
    (_random_local, _random_local_by_sums, lambda: build_model(3, 7)),
], ids=["cyclotomic", "puiseux"])
@pytest.mark.parametrize("seed", [0, 3, 17])
def test_check_10_draws_match_the_scaling_builders(build, oracle, algebra, seed):
    """Same values from the same generator bits, and the same generator
    state after 2,000 draws, so check 10's inputs are unchanged."""
    alg = algebra()
    fast, slow = random.Random(f"{seed}:trace:draws"), random.Random(f"{seed}:trace:draws")
    for _ in range(2000):
        assert build(fast, alg) == oracle(slow, alg)
    assert fast.getstate() == slow.getstate()


def _words(x: int, low: int):
    """The words a, b whose draw reads x, with the ignored low bits set to low."""
    return x >> 26 << 5 | low & 31, (x & (1 << 26) - 1) << 6 | low & 63


class _Words:
    """A stand-in generator whose getrandbits replays fixed 32-bit words
    as CPython's does: k <= 32 bits are a word's top k, 64 bits are two
    words, the first one low."""

    def __init__(self, words):
        self.words = list(words)

    def getrandbits(self, k):
        if k == 64:
            return self.words.pop(0) | self.words.pop(0) << 32
        return self.words.pop(0) >> 32 - k


def test_quarter_test_decides_each_draw_exactly():
    """A denominator exactly when random() = x / 2^53 would draw below 1/4,
    as the Fraction comparison decides; the draws next to 1/4 on either side
    included, and the bits random() ignores set either way.  Coefficient
    words read 1, the divisor word reads 2."""
    ctx = CycContext(3)
    for x in (0, 2 ** 51 - 1, 2 ** 51, 2 ** 51 + 1, 2 ** 52, 2 ** 53 - 1):
        for low in (0, -1):
            words = [3 << 29, 3 << 29, *_words(x, low), 0]
            assert (_random_cyc(_Words(words), ctx).den == 2) == (Fraction(x, 2 ** 53) < Fraction(1, 4))
    for i in range(200):
        real, copy = random.Random(f"words:{i}"), random.Random(f"words:{i}")
        stub = _Words(copy.getrandbits(32) for _ in range(40))
        assert _random_cyc(real, ctx) == _random_cyc(stub, ctx)
        assert real.getrandbits(32) == stub.words[0]


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
    entries, pairs, draws_per_pair = 2, 1000, 2 * 3  # two resolvends on C3 per pair
    assert built[0] >= entries * pairs * draws_per_pair


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


@pytest.fixture
def fresh_interning(monkeypatch):
    """Empty interning caches for one test, so that no context, model,
    algebra or character table built under a fault outlives the test."""
    for cls in (CycContext, LocalModel, WildAlgebra, CharacterTable):
        monkeypatch.setattr(cls, "_cache", {})


@pytest.mark.parametrize("exact, faulty", [
    ("num = (a0 * b0 - t,", "num = (a0 * b0,"),
    ("a0 * b1 + a1 * b0 - t)", "a0 * b1 + a1 * b0)"),
], ids=["constant", "zeta"])
def test_check_04_fails_when_the_conductor_3_closed_form_drops_a_term(
        monkeypatch, fresh_interning, exact, faulty):
    """The phi = 2 product without one -a1 b1 term fails the e = 3 entries
    of check 04, starting at the resolvent table.  Either fault is still a
    bilinear product, which check 10's identity holds for, so check 10 is
    not the detector here."""
    source = inspect.getsource(CycNumber.__mul__)
    assert source.count(exact) == 1
    namespace: dict = {}
    exec(compile(textwrap.dedent(source.replace(exact, faulty)), cyclotomic.__file__, "exec"),
         vars(cyclotomic), namespace)
    monkeypatch.setattr(CycNumber, "__mul__", namespace["__mul__"])
    monkeypatch.setattr(CycNumber, "__rmul__", namespace["__mul__"])
    failed = [(e.params.get("aspect"), e.witness) for e in
              run_suite(checks=["04"], e_list=(3,)).entries if not e.ok]
    assert ("resolvent-table", "character (0,)") in failed


def test_checks_05_and_06_fail_on_a_corrupted_phi_57_row(fresh_interning):
    """One wrong entry in the sparse row of x^phi mod Phi_57 (the dense
    rows, and so zeta_power, stay right) fails the composite checks."""
    ctx = CycContext(57)
    row = ctx.xpow_terms[ctx.phi]
    (i, c), rest = row[0], row[1:]
    ctx.xpow_terms[ctx.phi] = ((i, c + 1),) + rest
    report = run_suite(checks=["05", "06"])
    assert {e.check_id for e in report.entries if not e.ok} == {
        "05-decompose-roundtrip", "06-transport-closure"}


def _patch_cyc_dot(monkeypatch, exact: str, faulty: str):
    """Compile ``cyc_dot`` from its own source with the one copy of ``exact``
    replaced by ``faulty`` and patch it into both modules that call it."""
    source = inspect.getsource(cyclotomic.cyc_dot)
    assert source.count(exact) == 1
    namespace: dict = {}
    exec(compile(textwrap.dedent(source.replace(exact, faulty)), cyclotomic.__file__, "exec"),
         vars(cyclotomic), namespace)
    for module in (cyclotomic, laurent):
        monkeypatch.setattr(module, "cyc_dot", namespace["cyc_dot"])


def test_check_04_fails_when_a_sum_of_products_skips_the_reduction(
        monkeypatch, fresh_interning):
    """``cyc_dot`` keeping only the first phi entries of its accumulator, so
    no power of zeta at or above phi is reduced mod Phi_N, fails check 04's
    resolvent table at the first nontrivial character.  It runs at e = 5,
    the least e whose conductor takes the polynomial route: at conductor 3
    the closed form leaves nothing to reduce.  Check 10 is blind to this
    fault: both of its sides sum through the same ``dot``, and the
    truncation is still bilinear."""
    _patch_cyc_dot(monkeypatch, "CycNumber(ctx, ctx.reduce(acc), den)",
                   "CycNumber(ctx, tuple(acc[:ctx.phi]), den)")
    failed = [(e.params.get("aspect"), e.witness) for e in
              run_suite(checks=["04"], e_list=(5,)).entries if not e.ok]
    assert ("resolvent-table", "character (1,)") in failed


@pytest.mark.parametrize("exact, faulty", [
    ("s0 += a0 * b0 - t\n", "s0 += a0 * b0\n"),
    ("s1 += a0 * b1 + a1 * b0 - t\n", "s1 += a0 * b1 + a1 * b0\n"),
], ids=["constant", "zeta"])
def test_check_04_fails_when_the_conductor_3_sum_of_products_drops_a_term(
        monkeypatch, fresh_interning, exact, faulty):
    """``cyc_dot``'s closed form without one -a1 b1 term fails check 04's
    resolvent table at e = 3 (checks 06, 08, 09 and 11 fail too).  The
    fault is still bilinear, so check 10 is not the detector here."""
    _patch_cyc_dot(monkeypatch, exact, faulty)
    failed = [(e.params.get("aspect"), e.witness) for e in
              run_suite(checks=["04"], e_list=(3,)).entries if not e.ok]
    assert ("resolvent-table", "character (1,)") in failed


def test_check_10_fails_when_the_conductor_3_sum_of_products_skips_the_cofactor(
        monkeypatch, fresh_interning):
    """``cyc_dot``'s closed form adding each product over its own
    denominator x.den * y.den, not times its cofactor to the common one,
    fails both check-10 entries.  Check 04 is blind to it, as to the skipped
    rescale: within each of its sums the cofactor is 1."""
    _patch_cyc_dot(monkeypatch, "a0, a1 = a0 * f, a1 * f", "pass")
    entries = run_suite(checks=["10"]).entries
    assert [(e.params["algebra"], e.status, e.witness) for e in entries] == [
        ("cyclotomic", "fail", "pair 0"), ("fractional-power", "fail", "pair 2")]


def test_check_10_fails_when_a_sum_of_products_skips_the_rescale(
        monkeypatch, fresh_interning):
    """``cyc_dot``'s closed form moving to a new common denominator without
    rescaling its two accumulators fails both check-10 entries.  Check 04 is
    blind to this fault: within each of its sums every product has the same
    denominator, so the accumulators are never rescaled."""
    _patch_cyc_dot(monkeypatch, "s0, s1 = s0 * k, s1 * k", "pass")
    entries = run_suite(checks=["10"]).entries
    assert [(e.params["algebra"], e.status, e.witness) for e in entries] == [
        ("cyclotomic", "fail", "pair 0"), ("fractional-power", "fail", "pair 2")]


def test_check_05_fails_fast_when_the_certificate_rejects_every_unit(monkeypatch):
    """An integrality test that also rejects valuation 0 rejects every unit,
    so the unramified search can accept no candidate.  It gives up after
    ``tame.SEARCH_CERTIFICATES`` certificate rejections, within a second,
    instead of walking all 64,828 candidates at r = 19."""
    source = inspect.getsource(groupring.nonintegral_coefficients)
    assert source.count("if val < 0:") == 1
    namespace: dict = {}
    exec(compile(textwrap.dedent(source.replace("if val < 0:", "if val <= 0:")),
                 groupring.__file__, "exec"), vars(groupring), namespace)
    monkeypatch.setattr(groupring, "nonintegral_coefficients", namespace["nonintegral_coefficients"])
    start = time.perf_counter()
    entries = run_suite(checks=["05"]).entries
    assert time.perf_counter() - start < 10
    assert [(e.check_id, e.status, e.witness) for e in entries] == [(
        "05-decompose-roundtrip", "fail",
        f"SearchFailureError: the unit certificate rejected {tame.SEARCH_CERTIFICATES} "
        f"candidates with unit resolvents above 7, reaching the cap SEARCH_CERTIFICATES = "
        f"{tame.SEARCH_CERTIFICATES}")]
