"""Self-verification suite.

Every check re-derives one identity from scratch, in exact arithmetic, and
reports a pass/fail entry.  Entries carry a short statement of the identity
being tested plus the parameters, so a failing report is reproducible on
its own.  A passing entry has no witness; a failing one has its first
counterexample (``_entry`` decides this for every check).  Entries come in
``CHECKS`` order, each check's in the order it yields them; a check that
raises a ``ResolvendError`` ends with one abort entry in its place.  The
runner is deterministic for a fixed seed; wall-clock timings are attached
only on request because they would otherwise break byte-identical reruns.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import faults
from .cyclotomic import CycAlgebra, CycContext, CycNumber
from .errors import PreconditionError, ResolvendError
from .groups import ALLOWED_E, ALLOWED_P, MAX_ORDER, FiniteAbelianGroup
from .groupring import (
    Resolvend,
    associated_hom,
    delta_resolvend,
    from_character_space,
    generator_certificate,
    involution,
    invert_resolvend,
    reduced_equal,
    to_character_space,
    trace_pairing_identity_check,
    transpose_lift,
    unit_certificate,
)
from .localfield import (
    PuiseuxElement,
    RamFiltration,
    different_valuation,
    is_weakly_ramified,
    sqrt_inverse_different_valuation,
    validate_abelian_filtration,
)
from .stickelberger import (
    CharacterTable,
    DetKernelBasis,
    det_map,
    equivariance_check,
    integrality_check,
    pairing_sign,
)
from .tame import (
    TameHom,
    basis_change_is_unit,
    build_model,
    decompose_tame_resolvend,
    factorize,
    inversion_identity_check,
    recompose,
    resolvent_table,
    tame_generator,
    unramified_generator_search,
)
from .wild import (
    WildAlgebra,
    alpha_valuation_bound,
    elementary_product_check,
    is_omega_invariant,
    omega_action,
    tau_action,
    tau_scaling_check,
    weight_lower_bound,
    wild_generator,
    wild_resolvent_identity,
    wild_unit_resolvents,
)

# ramified model constants: smallest prime q = 1 (mod e) avoiding |G| issues
TAME_Q = {3: 7, 5: 11, 7: 29, 9: 19}


@dataclass
class SuiteEntry:
    check_id: str
    identity: str
    params: dict
    status: str
    witness: str | None = None
    wall_ms: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        out = {"check_id": self.check_id, "identity": self.identity,
               "params": dict(self.params), "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.wall_ms is not None:
            out["wall_ms"] = self.wall_ms
        return out


@dataclass
class SuiteReport:
    entries: list

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def counts(self) -> dict:
        passed = sum(1 for e in self.entries if e.ok)
        return {"pass": passed, "fail": len(self.entries) - passed}

    def to_json(self) -> dict:
        return {"status": "pass" if self.ok else "fail",
                "counts": self.counts(),
                "entries": [e.to_json() for e in self.entries]}


@dataclass
class SuiteConfig:
    max_order: int = MAX_ORDER
    p_list: tuple = ALLOWED_P
    e_list: tuple = ALLOWED_E
    seed: int = 0
    shared: dict = field(default_factory=dict)


def _entry(check_id: str, identity: str, params: dict, ok: bool,
           witness: str | None = None) -> SuiteEntry:
    """A passing entry has no witness; a failing one keeps a non-empty one."""
    return SuiteEntry(check_id, identity, params, "pass" if ok else "fail",
                      None if ok else witness or None)


def _below(bits, n: int) -> int:
    """randrange(n) read from ``bits = rng.getrandbits``: n.bit_length() bits,
    drawn again until they fall below n, as CPython's randrange draws them."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def odd_abelian_groups(max_order: int):
    """Every abelian group of odd order in [3, max_order], one per
    isomorphism class, as ascending invariant-factor chains."""
    out = []
    for order in range(3, max_order + 1, 2):
        for chain in sorted(_invariant_chains(order, order)):
            out.append(FiniteAbelianGroup(chain))
    return out


def _invariant_chains(n: int, cap: int):
    if n == 1:
        yield ()
        return
    for d in range(2, n + 1):
        if n % d == 0 and cap % d == 0:
            for rest in _invariant_chains(n // d, d):
                yield rest + (d,)


# ---------------------------------------------------------------- check 01


# The report's count is 5^n without a mismatch, else the first mismatching
# row rounded down to a multiple of COUNT_BLOCK.
COUNT_BLOCK = 8192


def _integrality_columns(group: FiniteAbelianGroup):
    """The characters, and integer columns in [0, L), L = exp(G), indexed by
    character: psi is integral exactly when psi @ col = 0 mod L on every
    pairing column (L <chi, s> for an element s != 1, from the character
    table), and det(psi) is trivial exactly when the same holds on every
    determinant column (chi_i for the invariant factor d_i, scaled by L/d_i)."""
    chars = list(group.elements())
    big_l, sign = group.exponent, pairing_sign()
    rows = CharacterTable(group).rows
    return (chars, [[sign * row[j] % big_l for row in rows] for j in range(1, group.order)],
            [[chi[i] * (big_l // d) for chi in chars] for i, d in enumerate(group.factors)])


def _psi(row: int, n: int) -> list[int]:
    return [(row // 5 ** j) % 5 - 2 for j in range(n)]


def _residue_keys(cols, big_l: int, sign: int) -> list[bytes]:
    """One byte per column of sign * (psi @ col) mod L, for every psi of
    [-2, 2]^m in row order.  The sums b @ c - 2 sum(c) grow digit by digit
    in one int with 8-bit lanes from b = psi + 2; a lane stays below
    5 * 4 * 8 + 9 < 256 for m <= 5 and L <= 9, and one table reduces them."""
    steps = [bytes(sign * col[i] % big_l for col in cols) for i in range(len(cols[0]))]
    sums = [int.from_bytes(bytes(-2 * sum(lane) % big_l for lane in zip(*steps)), "little")]
    for step in steps:
        packed = int.from_bytes(step, "little")
        sums = [total + b * packed for b in range(5) for total in sums]
    reduce = bytes(x % big_l for x in range(256))
    return [total.to_bytes(len(cols), "little").translate(reduce) for total in sums]


def _exhaustive_verdicts(pair_cols, det_cols, big_l: int):
    """(start, integral, trivial) for every psi in [-2, 2]^n in blocks of 5^h
    rows, bit k of the two ints for row start + k.  Meet-in-the-middle: row
    lo + 5^h hi passes a list of columns exactly when the residues of its low
    half (digits < h) equal those of its negated high half, so the low rows
    are bucketed by residue bytes into bitmasks, and each high row's block
    is one dict lookup per list."""
    h, width = (len(pair_cols[0]) + 1) // 2, len(pair_cols)
    cols = pair_cols + det_cols
    integral_rows: dict[bytes, int] = {}
    trivial_rows: dict[bytes, int] = {}
    for k, key in enumerate(_residue_keys([col[:h] for col in cols], big_l, 1)):
        integral_rows[key[:width]] = integral_rows.get(key[:width], 0) | 1 << k
        trivial_rows[key[width:]] = trivial_rows.get(key[width:], 0) | 1 << k
    for j, key in enumerate(_residue_keys([col[h:] for col in cols], big_l, -1)):
        yield j * 5 ** h, integral_rows.get(key[:width], 0), trivial_rows.get(key[width:], 0)


def _exhaustive_mismatch(pair_cols, det_cols, big_l: int):
    """(first mismatch, count) over all of [-2, 2]^n: the mismatch is
    (psi, integral, trivial) for the first row whose verdicts differ, or None."""
    n = len(pair_cols[0])
    for start, integral, trivial in _exhaustive_verdicts(pair_cols, det_cols, big_l):
        if differ := integral ^ trivial:
            k = (differ & -differ).bit_length() - 1
            row = start + k
            mismatch = (_psi(row, n), bool(integral >> k & 1), bool(trivial >> k & 1))
            return mismatch, row - row % COUNT_BLOCK
    return None, 5 ** n


_DIGIT = bytes(b % 5 for b in range(256))
_OVERHANG = bytes(range(250, 256))


def _digits(rng: random.Random, k: int) -> bytearray:
    """k digits uniform in [0, 5), read from generator bytes: each byte
    below 250 is its residue mod 5, the six above are dropped, and a short
    read is topped up from fresh bytes.  A passing check-01 entry reports no
    row, so its bytes do not depend on which rows this draws."""
    out = bytearray()
    while len(out) < k:
        m = k - len(out)
        out += rng.getrandbits(8 * m).to_bytes(m, "little").translate(_DIGIT, _OVERHANG)
    del out[k:]
    return out


def _sampled_mismatch(rng: random.Random, pair_cols, det_cols, big_l: int):
    """(first mismatch or None, count) over 10,000 vectors drawn uniformly
    from [-2, 2]^n.  Row r is flat[r n : (r + 1) n], whose bytes are the
    digits b = psi + 2.  Digit i of all rows is packed into one
    int with 16-bit lanes, so b @ col for every row is one sum of scalar
    multiples of n ints, and a lane holds at most 27 * 4 * 26 < 2^16 only
    because MAX_ORDER = 27 bounds n and L.  Tables reduce each lane's two
    bytes mod L, and a third compares their sum with 2 sum(col) mod L."""
    n, count = len(pair_cols[0]), 10_000
    flat = _digits(rng, count * n)
    lanes, digits = bytearray(2 * count), []
    for i in range(n):
        lanes[::2] = flat[i::n]
        digits.append(int.from_bytes(lanes, "little"))
    low, high = bytes(x % big_l for x in range(256)), bytes(256 * x % big_l for x in range(256))

    def failing(cols) -> int:
        """One byte per row, 1 where psi @ col != 0 mod L on some column."""
        out = 0
        for col in cols:
            raw = sum(c * d for c, d in zip(col, digits) if c).to_bytes(2 * count, "little")
            residue = (int.from_bytes(raw[::2].translate(low), "little")
                       + int.from_bytes(raw[1::2].translate(high), "little"))
            target = 2 * sum(col) % big_l
            differs = bytes(x % big_l != target for x in range(256))
            out |= int.from_bytes(residue.to_bytes(count, "little").translate(differs), "little")
        return out

    not_integral, not_trivial = failing(pair_cols), failing(det_cols)
    mismatch = None
    if differ := not_integral ^ not_trivial:
        k = ((differ & -differ).bit_length() - 1) // 8
        mismatch = ([b - 2 for b in flat[k * n:(k + 1) * n]],
                    not not_integral >> 8 * k & 1, not not_trivial >> 8 * k & 1)
    return mismatch, count


def check_01_integrality(cfg: SuiteConfig):
    """Integrality of the image group-ring element is equivalent to
    triviality of the determinant character, for coefficients in [-2, 2], in
    integers: exhaustive for |G| <= 9, 10,000 seeded draws beyond.  Without
    a mismatch, 8 rows drawn after the sweep are cross-checked against
    ``integrality_check`` and ``det_map``, in both modes."""
    identity = ("a character combination has integral image coefficients "
                "exactly when its determinant character is trivial")
    for group in odd_abelian_groups(cfg.max_order):
        chars, pair_cols, det_cols = _integrality_columns(group)
        n, big_l = group.order, group.exponent
        exhaustive = n <= 9
        rng = random.Random(f"{cfg.seed}:integrality:{group.spec}")
        if exhaustive:
            mismatch, checked = _exhaustive_mismatch(pair_cols, det_cols, big_l)
        else:
            mismatch, checked = _sampled_mismatch(rng, pair_cols, det_cols, big_l)

        if mismatch is not None:
            witness = f"psi={mismatch[0]}: integral={mismatch[1]} but det trivial={mismatch[2]}"
        else:
            witness = None
            rows = _digits(rng, 8 * n)
            for vec in ([b - 2 for b in rows[i:i + n]] for i in range(0, 8 * n, n)):
                psi = {chi: c for chi, c in zip(chars, vec) if c}
                scalar_integral = integrality_check(group, psi)
                scalar_trivial = det_map(group, psi) == group.identity
                vec_integral = all(sum(c * v for c, v in zip(col, vec)) % big_l == 0
                                   for col in pair_cols)
                if scalar_integral != vec_integral or scalar_integral != scalar_trivial:
                    witness = (f"scalar/vector disagree at psi={vec}: scalar integral="
                               f"{scalar_integral}, matrix integral={vec_integral}, "
                               f"det trivial={scalar_trivial}")
                    break
        yield _entry("01-integrality-equivalence", identity,
                     {"group": group.spec, "mode": "exhaustive" if exhaustive else "sampled",
                      "count": checked, "coefficients": "[-2,2]", "seed": cfg.seed},
                     witness is None, witness)


# ---------------------------------------------------------------- check 02


EQUIVARIANCE_GROUPS = ((3,), (9,), (27,), (3, 3), (3, 9), (5,), (7,), (15,))


def check_02_equivariance(cfg: SuiteConfig):
    identity = ("the pairing commutes with power twists: "
                "<chi^k, s> = <chi, s^k> for every unit k")
    for spec in EQUIVARIANCE_GROUPS:
        group = FiniteAbelianGroup(spec)
        twists = [k for k in range(1, group.exponent + 1)
                  if gcd(k, group.exponent) == 1]
        bad = next((k for k in twists if not equivariance_check(group, k)), None)
        yield _entry("02-pairing-equivariance", identity,
                     {"group": group.spec, "twists": len(twists)},
                     bad is None, f"twist k={bad} fails")


# ---------------------------------------------------------------- check 03


SELF_DUALITY_GROUPS = ((3,), (5,), (7,), (9,), (3, 3))


def check_03_self_duality(cfg: SuiteConfig):
    identity = ("the lift of a unit-valued class map satisfies "
                "r * involution(r) = 1 under exact convolution")
    trials = 100
    for spec in SELF_DUALITY_GROUPS:
        group = FiniteAbelianGroup(spec)
        e = group.exponent
        model = build_model(e, TAME_Q[e])
        rng = random.Random(f"{cfg.seed}:self-duality:{group.spec}")
        units = [k for k in range(1, e + 1) if gcd(k, e) == 1]
        orbit_of: dict = {}
        reps = []
        for s in group.elements():
            if s in orbit_of:
                continue
            for k in units:
                orbit_of[group.scale(s, k)] = len(reps)
            reps.append(s)
        one = delta_resolvend(group, model, group.identity)
        witness = None
        for trial in range(trials):
            exps = [_below(rng.getrandbits, 5) - 2 for _ in reps]
            values = {s: model.pi_power(exps[orbit_of[s]]) for s in group.elements()}
            values[group.identity] = model.one()
            g = Resolvend(group, model, values)
            r = from_character_space(group, model, transpose_lift(g))
            if r * involution(r) != one:
                witness = f"trial {trial} exponents {exps}"
                break
        yield _entry("03-self-duality", identity,
                     {"group": group.spec, "trials": trials, "seed": cfg.seed},
                     witness is None, witness)


# ---------------------------------------------------------------- check 04


def check_04_tame_generator(cfg: SuiteConfig):
    cid = "04-ramified-generator"
    for e in cfg.e_list:
        q = TAME_Q[e]
        group = FiniteAbelianGroup((e,))
        s = (1,)
        a = tame_generator(group, s, q)
        model = a.algebra
        params = {"e": e, "q": q}

        bad_chi = next((chi for chi, _, _, match in resolvent_table(a, s) if not match), None)
        yield _entry(cid, "the generator's resolvent equals pi to the pairing "
                          "exponent at every character",
                     dict(params, aspect="resolvent-table"),
                     bad_chi is None, f"character {bad_chi}")

        yield _entry(cid, "twisted conjugate sums of the generator recover "
                          "each fractional pi power",
                     dict(params, aspect="inversion"), inversion_identity_check(a, s))

        floor = (1 - e) // 2
        cert = generator_certificate(a, floor)
        # the floor is sharp: alpha pi^(-1/e) falls below it, and val is exact on
        # it, as its terms have rational coefficients and distinct pi-exponents mod 1
        below = model.val(a.value(group.identity) * model.pi_power(Fraction(-1, e)))
        loose = [] if below < floor else [f"v(alpha pi^(-1/e)) = {below} >= {floor}"]
        yield _entry(cid, "the generator map passes the exact certificate at "
                          "valuation floor (1-e)/2",
                     dict(params, aspect="certificate"),
                     cert.ok and not loose, "; ".join(cert.witnesses + loose))

        yield _entry(cid, "the determinant of the conjugate-to-pi-power basis "
                          "change is a unit above q",
                     dict(params, aspect="basis-determinant"),
                     basis_change_is_unit(a, s), f"not a unit at some prime above {q}")

        found = associated_hom(a, model.galois_twists())
        yield _entry(cid, "coefficient automorphisms act on the generator "
                          "through translation by the expected elements",
                     dict(params, aspect="twist-hom"),
                     found == {"sigma": s, "phi": group.identity}, f"found {found}")


# ---------------------------------------------------------------- check 05


def _composite(cfg: SuiteConfig) -> dict:
    """Shared composite instance: totally ramified times unramified over
    the rank-2 group of exponent 3, conductor 57."""
    if "composite" not in cfg.shared:
        group = FiniteAbelianGroup((3, 3))
        s = (1, 0)
        t = (0, 1)
        q, r, conductor = 7, 19, 57
        model = build_model(3, q, conductor=conductor)
        a_ram = tame_generator(group, s, q, conductor=conductor)
        a_nr = unramified_generator_search(group, q, t, r)
        a_nr = a_nr.into(model, model.from_cyc)
        cfg.shared["composite"] = {
            "group": group, "s": s, "t": t, "q": q, "r": r,
            "model": model, "a_ram": a_ram, "a_nr": a_nr,
            "a": a_ram * a_nr,
            "h": TameHom(group, t, s, q),
            "basis": DetKernelBasis(group),
        }
    return cfg.shared["composite"]


def check_05_decompose(cfg: SuiteConfig):
    cid = "05-decompose-roundtrip"
    c = _composite(cfg)
    group, model, basis = c["group"], c["model"], c["basis"]
    params = {"group": group.spec, "q": c["q"], "r": c["r"], "conductor": 57}

    cert = unit_certificate(c["a_nr"])
    yield _entry(cid, "the unramified search result stays a certified unit "
                      "after transport into the ramified model",
                 dict(params, aspect="search-unit"), cert.ok, "; ".join(cert.witnesses))

    h1, h2 = factorize(c["h"])
    fact_ok = (h1.s_sigma == group.identity and h1.t_phi == c["t"]
               and h2.t_phi == group.identity and h2.s_sigma == c["s"]
               and h1.level() == 0 and h2.level() == 1)
    yield _entry(cid, "a surjection factors into an unramified part and a "
                      "totally ramified part",
                 dict(params, aspect="factorization"), fact_ok)

    try:
        u = decompose_tame_resolvend(c["h"], c["a"], basis)
        dec_witness = rec_witness = None
    except ResolvendError as exc:
        u = None
        dec_witness, rec_witness = f"{type(exc).__name__}: {exc}", "decomposition unavailable"
    yield _entry(cid, "the composite generator splits into an integral unit "
                      "resolvend times the lifted prime element",
                 dict(params, aspect="decompose"), u is not None, dec_witness)

    yield _entry(cid, "recomposition reproduces the original reduced resolvend",
                 dict(params, aspect="recompose"),
                 u is not None and reduced_equal(recompose(u, c["s"]), c["a"], basis), rec_witness)

    found = associated_hom(c["a"], model.galois_twists())
    yield _entry(cid, "the twist-translation homomorphism recovers both the "
                      "ramified and unramified structure maps",
                 dict(params, aspect="twist-hom"),
                 found == {"sigma": c["s"], "phi": c["t"]}, f"found {found}")


# ---------------------------------------------------------------- check 06


def check_06_transport(cfg: SuiteConfig):
    cid = "06-transport-closure"
    group = FiniteAbelianGroup((3,))
    s = (1,)
    q = 7
    model = build_model(3, q)
    a = tame_generator(group, s, q)
    floor = -1

    def loose(r):
        # the floor is sharp: some value of r reads exactly -1, and val is exact
        # on these values, whose terms have distinct pi-exponents and rational
        # multiples of roots of unity as coefficients
        low = min(map(model.val, r.values.values()))
        return [] if low == floor else [f"min v of the map's values = {low} != {floor}"]

    inv = invert_resolvend(a)
    inv_cert, inv_loose = generator_certificate(inv, floor), loose(inv)
    yield _entry(cid, "generator certificates survive resolvend inversion",
                 {"e": 3, "q": q, "aspect": "inverse"},
                 inv_cert.ok and not inv_loose, "; ".join(inv_cert.witnesses + inv_loose))

    witness = None
    for t in group.elements():
        twisted = a * delta_resolvend(group, model, t)
        wrong = loose(twisted)
        if not generator_certificate(twisted, floor).ok or wrong:
            witness = "; ".join([f"twist by {t}"] + wrong)
            break
    yield _entry(cid, "generator certificates survive translation twists",
                 {"e": 3, "q": q, "aspect": "translation"}, witness is None, witness)

    c = _composite(cfg)
    inv_unit = unit_certificate(invert_resolvend(c["a_nr"]))
    yield _entry(cid, "unit certificates survive resolvend inversion",
                 {"group": c["group"].spec, "aspect": "unit-inverse"},
                 inv_unit.ok, "; ".join(inv_unit.witnesses))

    sq_unit = unit_certificate(c["a_nr"] * c["a_nr"])
    yield _entry(cid, "unit certificates survive resolvend products",
                 {"group": c["group"].spec, "aspect": "unit-product"},
                 sq_unit.ok, "; ".join(sq_unit.witnesses))

    comp_cert = generator_certificate(c["a"], floor)
    yield _entry(cid, "the product of a generator and a unit map stays a "
                      "certified generator",
                 {"group": c["group"].spec, "aspect": "generator-times-unit"},
                 comp_cert.ok, "; ".join(comp_cert.witnesses))

    def pointwise(other) -> dict:
        lhs, rhs = to_character_space(a), to_character_space(other)
        return {chi: lhs[chi] * rhs[chi] for chi in lhs}

    yield _entry(cid, "direct convolution matches pointwise multiplication "
                      "of character values",
                 {"e": 3, "q": q, "aspect": "convolution"},
                 all(to_character_space(a * other) == pointwise(other)
                     for other in (a, delta_resolvend(group, model, (1,)))),
                 "convolution and pointwise products disagree")


# ---------------------------------------------------------------- check 07


def check_07_filtration(cfg: SuiteConfig):
    cid = "07-filtration-valuations"

    bad_e = next((e for e in range(3, 28, 2) for filt in [RamFiltration([e, 1])]
                  if different_valuation(filt) != e - 1 or not is_weakly_ramified(filt)
                  or not validate_abelian_filtration(filt)), None)
    yield _entry(cid, "a single tame jump of order e has different "
                      "valuation e - 1",
                 {"e": "3..27 odd", "aspect": "tame"}, bad_e is None, f"e={bad_e}")

    for p in (3, 5, 7):
        filt = RamFiltration([p, p, 1])
        ok = (different_valuation(filt) == 2 * (p - 1)
              and sqrt_inverse_different_valuation(filt) == -(p - 1)
              and is_weakly_ramified(filt)
              and validate_abelian_filtration(filt))
        yield _entry(cid, "the weakly ramified chain [p, p, 1] has different "
                          "valuation 2(p-1) and square-root valuation -(p-1)",
                     {"p": p, "aspect": "wild"},
                     ok, f"v_D={different_valuation(filt)}, "
                     f"v_A={sqrt_inverse_different_valuation(filt)}")

    deep = RamFiltration([3, 3, 3, 1])
    yield _entry(cid, "weak ramification fails exactly when the second "
                      "higher group is nontrivial",
                 {"orders": "3,3,3", "aspect": "negative"},
                 not is_weakly_ramified(deep))


# ---------------------------------------------------------------- check 08


def _random_wild(rng: random.Random, alg: WildAlgebra):
    """A sum of three monomials, exponents and power-basis coefficients in [-2, 2]."""
    bits, x = rng.getrandbits, alg.zero()
    for _ in range(3):
        exps = [_below(bits, 5) - 2 for _ in range(alg.copies * (alg.p - 1))]
        coeff = CycNumber(alg.ctx, [_below(bits, 5) - 2 for _ in range(alg.ctx.phi)])
        if not coeff.is_zero():
            x = x + alg.monomial(exps, coeff)
    return x


def _broken_relation(x, p: int) -> str | None:
    """The first coefficient-twist or tau relation that x breaks, or None."""
    if omega_action(x, 1) != x:
        return "identity twist moved an element"
    y = x
    for _ in range(p):
        y = tau_action(y, 1)
    if y != x:
        return "tau does not have order p"
    for i in range(1, p):
        for j in range(1, p):
            if omega_action(omega_action(x, i), j) != omega_action(x, (i * j) % p):
                return f"omega composition fails at ({i},{j})"
            if omega_action(tau_action(x, j), i) != tau_action(omega_action(x, i), j):
                return f"omega/tau compatibility fails at ({i},{j})"
    return None


def check_08_wild(cfg: SuiteConfig):
    cid = "08-wild-verification"
    for p in cfg.p_list:
        alg = WildAlgebra(p)
        group = FiniteAbelianGroup((p,))
        t = (1,)
        a = wild_generator(group, t, alg)
        alpha = a.value(group.identity)  # tau^0(alpha)

        yield _entry(cid, "the averaged spanning element is invariant under "
                          "every coefficient twist",
                     {"p": p, "aspect": "omega-invariance"},
                     is_omega_invariant(alpha))

        yield _entry(cid, "each twist scales the standard monomial by the "
                          "predicted root of unity",
                     {"p": p, "aspect": "tau-scaling"},
                     tau_scaling_check(p))

        yield _entry(cid, "the resolvent of the twist orbit equals the "
                          "distinguished monomial and its transpose lift",
                     {"p": p, "aspect": "resolvent-identity"},
                     wild_resolvent_identity(a, t))

        one = alg.one()
        zeta = alg.from_cyc(alg.ctx.zeta_power(1) - alg.ctx.one())
        w_y = weight_lower_bound(alg.y(1) - one)
        w_yinv = weight_lower_bound(alg.y(1, power=-1) - one)
        w_zeta = weight_lower_bound(zeta)
        w_alpha = weight_lower_bound(alpha * p - p)
        bound = alpha_valuation_bound(alpha)
        weights_ok = (w_y == 1 and w_yinv == 1 and w_zeta == p
                      and w_alpha == p - 1 and bound == 1 - p)
        yield _entry(cid, "weight bounds: w(y-1)=1, w(zeta-1)=p, "
                          "w(p*alpha-p)=p-1, so v(alpha) >= 1-p",
                     {"p": p, "aspect": "weight-bounds"},
                     weights_ok, f"w(y-1)={w_y}, w(1/y-1)={w_yinv}, w(zeta-1)={w_zeta}, "
                     f"w(p*alpha-p)={w_alpha}, bound={bound}")

        yield _entry(cid, "every resolvent of the twist orbit is a unit "
                          "monomial and r * involution(r) = 1",
                     {"p": p, "aspect": "unit-duality"},
                     wild_unit_resolvents(a))

        rng = random.Random(f"{cfg.seed}:wild:{p}")
        witness = next(filter(None, (_broken_relation(_random_wild(rng, alg), p)
                                     for _ in range(3))), None)
        yield _entry(cid, "the coefficient twists compose multiplicatively, "
                          "commute with tau, and tau has order p",
                     {"p": p, "aspect": "action-relations", "seed": cfg.seed},
                     witness is None, witness)


# ---------------------------------------------------------------- check 09


def check_09_product(cfg: SuiteConfig):
    ok = elementary_product_check(3, 2)
    yield _entry("09-product-construction",
                 "the two-block product generator has unit monomial "
                 "resolvents at all nine characters, factoring blockwise",
                 {"p": 3, "blocks": 2}, ok)


# ---------------------------------------------------------------- check 10


def _random_cyc(rng: random.Random, ctx: CycContext):
    """Power-basis coefficients in [-2, 2], divided by 2 or 3 a quarter of
    the time: random() < 1/4 exactly when its first word is below 2^30."""
    bits = rng.getrandbits
    num = [_below(bits, 5) - 2 for _ in range(ctx.phi)]
    den = 2 + _below(bits, 2) if bits(64) & 0xC0000000 == 0 else 1
    return CycNumber(ctx, num, den)


def _random_local(rng: random.Random, model):
    """One or two terms c pi^(k/3), k in [-3, 3], c from ``_random_cyc``,
    in a model with e = 3; a key drawn twice holds the sum."""
    bits, terms = rng.getrandbits, {}
    for _ in range(1 + _below(bits, 2)):
        k = _below(bits, 7) - 3
        c = _random_cyc(rng, model.ctx)
        terms[k] = terms[k] + c if k in terms else c
    return PuiseuxElement(model, terms)


def check_10_trace(cfg: SuiteConfig):
    cid = "10-trace-identity"
    identity = ("the convolution r(a) * involution(r(b)) equals the trace-form "
                "expansion computed coefficient by coefficient")
    group = FiniteAbelianGroup((3,))
    pairs = 1000
    ctx, model = CycContext(3), build_model(3, 7)
    for name, key, algebra, draw in (
            ("cyclotomic", "cyclotomic", CycAlgebra(ctx), lambda rng: _random_cyc(rng, ctx)),
            ("fractional-power", "puiseux", model, lambda rng: _random_local(rng, model))):
        rng = random.Random(f"{cfg.seed}:trace:{key}")
        bad = next((trial for trial in range(pairs) if not trace_pairing_identity_check(
            Resolvend(group, algebra, {s: draw(rng) for s in group.elements()}),
            Resolvend(group, algebra, {s: draw(rng) for s in group.elements()}))), None)
        yield _entry(cid, identity,
                     {"algebra": name, "group": group.spec, "pairs": pairs, "seed": cfg.seed},
                     bad is None, f"pair {bad}")


# ---------------------------------------------------------------- check 11


def _pairing_flip_detected() -> bool:
    rows = resolvent_table(tame_generator(FiniteAbelianGroup((3,)), (1,), 7), (1,))
    return not all(match for _, _, _, match in rows)


def _alpha_fault_detected() -> bool:
    return not inversion_identity_check(tame_generator(FiniteAbelianGroup((3,)), (1,), 7), (1,))


def _omega_fault_detected() -> bool:
    return not tau_scaling_check(5)


MUTATIONS = (
    (faults.PAIRING_SIGN_FLIP, "resolvent table at e=3, q=7", _pairing_flip_detected),
    (faults.ALPHA_UNNORMALIZED, "inversion identity at e=3, q=7", _alpha_fault_detected),
    (faults.OMEGA_UNINVERTED, "tau scaling at p=5", _omega_fault_detected),
)


def check_11_mutations(cfg: SuiteConfig):
    cid = "11-mutation-sensitivity"
    for name, detector_name, detector in MUTATIONS:
        clean_before = not detector()
        with faults.inject(name):
            caught = detector()
        clean_after = not detector()
        ok = clean_before and caught and clean_after
        if not clean_before:
            witness = "detector already failing without the mutation"
        elif not caught:
            witness = "mutation was not detected"
        else:
            witness = "mutation did not deactivate cleanly"
        yield _entry(cid, "the deliberately misstated formula is caught by "
                          "the targeted re-check and only then",
                     {"mutation": name, "detector": detector_name}, ok, witness)


# ---------------------------------------------------------------- runner


CHECKS = (
    ("01-integrality-equivalence", check_01_integrality),
    ("02-pairing-equivariance", check_02_equivariance),
    ("03-self-duality", check_03_self_duality),
    ("04-ramified-generator", check_04_tame_generator),
    ("05-decompose-roundtrip", check_05_decompose),
    ("06-transport-closure", check_06_transport),
    ("07-filtration-valuations", check_07_filtration),
    ("08-wild-verification", check_08_wild),
    ("09-product-construction", check_09_product),
    ("10-trace-identity", check_10_trace),
    ("11-mutation-sensitivity", check_11_mutations),
)


def run_suite(max_order: int = MAX_ORDER, p_list=ALLOWED_P, e_list=ALLOWED_E,
              seed: int = 0, mutate: str | None = None, checks=None,
              timings: bool = False) -> SuiteReport:
    """Run the selected checks and return a deterministic report.

    ``checks`` filters by check-id prefix; ``mutate`` activates one named
    fault for the whole run.  Timings are opt-in so that reruns with the
    same parameters produce byte-identical reports.
    """
    if not 3 <= max_order <= MAX_ORDER:
        raise PreconditionError(f"max_order must lie in [3, {MAX_ORDER}]")
    p_list = tuple(sorted(set(p_list)))
    e_list = tuple(sorted(set(e_list)))
    if any(p not in ALLOWED_P for p in p_list):
        raise PreconditionError(f"p_list must be a subset of {ALLOWED_P}")
    if any(e not in ALLOWED_E for e in e_list):
        raise PreconditionError(f"e_list must be a subset of {ALLOWED_E}")
    cfg = SuiteConfig(max_order=max_order, p_list=p_list, e_list=e_list, seed=seed)

    selected = CHECKS
    if checks is not None:
        wanted = tuple(checks)
        if not all(wanted):
            raise PreconditionError("an empty check prefix would select every check")
        selected = tuple((cid, fn) for cid, fn in CHECKS
                         if any(cid.startswith(w) for w in wanted))
        if not selected:
            raise PreconditionError(f"no checks match {wanted}")

    entries: list[SuiteEntry] = []
    with faults.inject(mutate) if mutate is not None else nullcontext():
        for cid, fn in selected:
            t0 = time.perf_counter()
            try:
                for entry in fn(cfg):
                    t1 = time.perf_counter()
                    if timings:
                        entry.wall_ms = int(round((t1 - t0) * 1000))
                    t0 = t1
                    entries.append(entry)
            except ResolvendError as exc:
                entries.append(SuiteEntry(cid, "check aborted by a raised error",
                                          {"seed": seed}, "fail",
                                          f"{type(exc).__name__}: {exc}"))
    return SuiteReport(entries)
