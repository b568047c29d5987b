"""Command-line front end.

Every subcommand prints a single JSON envelope

    {"command": ..., "params": ..., "result": ..., "status": ...}

and exits 0 when the requested verification passes, 1 when it fails, 2
on invalid input and 3 on an internal error.  Output is deterministic:
rerunning with identical arguments produces identical bytes (suite timings
are opt-in because they would break that).

The module itself loads only ``errors``, ``faults`` and ``groups``, which
the parser needs; each ``cmd_*`` handler imports the modules it runs, so a
one-shot command compiles and executes only its own part of the package.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import ParityError, PreconditionError, ResolvendError
from .faults import ALL_FAULTS
from .groups import ALLOWED_E, ALLOWED_P, MAX_ORDER, FiniteAbelianGroup, element_order

# Largest group order, conductor and residue order a command accepts: a pairing
# matrix has |G|^2 entries, CycContext(N) holds max(N, 2 phi(N) - 1) rows of
# phi(N) ints, and an inverse in Q(zeta_N) costs O(phi(N)^3).
MAX_SIZE = 255

# tame-gen's certificate multiplies e^2 pairs of e-term values: e^4 products
# in Q(zeta_N) of at most phi(N)^2 integer operations each.  Capping
# e^4 phi(N)^2 bounds its run time (e = N = 21, 2.8e7, takes 2.8-3.4 s on a
# 2-vCPU machine); the |G|^2 character transforms are bounded by MAX_SIZE
# (|G| = N = 243: 1.2-1.7 s).
MAX_TAME_WORK = 3 * 10**7


def _bounded(name: str, n: int) -> int:
    if n > MAX_SIZE:
        raise PreconditionError(f"{name} {n} exceeds the limit {MAX_SIZE}")
    return n


def _parse_group(spec: str) -> FiniteAbelianGroup:
    try:
        factors = tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise PreconditionError(f"group spec {spec!r} is not a comma list of integers")
    _bounded("group order", prod(abs(d) for d in factors))
    return FiniteAbelianGroup(factors)


def _parse_element(spec: str, group: FiniteAbelianGroup):
    try:
        coords = tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise PreconditionError(f"element spec {spec!r} is not a comma list of integers")
    return group.element(coords)


def _parse_psi(spec: str, group: FiniteAbelianGroup) -> dict:
    """Coefficient map on characters: 'img.img:coeff,img.img:coeff'."""
    psi: dict = {}
    for item in spec.split(","):
        if ":" not in item:
            raise PreconditionError(f"psi term {item!r} lacks a ':coefficient' part")
        head, _, tail = item.partition(":")
        try:
            chi = tuple(int(x) for x in head.split("."))
            coeff = int(tail)
        except ValueError:
            raise PreconditionError(f"psi term {item!r} is malformed")
        if len(chi) != group.rank:
            raise PreconditionError(f"character {head!r} has rank {len(chi)}, "
                                    f"group needs {group.rank}")
        chi = tuple(c % d for c, d in zip(chi, group.factors))
        psi[chi] = psi.get(chi, 0) + coeff
    return {chi: c for chi, c in psi.items() if c}


def _label(coords) -> str:
    return ".".join(str(c) for c in coords)


def _frac(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _int_list(spec: str) -> tuple:
    try:
        return tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise PreconditionError(f"{spec!r} is not a comma list of integers")


# ------------------------------------------------------------------ commands


def cmd_pairing(args) -> tuple:
    import csv

    from .stickelberger import stickelberger_pairing
    group = _parse_group(args.group)
    elements = list(group.elements())
    matrix = [[_frac(stickelberger_pairing(group, chi, s)) for s in elements]
              for chi in elements]
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["character"] + [_label(s) for s in elements])
        for chi, row in zip(elements, matrix):
            writer.writerow([_label(chi)] + row)
        return None, True
    result = {"group": group.spec,
              "characters": [_label(chi) for chi in elements],
              "elements": [_label(s) for s in elements],
              "matrix": matrix}
    return result, True


def cmd_kernel_basis(args) -> tuple:
    from .stickelberger import DetKernelBasis
    group = _parse_group(args.group)
    basis = DetKernelBasis(group)
    result = {"group": group.spec,
              "characters": [_label(chi) for chi in basis.characters],
              "vectors": [list(v) for v in basis.vectors],
              "lattice_index": basis.lattice_index()}
    return result, True


def cmd_theta(args) -> tuple:
    from .stickelberger import DetKernelBasis, det_map, integrality_check, stickelberger_map
    group = _parse_group(args.group)
    psi = _parse_psi(args.psi, group)
    theta = stickelberger_map(group, psi)
    det = det_map(group, psi)
    basis = DetKernelBasis(group)
    integral = integrality_check(group, psi)
    det_trivial = det == tuple([0] * group.rank)
    result = {"group": group.spec,
              "psi": {_label(chi): c for chi, c in sorted(psi.items())},
              "theta": {_label(s): _frac(v) for s, v in sorted(theta.items())},
              "integral": integral,
              "det": _label(det),
              "det_trivial": det_trivial,
              "in_kernel": basis.contains(psi)}
    return result, True


def cmd_different(args) -> tuple:
    from .localfield import (RamFiltration, different_valuation, is_weakly_ramified,
                             sqrt_inverse_different_valuation, validate_abelian_filtration)
    filt = RamFiltration.from_spec(args.filtration)
    v_d = different_valuation(filt)
    try:
        v_a = sqrt_inverse_different_valuation(filt)
    except ParityError:
        v_a = None
    result = {"orders": list(filt.orders),
              "v_D": v_d,
              "v_A": v_a,
              "weakly_ramified": is_weakly_ramified(filt),
              "abelian_filtration_ok": validate_abelian_filtration(filt)}
    return result, True


def cmd_tame_gen(args) -> tuple:
    from .groupring import generator_certificate
    from .tame import (basis_change_is_unit, inversion_identity_check, resolvent_table,
                       tame_generator)
    group = _parse_group(args.group)
    s = _parse_element(args.s, group)
    e = args.e
    if element_order(group, s) != e:
        raise PreconditionError(f"element {args.s} has order {element_order(group, s)}, "
                                f"not e = {e}")
    conductor = _bounded("conductor", args.conductor or lcm(e, group.exponent))
    work = e ** 4 * sum(gcd(k, conductor) == 1 for k in range(conductor)) ** 2
    if work > MAX_TAME_WORK:
        raise PreconditionError(f"work e^4 phi(N)^2 = {work} exceeds the limit {MAX_TAME_WORK}")
    a = tame_generator(group, s, _bounded("residue order", args.q), conductor)
    model = a.algebra
    table = [{"character": _label(chi), "pairing": _frac(pairing),
              "value": model.to_json(value), "matches_pi_power": match}
             for chi, pairing, value, match in resolvent_table(a, s)]
    cert = generator_certificate(a, (1 - e) // 2)
    inversion = inversion_identity_check(a, s)
    det_unit = basis_change_is_unit(a, s)
    result = {"group": group.spec, "e": e, "q": args.q, "s": _label(s),
              "conductor": conductor,
              "generator": {_label(g): model.to_json(v)
                            for g, v in sorted(a.values.items())},
              "resolvents": table,
              "certificate": cert.to_json(),
              "inversion_identity": inversion,
              "basis_change_unit": det_unit}
    ok = cert.ok and all(row["matches_pi_power"] for row in table) and inversion and det_unit
    return result, ok


def cmd_wild_verify(args) -> tuple:
    from .wild import (WildAlgebra, alpha_valuation_bound, is_omega_invariant, tau_scaling_check,
                       weight_lower_bound, wild_generator, wild_resolvent_identity,
                       wild_unit_resolvents)
    p = args.p
    if p not in ALLOWED_P:
        raise PreconditionError(f"p must be one of {ALLOWED_P}")
    alg = WildAlgebra(p)
    group = FiniteAbelianGroup((p,))
    t = (1,)
    a = wild_generator(group, t, alg)
    alpha = a.value(group.identity)  # tau^0(alpha)
    w_y = weight_lower_bound(alg.y(1) - alg.one())
    w_zeta = weight_lower_bound(alg.from_cyc(alg.ctx.zeta_power(1) - alg.ctx.one()))
    w_alpha = weight_lower_bound(alpha * p - p)
    bound = alpha_valuation_bound(alpha)
    report = [
        {"statement": "the averaged spanning element is invariant under "
                      "every coefficient twist",
         "holds": is_omega_invariant(alpha)},
        {"statement": "each twist scales the standard monomial by the "
                      "predicted root of unity",
         "holds": tau_scaling_check(p)},
        {"statement": "the resolvent of the twist orbit equals the "
                      "distinguished monomial and its transpose lift",
         "holds": wild_resolvent_identity(a, t)},
        {"statement": "weights: w(y-1) = 1, w(zeta-1) = p, w(p*alpha-p) = p-1",
         "holds": w_y == 1 and w_zeta == p and w_alpha == p - 1,
         "w_y_minus_1": w_y, "w_zeta_minus_1": w_zeta,
         "w_p_alpha_minus_p": w_alpha},
        {"statement": "the valuation bound for the spanning element is 1-p",
         "holds": bound == 1 - p, "bound": bound},
        {"statement": "every resolvent is a unit monomial and "
                      "r * involution(r) = 1",
         "holds": wild_unit_resolvents(a)},
    ]
    ok = all(item["holds"] for item in report)
    return {"p": p, "propositions": report}, ok


def cmd_suite(args) -> tuple:
    from .suite import run_suite
    report = run_suite(max_order=args.max_order,
                       p_list=_int_list(args.p),
                       e_list=_int_list(args.e),
                       seed=args.seed,
                       mutate=args.mutate,
                       checks=args.checks.split(",") if args.checks else None,
                       timings=args.timings)
    return report.to_json(), report.ok


# -------------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resolvend",
        description="Exact verification of resolvend identities over odd "
                    "abelian groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pairing", help="pairing matrix of a group")
    p.add_argument("--group", required=True, help="invariant factors, e.g. 3,9")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_pairing)

    p = sub.add_parser("kernel-basis", help="basis of the determinant kernel")
    p.add_argument("--group", required=True)
    p.set_defaults(handler=cmd_kernel_basis)

    p = sub.add_parser("theta", help="image of a character combination")
    p.add_argument("--group", required=True)
    p.add_argument("--psi", required=True,
                   help="terms 'img.img:coeff' joined by commas")
    p.set_defaults(handler=cmd_theta)

    p = sub.add_parser("different", help="valuations of a ramification chain")
    p.add_argument("--filtration", required=True,
                   help="group orders along the chain, e.g. 3,3")
    p.set_defaults(handler=cmd_different)

    p = sub.add_parser("tame-gen", help="ramified generator with certificate")
    p.add_argument("--group", required=True)
    p.add_argument("--e", type=int, required=True, help="ramification degree")
    p.add_argument("--q", type=int, required=True, help="residue field order")
    p.add_argument("--s", required=True, help="inertia image, e.g. 1,0")
    p.add_argument("--conductor", type=int, default=0,
                   help="root-of-unity conductor (default lcm(e, exponent))")
    p.set_defaults(handler=cmd_tame_gen)

    p = sub.add_parser("wild-verify", help="wild identities at one prime")
    p.add_argument("--p", type=int, required=True, choices=ALLOWED_P)
    p.set_defaults(handler=cmd_wild_verify)

    p = sub.add_parser("suite", help="run the verification suite")
    p.add_argument("--max-order", type=int, default=MAX_ORDER)
    p.add_argument("--p", default=",".join(str(x) for x in ALLOWED_P))
    p.add_argument("--e", default=",".join(str(x) for x in ALLOWED_E))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mutate", choices=ALL_FAULTS, default=None)
    p.add_argument("--checks", default=None,
                   help="comma list of check-id prefixes to run")
    p.add_argument("--timings", action="store_true",
                   help="attach wall-clock ms (breaks byte-identical reruns)")
    p.set_defaults(handler=cmd_suite)

    return parser


def _public_params(args) -> dict:
    skip = {"command", "handler"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = _public_params(args)
    try:
        # argparse before Python 3.12 parses --opt=-- as [], skipping type and choices
        for name, value in params.items():
            if isinstance(value, list):
                raise PreconditionError(f"option --{name.replace('_', '-')} has no value")
        result, ok = args.handler(args)
    except ResolvendError as exc:
        result, status, code = {"error": str(exc)}, "error", 2
    except Exception as exc:  # a bug, not a failed verification: no traceback
        message = f"internal error: {type(exc).__name__}: {exc}"
        result, status, code = {"error": message}, "error", 3
    else:
        if result is None:
            return 0 if ok else 1
        status, code = ("ok", 0) if ok else ("fail", 1)
    envelope = {"command": args.command, "params": params, "result": result,
                "status": status}
    sys.stdout.write(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
