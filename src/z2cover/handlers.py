"""The ``cover``, ``geography``, ``deform`` and ``examples`` commands.

``cli`` imports this module only to run one of these commands, so a
``classify`` process compiles none of it.  :func:`add_actions` adds a
command's actions and arguments to its parser; each handler imports the
library module it runs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from operator import itemgetter

from .branch import check_rank, eigensheaf_degrees, is_flat
from .cover import from_path, to_json, validate
from .output import EXIT_INVALID, EXIT_OK, _emit, _fields, _table

__all__ = ["add_actions"]

# scan masses of the hunt family: 1/2 lies below its positive-index window,
# the other four lie inside it
HUNT_SCAN = ("1/2", "11/20", "3/5", "13/20", "17/25")


# ---------------------------------------------------------------------------
# cover


def _cmd_cover_check(args: argparse.Namespace) -> int:
    report = validate(from_path(args.path))
    payload = _fields(report)
    # ``connected`` stays out to keep the payload's key set stable; a
    # disconnected cover fails ``ok`` and says why in its messages
    del payload["connected"]
    _refuse_unprintable(f"cover {args.path}", payload)
    _emit({"ok": report.ok, **payload})
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_cover_invariants(args: argparse.Namespace) -> int:
    from .invariants import invariant_report

    payload = _fields(invariant_report(from_path(args.path)))
    _refuse_unprintable(f"cover {args.path}", payload)
    _emit(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# geography


def _xy_sci(branch) -> dict:
    from .invariants import geography_coordinates

    x, y, sci = geography_coordinates(branch)
    return {"x": x, "y": y, "sci": sci}


def _cmd_geo_sample(args: argparse.Namespace) -> int:
    import random

    from .invariants import geography_coordinates, random_ratio

    s = check_rank(args.s)
    if args.count < 1:
        raise ValueError(f"count must be positive, got {args.count}")
    # reseeding gives the state of a new random.Random(f"{seed}:{index}")
    rng = random.Random()
    points = []
    for index in range(args.count):
        rng.seed(f"{args.seed}:{index}")
        x, y, sci = geography_coordinates(random_ratio(s, rng))
        points.append({"index": index, "x": x, "y": y, "sci": sci})
    if args.fmt == "csv":
        print(_table("csv", [(key, itemgetter(key)) for key in points[0]], points))
    else:
        _emit({"s": s, "seed": args.seed, "count": args.count, "points": points})
    return EXIT_OK


def _cmd_geo_extremes(args: argparse.Namespace) -> int:
    from .invariants import SCI_MAX, SCI_MIN, Y_MIN, barycenter_ratio, vertex_ratio

    s = check_rank(args.s)
    barycenter = _xy_sci(barycenter_ratio(s))
    _emit(
        {
            "s": args.s,
            "vertex": _xy_sci(vertex_ratio(s)),
            "barycenter": barycenter,
            "sci_min": SCI_MIN,
            "sci_max": SCI_MAX,
            "y_min": Y_MIN,
            "y_max": barycenter["y"],
        }
    )
    return EXIT_OK


def _digit_limit() -> int:
    """The interpreter's limit on the digits of a printed integer, read at
    each call; 0 is no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


# the tails of the messages that refuse a number too long to print or to read,
# given the limit
_TOO_LONG = (
    "would print with more than {} digits, the interpreter's limit (sys.set_int_max_str_digits)"
)
_TOO_LONG_TO_READ = (
    "has more than {} digits, the interpreter's limit (sys.set_int_max_str_digits)"
)

# a mass in Fraction's grammar: a sign, then digits over digits or a decimal
# with an optional fractional part and exponent, each run of digits possibly
# grouped by underscores
_MASS = (r"\s*([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)"
         r"(?:/(\d+(?:_\d+)*)|(?:\.(\d*|\d+(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?)\s*")


def _scan_mass(raw: str) -> Fraction:
    """The mass ``raw`` as a Fraction, checked before its digits are read.

    ``Fraction`` multiplies out a decimal exponent in full (``1e-10000000``
    takes seconds) and reads each run of digits as one integer, which the
    interpreter's digit limit refuses even when the value is short.  So a
    decimal is read as ``N * 10^e``, where ``N`` is its significant digits
    without leading or trailing zeros; a zero mantissa is 0 whatever its
    exponent.  Since ``t`` is printed, with ``k`` the digits of ``N`` the
    mass is refused when ``k + e`` (the numerator's digits, for ``e >= 0``)
    or ``1 - e - k`` (at most the denominator's, for ``e < 0``) exceeds the
    digit limit; an exponent with more digits than the limit is refused
    before it is read.  An ``N``, or a side of ``p/q`` without its leading
    zeros, longer than the limit cannot be read and is refused too.
    """
    match = re.fullmatch(_MASS, raw)
    if not match:
        raise ValueError(f"Invalid literal for Fraction: {raw!r}")
    sign, whole, denom, part, exp = (group.replace("_", "") for group in match.groups(""))
    limit = _digit_limit()
    too_long = f"mass {raw} is too long: "
    if denom:
        p, q = whole.lstrip("0"), denom.lstrip("0")
        for name, side in (("numerator", p), ("denominator", q)):
            if limit and len(side) > limit:
                raise ValueError(too_long + f"its {name} {_TOO_LONG_TO_READ.format(limit)}")
        if not q:
            raise ValueError(f"mass {raw} has a zero denominator")
        value = Fraction(int(p or "0"), int(q))
    else:
        digits = (whole + part).lstrip("0")
        n = digits.rstrip("0")
        if not n:
            return Fraction(0)
        # the limit counts an exponent's leading zeros too, so they go first
        magnitude = exp.lstrip("+-").lstrip("0") or "0"
        if limit and len(magnitude) > limit:
            raise ValueError(too_long + f"it {_TOO_LONG.format(limit)}")
        k = len(n)
        e = int(magnitude) * (-1 if exp.startswith("-") else 1) - len(part) + len(digits) - k
        if limit and max(k + e, 1 - e - k) > limit:
            raise ValueError(too_long + f"it {_TOO_LONG.format(limit)}")
        if limit and k > limit:
            raise ValueError(too_long + f"its significand {_TOO_LONG_TO_READ.format(limit)}")
        value = Fraction(int(n) * 10**e) if e >= 0 else Fraction(int(n), 10**-e)
    return -value if sign == "-" else value


def _refuse_unprintable(subject: str, payload: dict) -> None:
    """Refuse ``subject`` as too long, naming the first int or Fraction of
    ``payload`` that would print with more digits than the limit.  A value
    of at most ``3 * limit`` bits is below ``10**limit``, so the power is
    built only for a longer one."""
    limit = _digit_limit()
    if not limit:
        return
    for key, value in payload.items():
        if type(value) is Fraction:
            parts = (value.numerator, value.denominator)
        elif type(value) is int:
            parts = (value,)
        else:
            continue
        if any(v.bit_length() > 3 * limit and abs(v) >= 10**limit for v in parts):
            raise ValueError(f"{subject} is too long: its {key} {_TOO_LONG.format(limit)}")


def _cmd_geo_hunt(args: argparse.Namespace) -> int:
    from .invariants import hunt_scan

    s = check_rank(args.s)
    rows = []
    for raw in args.t or HUNT_SCAN:
        t = _scan_mass(raw)
        f, (_, _, sci) = hunt_scan(s, t)
        # a t that passes its check can still give an F or SCI that does not print
        _refuse_unprintable(f"mass {raw}", {"F": f, "sci": sci})
        rows.append({"t": t, "F": f, "sci": sci, "positive_index": sci > 0})
    _emit({"s": args.s, "points": rows})
    return EXIT_OK


# ---------------------------------------------------------------------------
# deform / examples


def _cmd_deform_check(args: argparse.Namespace) -> int:
    from . import moduli

    rep = moduli.deformation_criteria(from_path(args.path))
    _emit({"ok": rep.ok, **_fields(rep)})
    return EXIT_OK if rep.ok else EXIT_INVALID


def _cmd_examples_new_component(args: argparse.Namespace) -> int:
    from . import moduli

    spec = moduli.gen_new_component(args.M)
    l = eigensheaf_degrees(spec.branch)
    rep = moduli.deformation_criteria(spec)
    _emit(
        {
            "weights": spec.weights,
            "s": spec.branch.s,
            "d": spec.branch.d,
            "l_values": sorted(set(l[1:])),
            "flat": is_flat(spec),
            "deformation_ok": rep.ok,
            "cover": json.loads(to_json(spec)),
        }
    )
    return EXIT_OK


def _cmd_examples_unbounded(args: argparse.Namespace) -> int:
    from . import moduli

    # the total degree is the widest integer printed; a limit of 0 is no limit
    limit = _digit_limit()
    # the total is at least 2^(s-1), so a rank past the bit length of the
    # bound is refused before the family's integers are built
    too_large = limit and args.s > (10**limit).bit_length()
    fam = None if too_large else moduli.gen_unbounded(args.s, args.kind)
    if too_large or (limit and fam.total >= 10**limit):
        raise ValueError(f"--s {args.s} is too large: the total degree {_TOO_LONG.format(limit)}")
    _emit(
        {
            "kind": fam.kind,
            "s": fam.s,
            "m": fam.m,
            "weights": fam.weights,
            "height": fam.height,
            "L": fam.L,
            "M": fam.M,
            "k": 1,
            "l_on": fam.l_on,
            "l_off": fam.l_off,
            "total_degree": fam.total,
            "flat": fam.flat,
            "p_m": fam.p_m,
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def add_actions(parser: argparse.ArgumentParser, command: str) -> None:
    """Add the actions of ``command``, with their arguments, to its parser."""
    actions = parser.add_subparsers(dest="action", required=True)
    if command == "cover":
        p = actions.add_parser("check", help="structural validation report")
        p.add_argument("path")
        p.set_defaults(func=_cmd_cover_check)
        p = actions.add_parser("invariants", help="K^3, chi(O), e(X), geography ratios")
        p.add_argument("path")
        p.set_defaults(func=_cmd_cover_invariants)
    elif command == "geography":
        p = actions.add_parser("sample", help="random rational simplex points")
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--count", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.set_defaults(func=_cmd_geo_sample)
        p = actions.add_parser("extremes", help="vertex and barycenter coordinates with bounds")
        p.add_argument("--s", type=int, required=True)
        p.set_defaults(func=_cmd_geo_extremes)
        p = actions.add_parser("hunt", help="positive-index points on the triple-free family")
        p.add_argument("--s", type=int, default=3)
        p.add_argument("--t", action="append", help="mass at the base point, e.g. 3/5 (repeatable)")
        p.set_defaults(func=_cmd_geo_hunt)
    elif command == "deform":
        p = actions.add_parser("check")
        p.add_argument("path")
        p.set_defaults(func=_cmd_deform_check)
    else:  # examples
        p = actions.add_parser("new-component", help="rigid non-flat cover of P(1,1,1,M)")
        p.add_argument("--M", type=int, required=True)
        p.set_defaults(func=_cmd_examples_new_component)
        p = actions.add_parser("unbounded", help="pluricanonical family member at rank s")
        p.add_argument("--kind", choices=("canonical", "bicanonical"), required=True)
        p.add_argument("--s", type=int, required=True)
        p.set_defaults(func=_cmd_examples_unbounded)
