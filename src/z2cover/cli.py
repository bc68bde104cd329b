"""Command-line front end.

Subcommands map one-to-one onto the library: ``cover`` for single-cover
checks and invariants, ``geography`` for the ratio-simplex coordinates,
``classify`` for the exhaustive admissible lists, ``deform`` for the
rigidity criteria, ``examples`` for the generated families.  All rational
output is exact ("p/q" strings in JSON, never floats), list output is
canonically sorted before emission, and fixing the seed makes every byte
of stdout reproducible.

Exit codes: 0 success, 1 the checked object failed a validation, 2
malformed input (bad JSON, bad parameters, out-of-range ranks).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import re
import sys
from fractions import Fraction
from operator import attrgetter, itemgetter

# only what every command needs is imported here; each handler imports the
# library module it runs, so a process loads no module its command skips
from .cover import (
    check_rank,
    eigensheaf_degrees,
    from_path,
    is_flat,
    to_json,
    validate,
)
from .walsh import NonIntegralError
from .wps import Weights

__all__ = [
    "main",
    "solutions_to_md",
    "families_to_md",
]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MALFORMED = 2

# scan masses of the hunt family: 1/2 lies below its positive-index window,
# the other four lie inside it
HUNT_SCAN = ("1/2", "11/20", "3/5", "13/20", "17/25")


_encode_str = json.encoder.encode_basestring_ascii


def _json_texts(values, indent: str) -> list[str]:
    """The JSON text of each of ``values``, nested at ``indent``: the bytes
    of ``json.dumps(value, indent=2)``, a Fraction written as its "p/q"
    string and ``Weights`` as the list of its weights.

    With ``indent`` set, ``json`` runs its pure-Python encoder, which builds
    the text from generators; this writes the same bytes with one ``join``
    per container, and a container's scalar children without a call each.
    Only the exact types the commands print are written: any other type,
    subclasses, ``float`` and records included, raises :class:`TypeError`,
    and so does a dict key whose type is not exactly ``str``.
    """
    texts = []
    for value in values:
        kind = type(value)
        if kind is Fraction:
            # the text of a Fraction is "-", digits and "/", which JSON never escapes
            texts.append('"' + str(value) + '"')
        elif kind is int:
            texts.append(int.__repr__(value))
        elif kind is str:
            texts.append(_encode_str(value))
        elif kind is bool:
            texts.append("true" if value else "false")
        elif value is None:
            texts.append("null")
        elif kind is dict:
            texts.append(_json_object(value, indent))
        elif kind is list or kind is tuple:
            texts.append(_json_array(value, indent))
        elif kind is Weights:
            texts.append(_json_array(value.a, indent))
        else:
            raise TypeError(f"{kind.__name__} is not JSON serializable")
    return texts


def _json_array(value, indent: str) -> str:
    if not value:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(_json_texts(value, inner)) + "\n" + indent + "]"


def _json_object(value, indent: str) -> str:
    if not value:
        return "{}"
    inner = indent + "  "
    for key in value:
        if type(key) is not str:
            raise TypeError(f"keys must be str, not {type(key).__name__}")
    keys = list(map(_encode_str, value))
    items = [key + ": " + text for key, text in zip(keys, _json_texts(value.values(), inner))]
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"


def _emit(payload) -> None:
    [text] = _json_texts((payload,), "")
    print(text)


# record fields whose JSON keys differ from their names
_JSON_KEYS = {"k3": "K3", "euler_exact": "exact", "p_m": "p"}


def _fields(record) -> dict:
    """A record's fields in declared order, under their JSON keys."""
    return {_JSON_KEYS.get(k, k): v for k, v in record._asdict().items()}


def _table(fmt: str, columns, rows) -> str:
    """CSV or Markdown text of ``rows``, one ``(header, cell)`` pair per column.

    CSV cells go through :mod:`csv` (``None`` is an empty cell); Markdown
    cells are ``str`` of the cell value.
    """
    if fmt == "csv":
        import csv

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([header for header, _ in columns])
        writer.writerows([cell(row) for _, cell in columns] for row in rows)
        return out.getvalue().rstrip("\n")
    lines = ["| " + " | ".join(header for header, _ in columns) + " |",
             "|" + "---|" * len(columns)]
    lines += ["| " + " | ".join(str(cell(row)) for _, cell in columns) + " |" for row in rows]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# cover


def _cmd_cover_check(args: argparse.Namespace) -> int:
    report = validate(from_path(args.path))
    payload = _fields(report)
    # ``connected`` stays out to keep the payload's key set stable; a
    # disconnected cover fails ``ok`` and says why in its messages
    del payload["connected"]
    _emit({"ok": report.ok, **payload})
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_cover_invariants(args: argparse.Namespace) -> int:
    from .invariants import invariant_report

    _emit(_fields(invariant_report(from_path(args.path))))
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


# the tail of each message that refuses a number too long to print, given the limit
_TOO_LONG = (
    "would print with more than {} digits, the interpreter's limit (sys.set_int_max_str_digits)"
)

# a decimal mass with an exponent in Fraction's grammar: digits, an optional
# fractional part and the exponent, each possibly grouped by underscores
_EXPONENT_MASS = r"\s*[-+]?(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?[eE]([-+]?\d+(?:_\d+)*)\s*"


def _scan_mass(raw: str) -> Fraction:
    """The mass ``raw`` as a Fraction, checked before its exponent is expanded.

    ``Fraction`` multiplies out a decimal exponent in full (``1e-10000000``
    takes seconds).  A zero mantissa is read without its exponent.  Since
    ``t`` is printed, a mass ``N * 10^e`` whose ``N`` has ``k`` significant
    digits is refused when ``k + e`` (the numerator's digits, for
    ``e >= 0``) or ``1 - e - k`` (at most the denominator's, for ``e < 0``)
    exceeds the interpreter's digit limit.
    """
    match = re.fullmatch(_EXPONENT_MASS, raw)
    if match:
        whole, part, exp = (group.replace("_", "") for group in match.groups(""))
        digits = len((whole + part).lstrip("0"))
        e = int(exp) - len(part)
        limit = _digit_limit()
        if whole + part and not digits:
            raw = raw[: match.start(3) - 1]
        elif digits and limit and max(digits + e, 1 - e - digits) > limit:
            raise ValueError(f"mass {raw} is too long: it {_TOO_LONG.format(limit)}")
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise ValueError(f"mass {raw} has a zero denominator") from None


def _cmd_geo_hunt(args: argparse.Namespace) -> int:
    from .invariants import hunt_scan

    s = check_rank(args.s)
    values = args.t or list(HUNT_SCAN)
    limit = _digit_limit()
    bound = limit and 10**limit
    rows = []
    for raw in values:
        t = _scan_mass(raw)
        f, (_, _, sci) = hunt_scan(s, t)
        # a t that prints can still give an F or SCI that does not
        for name, value in (("F", f), ("sci", sci)):
            if bound and max(abs(value.numerator), value.denominator) >= bound:
                raise ValueError(f"mass {raw} is too long: its {name} {_TOO_LONG.format(limit)}")
        rows.append({"t": t, "F": f, "sci": sci, "positive_index": sci > 0})
    _emit({"s": args.s, "points": rows})
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify


# one column list per row kind: the Markdown main table of solutions shows
# the first five columns, the supplementary table and CSV all of them
_SOLUTION_COLUMNS = [
    ("m", attrgetter("m")),
    ("weights", attrgetter("weights")),
    ("d", lambda sol: "(" + ",".join(str(v) for v in sol.d[1:]) + ")"),
    ("k", attrgetter("k")),
    ("p", attrgetter("p_m")),
    ("status", attrgetter("status")),
    ("note", attrgetter("note")),
]


def _family_k(fam) -> str:
    coeff = "t" if fam.m == 1 else f"{fam.m}t"
    return f"{coeff} - {fam.m * fam.weights.W // fam.weights.L}"


def _family_window(fam) -> str:
    if fam.t_sup is None:
        return f"t >= {fam.t_min}"
    return f"{fam.t_min} <= t < {fam.t_sup}"


# one column list for rank-1 families, from which Markdown shows the
# parametrized k and window, CSV the raw window ends and the note
_FAMILY_COLUMNS = [
    ("m", attrgetter("m")),
    ("weights", attrgetter("weights")),
    ("degree", lambda fam: f"{fam.degree_coefficient}t"),
    ("k", _family_k),
    ("window", _family_window),
    ("t_min", attrgetter("t_min")),
    ("t_sup", attrgetter("t_sup")),
    ("status", attrgetter("status")),
    ("note", attrgetter("note")),
]
_FAMILY_MD = [c for c in _FAMILY_COLUMNS if c[0] not in ("t_min", "t_sup", "note")]
_FAMILY_CSV = [c for c in _FAMILY_COLUMNS if c[0] not in ("k", "window")]


def solutions_to_md(solutions) -> str:
    """Markdown tables: catalogued rows first, everything else after."""
    from . import classify

    main = [x for x in solutions if x.status == classify.MAIN]
    rest = [x for x in solutions if x.status != classify.MAIN]
    text = _table("md", _SOLUTION_COLUMNS[:5], main)
    if rest:
        text += "\n\nsupplementary:\n\n" + _table("md", _SOLUTION_COLUMNS, rest)
    return text


def families_to_md(families) -> str:
    return _table("md", _FAMILY_MD, families)


def _family_fields(fam) -> dict:
    weights, m, *rest = _fields(fam).items()
    return dict([weights, m, ("degree_coefficient", fam.degree_coefficient), *rest])


def _cmd_classify(args: argparse.Namespace) -> int:
    from . import classify

    check_rank(args.s)
    if args.m < 1:
        raise ValueError(f"--m must be positive, got {args.m}")
    if args.s == 1 and args.base != "all":
        raise ValueError(
            f"--base {args.base} needs --s >= 2: rank 1 lists the towers of every base"
        )
    if args.s >= 2 and args.t_max is not None:
        raise ValueError("--t-max needs --s 1: it bounds the degree t of the rank-1 towers")
    if args.t_max is not None and args.t_max < 1:
        raise ValueError(f"--t-max must be positive, got {args.t_max}")
    if args.bounds_report:
        print(classify.bounds_report(args.s, args.m), file=sys.stderr)
    if args.s == 1:
        rows = classify.enumerate_s1(args.m, t_max=args.t_max)
        key, fields, to_md, columns = "families", _family_fields, families_to_md, _FAMILY_CSV
    else:
        rows = []
        if args.base in ("all", "flat"):
            rows.extend(classify.enumerate_flat(args.s, args.m))
        if args.base in ("all", "projective"):
            rows.extend(classify.enumerate_L1(args.s, args.m))
        rows.sort(key=classify.AdmissibleSolution.sort_key)
        key, fields, to_md, columns = "solutions", _fields, solutions_to_md, _SOLUTION_COLUMNS
    if args.fmt == "md":
        print(to_md(rows))
    elif args.fmt == "csv":
        print(_table("csv", columns, rows))
    else:
        _emit({"s": args.s, "m": args.m, key: [fields(row) for row in rows]})
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of the whole CLI, built once per process."""
    parser = argparse.ArgumentParser(
        prog="z2cover",
        description="exact invariants and classification of (Z/2)^s covers of weighted P^3",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cover = sub.add_parser("cover", help="validate a cover file or compute its invariants")
    cover_sub = cover.add_subparsers(dest="action", required=True)
    p = cover_sub.add_parser("check", help="structural validation report")
    p.add_argument("path")
    p.set_defaults(func=_cmd_cover_check)
    p = cover_sub.add_parser("invariants", help="K^3, chi(O), e(X), geography ratios")
    p.add_argument("path")
    p.set_defaults(func=_cmd_cover_invariants)

    geo = sub.add_parser("geography", help="Chern-ratio geography of the branch simplex")
    geo_sub = geo.add_subparsers(dest="action", required=True)
    p = geo_sub.add_parser("sample", help="random rational simplex points")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_geo_sample)
    p = geo_sub.add_parser("extremes", help="vertex and barycenter coordinates with bounds")
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_geo_extremes)
    p = geo_sub.add_parser("hunt", help="positive-index points on the triple-free family")
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--t", action="append", help="mass at the base point, e.g. 3/5 (repeatable)")
    p.set_defaults(func=_cmd_geo_hunt)

    p = sub.add_parser("classify", help="exhaustive admissible covers for one (s, m)")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--base", choices=("all", "flat", "projective"), default="all")
    p.add_argument("--format", dest="fmt", choices=("json", "md", "csv"), default="json")
    p.add_argument("--t-max", dest="t_max", type=int, default=None)
    p.add_argument("--bounds-report", dest="bounds_report", action="store_true")
    p.set_defaults(func=_cmd_classify)

    deform = sub.add_parser("deform", help="deformation-rigidity criteria")
    deform_sub = deform.add_subparsers(dest="action", required=True)
    p = deform_sub.add_parser("check")
    p.add_argument("path")
    p.set_defaults(func=_cmd_deform_check)

    examples = sub.add_parser("examples", help="generated families")
    examples_sub = examples.add_subparsers(dest="action", required=True)
    p = examples_sub.add_parser("new-component", help="rigid non-flat cover of P(1,1,1,M)")
    p.add_argument("--M", type=int, required=True)
    p.set_defaults(func=_cmd_examples_new_component)
    p = examples_sub.add_parser("unbounded", help="pluricanonical family member at rank s")
    p.add_argument("--kind", choices=("canonical", "bicanonical"), required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_examples_unbounded)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NonIntegralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
