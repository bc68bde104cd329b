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

``classify`` is handled here; the other commands are in
:mod:`z2cover.handlers`, which is imported only to run one of them.  The
writers both share are in :mod:`z2cover.output`: ``python -m z2cover.cli``
runs this file as ``__main__``, so a library module that imported it would
compile it a second time.
"""

from __future__ import annotations

import argparse
import functools
import sys
from operator import attrgetter

# only modules every command loads are imported here; each handler imports
# the library module it runs, so a process loads no module its command skips
from .branch import check_rank
from .output import EXIT_INVALID, EXIT_MALFORMED, EXIT_OK, _emit, _fields, _table
from .walsh import NonIntegralError

__all__ = [
    "main",
    "solutions_to_md",
    "families_to_md",
]


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
# wiring

# each command's help, in the order the root parser lists them
COMMANDS = {
    "cover": "validate a cover file or compute its invariants",
    "geography": "Chern-ratio geography of the branch simplex",
    "classify": "exhaustive admissible covers for one (s, m)",
    "deform": "deformation-rigidity criteria",
    "examples": "generated families",
}


@functools.cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """The CLI's parser, built once per command and process.

    The root parser names every command with its help; only ``command``
    gets its actions and arguments, so a process builds no branch it does
    not run.
    """
    parser = argparse.ArgumentParser(
        prog="z2cover",
        description="exact invariants and classification of (Z/2)^s covers of weighted P^3",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name != command:
            continue
        if name == "classify":
            p.add_argument("--s", type=int, required=True)
            p.add_argument("--m", type=int, required=True)
            p.add_argument("--base", choices=("all", "flat", "projective"), default="all")
            p.add_argument("--format", dest="fmt", choices=("json", "md", "csv"), default="json")
            p.add_argument("--t-max", dest="t_max", type=int, default=None)
            p.add_argument("--bounds-report", dest="bounds_report", action="store_true")
            p.set_defaults(func=_cmd_classify)
        else:
            from .handlers import add_actions

            add_actions(p, name)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse dispatches on the first argument that is not an option; the
    # root parser has no option that takes a value
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = _parser(command if command in COMMANDS else None).parse_args(argv)
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
