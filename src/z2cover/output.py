"""The exit codes and the writers that every command shares.

JSON is written by one recursive writer with the bytes of
``json.dumps(value, indent=2)``; tables by one formatter as CSV or
Markdown.  The ``json`` package is not imported: strings are escaped by the
C accelerator that ``json.encoder`` itself binds.
"""

from __future__ import annotations

import io
from fractions import Fraction

from .wps import Weights

try:
    from _json import encode_basestring_ascii as _encode_str
except ImportError:  # an interpreter without the accelerator
    from json.encoder import encode_basestring_ascii as _encode_str

__all__ = ["EXIT_OK", "EXIT_INVALID", "EXIT_MALFORMED"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MALFORMED = 2


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
