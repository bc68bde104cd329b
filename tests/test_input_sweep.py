"""Inputs at the edges of every accepted range end in bounded time.

Each argv runs through ``cli.main`` in process under a 2 s ``signal.alarm``
budget; argparse's ``SystemExit`` is read as the exit code.  Every run must
exit 0, 1 or 2 with no traceback, and an exit-2 message must name the
input it refuses.  This module holds the argv generator: ranks and
multiples at both ends of ``classify``, the largest ranks of
``geography``, the digit-limit edges of ``examples`` and of the ``hunt``
masses, and the first values out of range.
"""

import contextlib
import io
import json
import signal

import pytest

from z2cover.cli import EXIT_INVALID, EXIT_MALFORMED, EXIT_OK, main

BUDGET_S = 2
FOUR_THOUSAND_DIGITS = str(10**3999 + 7)

ARGVS = (
    [["classify", "--s", s, "--m", m] for s in ("1", "2", "16") for m in ("1", "100000000")]
    + [
        ["classify", "--s", "1", "--m", "100000000", "--bounds-report"],
        ["classify", "--s", "1", "--m", "100000000", "--t-max", "100000000"],
        ["classify", "--s", "1", "--m", FOUR_THOUSAND_DIGITS],
        ["classify", "--s", "16", "--m", "1", "--bounds-report"],
    ]
    + [["geography", "sample", "--s", s, "--count", "1"] for s in ("1", "16")]
    + [["geography", "extremes", "--s", s] for s in ("1", "16")]
    + [["geography", "hunt", "--s", s] for s in ("3", "16")]
    + [["geography", "hunt", "--t", mass] for mass in ("1e-" + "9" * 5000, "0." + "0" * 5000 + "1")]
    + [["examples", "unbounded", "--kind", "canonical", "--s", s] for s in ("4", "14285")]
    + [["examples", "unbounded", "--kind", "bicanonical", "--s", s] for s in ("3", "100000000")]
    + [["examples", "new-component", "--M", M] for M in ("4", "1000000")]
    + [
        ["classify", "--s", "0", "--m", "1"],
        ["classify", "--s", "17", "--m", "1"],
        ["classify", "--s", "1", "--m", "0"],
    ]
)

# the words by which a refusal may name each refused flag: the flag or its quantity
NAMES = {"--s": ("--s", "rank"), "--m": ("--m", "multiple"), "--t": ("--t", "mass")}


class Overrun(Exception):
    """Raised by the alarm; no handler in the CLI catches it."""


def _overrun(signum, frame):
    raise Overrun(f"over the {BUDGET_S} s budget")


def _argv_id(argv):
    return " ".join(arg if len(arg) < 20 else f"<{len(arg)} digits>" for arg in argv)


def _run(argv):
    """``(exit code, stdout, stderr)`` of ``argv`` run within the budget."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", ARGVS, ids=[_argv_id(argv) for argv in ARGVS])
def test_edge_argv_ends_in_budget(argv):
    code, _, message = _run(argv)
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_MALFORMED)
    assert "Traceback" not in message
    if code == EXIT_MALFORMED:
        words = [word for flag in argv if flag in NAMES for word in NAMES[flag]]
        assert any(word in message for word in words), message


# literals longer than the digit limit: the first two are 1/10 and 1/2, and
# the third is a p/q whose numerator cannot be read
LONG_MASSES = [
    ("1e-" + "0" * 5000 + "1", "1/10"),
    ("0.5" + "0" * 5000, "1/2"),
    ("2" + "0" * 5000 + "/4" + "0" * 5000, None),
]


@pytest.mark.parametrize("mass, t", LONG_MASSES, ids=[_argv_id([mass]) for mass, _ in LONG_MASSES])
def test_long_mass_literal_is_read_by_its_value(mass, t):
    code, out, err = _run(["geography", "hunt", "--t", mass])
    if t:
        assert (code, err) == (EXIT_OK, "")
        assert [row["t"] for row in json.loads(out)["points"]] == [t]
    else:
        assert (code, out) == (EXIT_MALFORMED, "")
        assert err == (f"error: mass {mass} is too long: its numerator has more than 4300 digits,"
                       " the interpreter's limit (sys.set_int_max_str_digits)\n")
