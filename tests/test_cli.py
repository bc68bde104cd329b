"""Command-line front end: exit codes, serialization, determinism."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import NamedTuple

import pytest

import z2cover
from z2cover import classify, cli
from z2cover.cover import BranchData, eigensheaf_degrees
from z2cover.cli import (
    EXIT_INVALID,
    EXIT_MALFORMED,
    EXIT_OK,
    _emit,
    families_to_md,
    main,
)
from z2cover.wps import Weights

import oracles

TRIPLE = '{"weights": [1, 1, 1, 1], "s": 2, "d": {"10": 3, "01": 3, "11": 3}}'
QUADRIC = '{"weights": [1, 1, 3, 3], "s": 2, "d": {"10": 6, "01": 6, "11": 6}}'
PARITY_BAD = '{"weights": [1, 1, 1, 1], "s": 2, "d": {"10": 1, "01": 2, "11": 2}}'


@pytest.fixture
def cover_file(tmp_path):
    def write(text, name="cover.json"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


COVER_COMMANDS = [("cover", "check"), ("cover", "invariants"), ("deform", "check")]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCover:
    def test_check_ok(self, capsys, cover_file):
        code, out, _ = run_cli(capsys, "cover", "check", cover_file(QUADRIC))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["ok"] and payload["flat"]
        assert payload["hurwitz"] == "1"
        assert payload["half_points"] == 24
        assert payload["messages"] == []

    def test_check_invalid_cover(self, capsys, cover_file):
        code, out, _ = run_cli(capsys, "cover", "check", cover_file(PARITY_BAD))
        assert code == EXIT_INVALID
        payload = json.loads(out)
        assert not payload["ok"] and not payload["parity_ok"]

    @pytest.mark.parametrize("weights, d, failed, message", [
        ([2, 2, 2, 3], {"10": 6, "01": 6, "11": 12}, "weights_well_formed",
         "weights (2,2,2,3) are not well formed"),
        ([1, 1, 1, 3], {"10": 4, "01": 4, "11": 8}, "half_points_integral",
         "half-point count 128/3 is not integral"),
    ], ids=["ill-formed-weights", "fractional-half-points"])
    def test_check_names_the_one_failed_check(self, capsys, cover_file, weights, d, failed,
                                              message):
        text = json.dumps({"weights": weights, "s": 2, "d": d})
        code, out, _ = run_cli(capsys, "cover", "check", cover_file(text))
        assert code == EXIT_INVALID
        payload = json.loads(out)
        failures = {key for key, value in payload.items() if value is False}
        assert failures == {"ok", "flat", failed}  # flatness is reported, not required
        assert payload["messages"] == [message]

    def test_check_malformed_json(self, capsys, cover_file):
        code, _, err = run_cli(capsys, "cover", "check", cover_file("{not json"))
        assert code == EXIT_MALFORMED
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "text",
        [
            '{"weights": [1, 1, 1, 1], "s": 2, "d": {"10": true}}',
            '{"weights": [1, 1, 1, 1], "s": true, "d": {"1": 2}}',
            '{"weights": [true, 1, 1, 1], "s": 2, "d": {"10": 3, "01": 3, "11": 3}}',
        ],
        ids=["degree", "rank", "weight"],
    )
    def test_check_rejects_json_booleans(self, capsys, cover_file, text):
        code, out, err = run_cli(capsys, "cover", "check", cover_file(text))
        assert code == EXIT_MALFORMED
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("key", ["1_0", " 10", "10 "])
    def test_check_rejects_padded_group_element(self, capsys, cover_file, key):
        # int(key[::-1], 2) alone would read each of these keys as 1
        text = json.dumps({"weights": [1, 1, 1, 1], "s": 3, "d": {key: 2}})
        code, out, err = run_cli(capsys, "cover", "check", cover_file(text))
        assert code == EXIT_MALFORMED
        assert out == "" and err == f"error: bad group element {key!r} for rank 3\n"

    @pytest.mark.parametrize("argv", COVER_COMMANDS)
    def test_rejects_duplicate_key(self, capsys, cover_file, argv):
        # with last-one-wins the degree 2 on 11 would be checked, and pass
        text = '{"weights":[1,1,1,1],"s":2,"d":{"10":6,"01":6,"11":6,"11":2}}'
        code, out, err = run_cli(capsys, *argv, cover_file(text))
        assert (code, out, err) == (EXIT_MALFORMED, "", "error: duplicate key '11'\n")

    @pytest.mark.parametrize("argv", COVER_COMMANDS)
    @pytest.mark.parametrize("depth", [1_000, 100_000])
    @pytest.mark.parametrize("opener", ["[", '{"a": '], ids=["array", "object"])
    def test_deep_nesting_is_malformed(self, capsys, cover_file, argv, depth, opener):
        # the decoder runs out of stack (RecursionError) or input: exit 2, not 1
        code, out, err = run_cli(capsys, *argv, cover_file(opener * depth))
        assert (code, out) == (EXIT_MALFORMED, "") and err.startswith("error: invalid JSON: ")

    def test_deep_nesting_is_malformed_in_a_fresh_interpreter(self, cover_file):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "z2cover", "cover", "check", cover_file("[" * 100_000)],
            capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (EXIT_MALFORMED, "")
        assert proc.stderr.startswith("error: invalid JSON: ")

    @pytest.mark.parametrize("argv", COVER_COMMANDS)
    def test_names_a_file_that_is_not_utf8(self, capsys, tmp_path, argv):
        p = tmp_path / "latin1.json"
        p.write_bytes('{"weights": [1, 1, 1, 1], "s": 1, "d": {"1": 2}, "note": "caf\xe9"}'
                      .encode("latin-1"))
        code, out, err = run_cli(capsys, *argv, str(p))
        assert (code, out) == (EXIT_MALFORMED, "")
        assert err.startswith(f"error: cannot read {p}: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize("argv", COVER_COMMANDS)
    def test_names_a_number_past_the_digit_limit(self, capsys, cover_file, argv):
        # the decoder reads the 5001-digit degree with int(), which refuses it
        text = '{"weights": [1, 1, 1, 1], "s": 1, "d": {"1": 1' + "0" * 5000 + "}}"
        code, out, err = run_cli(capsys, *argv, cover_file(text))
        assert (code, out) == (EXIT_MALFORMED, "")
        assert err == ("error: a number in the file has more than 4300 digits,"
                       " the interpreter's limit (sys.set_int_max_str_digits)\n")

    @pytest.mark.parametrize("argv, code, field", [
        (("cover", "check"), EXIT_MALFORMED, "half_points"),
        (("cover", "invariants"), EXIT_MALFORMED, "K3"),
        (("deform", "check"), EXIT_INVALID, None),
    ], ids=["check", "invariants", "deform"])
    def test_names_the_first_field_that_would_not_print(self, capsys, monkeypatch, cover_file,
                                                         argv, code, field):
        # three 1501-digit degrees: the half-point count N^3 and K^3 have
        # about 4500 digits, while deform check prints only degrees
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        n = 10**1500
        path = cover_file(json.dumps({"weights": [1, 1, 1, 1], "s": 2,
                                      "d": {"10": n, "01": n, "11": n}}))
        got, out, err = run_cli(capsys, *argv, path)
        if field is None:
            assert (got, err) == (code, "") and json.loads(out)["failing_pairs"]
        else:
            assert (got, out) == (code, "")
            assert err == (f"error: cover {path} is too long: its {field} would print with more"
                           " than 4300 digits, the interpreter's limit (sys.set_int_max_str_digits)\n")

    def test_check_negative_degree(self, capsys, cover_file):
        text = '{"weights": [1, 1, 1, 1], "s": 2, "d": {"10": 2, "01": -1}}'
        code, out, err = run_cli(capsys, "cover", "check", cover_file(text))
        assert (code, out, err) == (EXIT_MALFORMED, "", "error: bad degree -1 at '01'\n")

    def test_check_fails_disconnected_cover(self, capsys, cover_file):
        _, good, _ = run_cli(capsys, "cover", "check", cover_file(QUADRIC))
        # the support 100, 010, 110 lies in a rank-2 subgroup of (Z/2)^3
        text = '{"weights": [1, 1, 3, 3], "s": 3, "d": {"100": 6, "010": 6, "110": 6}}'
        code, out, _ = run_cli(capsys, "cover", "check", cover_file(text))
        assert code == EXIT_INVALID
        payload = json.loads(out)
        assert list(payload) == list(json.loads(good))
        assert not payload["ok"] and payload["parity_ok"] and payload["half_points_integral"]
        assert payload["messages"] == [
            "branch support spans a rank-2 subgroup: h^0(O_X) = 2^1, the cover is not connected"
        ]

    def test_check_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "cover", "check", str(tmp_path / "nope.json"))
        assert code == EXIT_MALFORMED

    def test_invariants_payload(self, capsys, cover_file):
        code, out, _ = run_cli(capsys, "cover", "invariants", cover_file(TRIPLE))
        assert code == EXIT_OK
        assert json.loads(out) == {
            "K3": "1/2",
            "chi": 1,
            "euler": "-92",
            "exact": True,
            "hurwitz": "1/2",
            "half_points": 27,
            "flat": True,
            "x": "-23/6",
            "y": "-1/48",
            "sci": "-121/32",
        }


def p3_cover_text(s, d):
    """Cover file text for branch degrees ``d`` on P^3."""
    bits = {g: "".join("1" if (g >> i) & 1 else "0" for i in range(s)) for g in range(1 << s)}
    return json.dumps({"weights": [1, 1, 1, 1], "s": s,
                       "d": {bits[g]: v for g, v in enumerate(d) if v}})


def seeded_p3_degrees(s, seed):
    rng = random.Random(seed)
    return [0] + [rng.choice((0, 2, 4, 6)) for _ in range(1, 1 << s)]


def timed_cli(capsys, *argv):
    started = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    return code, out, err, time.monotonic() - started


# rank-3 covers of P^3: a valid one, one of odd parity (fractional eigensheaf
# degrees) and one whose support spans a proper subgroup
FROZEN_COVERS = {
    "valid": p3_cover_text(3, (0, 2, 2, 2, 2, 2, 2, 2)),
    "odd": p3_cover_text(3, (0, 1, 2, 2, 2, 2, 2, 2)),
    "disconnected": p3_cover_text(3, (0, 6, 6, 6, 0, 0, 0, 0)),
}

# (argv, exit code, sha256 of stdout); a {name} argument is the path of a
# file holding FROZEN_COVERS[name]
FROZEN_STDOUT = [
    ("classify --s 1 --m 1 --format json", 0,
     "046e5776123e72720062875bb22813fe4294297708581d7b8b1c2fa24a3d6e26"),
    ("classify --s 1 --m 1 --format md", 0,
     "19fc68ebf59f0c4c7f43f994c1b655211f2244bfd6f00d7f90d63080b8834c2a"),
    ("classify --s 1 --m 1 --format csv", 0,
     "c22b2da85fec200ee72ae703e687a64a129ae6859bf8fd00a4e0b3139b79803c"),
    ("classify --s 1 --m 2 --format json", 0,
     "1519b8f0832ed4b2e50abf3d47bb4b6456d0db77719b4edb5673dbe24a2cac9b"),
    ("classify --s 1 --m 2 --format md", 0,
     "65c22ecb1623ac25e2d5a8c618d6a57adcee4a06c1ff14e2e602e93b51a983c1"),
    ("classify --s 1 --m 2 --format csv", 0,
     "34140f2957c30e39255c2cd8b44da610fc3e19c1711534a18cf19a8aff8e75c6"),
    ("classify --s 2 --m 1 --format json", 0,
     "2de48e6c7fbfa9d3a66bd2784da235e425064ce18b485e2081dc29dd50aa7f37"),
    ("classify --s 2 --m 1 --format md", 0,
     "cb51d3f9be3ff2d533114166aac65bb403db1ee29013a2bc491199cc53b3767a"),
    ("classify --s 2 --m 1 --format csv", 0,
     "2e4ec84e32e79614857ce070cd494b461b7f242bfa06ab8155da479d5d724051"),
    ("classify --s 2 --m 2 --format json", 0,
     "e6b2003328ae6f9e169c7a06930a68cfe8356675048d8c4ea99e4bbc8e5d5cd7"),
    ("classify --s 2 --m 2 --format md", 0,
     "6b00946dc98f3ee864198a744a17cc50f826218c530d00170ccd1942bb6afe09"),
    ("classify --s 2 --m 2 --format csv", 0,
     "cf57dfb8808e64d5c78ec96bbc8f1d2aef2be54309336dab08f0f6263368b311"),
    ("classify --s 3 --m 1 --format json", 0,
     "908a9579141205bcc920ef79c0a1025e6385a5426fa34a9c41609ede3d6a76c9"),
    ("classify --s 3 --m 1 --format md", 0,
     "18fbcfb9032af49986eeec8b6a56584dac207218a40013aecd5ac728f52a1766"),
    ("classify --s 3 --m 1 --format csv", 0,
     "765037b5e4578900cd0f8bce4eaca4aa88f3af004b8200ede6c04746b337fc6f"),
    ("classify --s 3 --m 2 --format json", 0,
     "7f7f897a652a63b2b32060f37b4e644a9b6f78b8e45154faf2eee548ab44294d"),
    ("classify --s 3 --m 2 --format md", 0,
     "d63ccece5e7a7fc285f7de259be4248a9d46c6b2acf352715f3d2ed8155db48f"),
    ("classify --s 3 --m 2 --format csv", 0,
     "26ec83bfe91ff4ecfe59a027719447f9253f026732f9ead32dd72fa8ec4488aa"),
    ("classify --s 1 --m 1 --t-max 7 --format json", 0,
     "b715fc633919d888929c3b31481addc6025589cafd93f3edf9c4cd621bb0445e"),
    ("classify --s 1 --m 1 --t-max 7 --format md", 0,
     "c760ef4b9383a1c7ec2e0178948e141b4f1a9e7c12df39ab7464f02c01127259"),
    ("classify --s 1 --m 1 --t-max 7 --format csv", 0,
     "7d7e61d60413e91ad24286be8600cf9c2f6a767e49e98a5708327765745d789f"),
    ("classify --s 5 --m 2 --format md", 0,
     "df2f8134f0e9c67633df6d269cb2e0c792f91c220a189bd34b669da7765d4bb1"),
    ("classify --s 1 --m 20", 0,
     "1e26c51bf415d6fcb3fae9736d6ebae479d9df76541499d05c1ceb840ea4a7d9"),
    ("classify --s 16 --m 1", 0,
     "84df0ab5886332e096f512c1ef395fb54be700194077145e08339496d33ce4d8"),
    ("classify --s 7 --m 1 --base flat", 0,
     "0e52da97023bcf6c3c799a6e9ddab92036cb3891a009ee797b65d0fbdc81ea3e"),
    ("geography sample --s 3 --count 20 --seed 7 --format json", 0,
     "b53aad2bc14188d88f21206104db0046cf37c162b6b9dea5757e9c713a67e7fa"),
    ("geography sample --s 3 --count 20 --seed 7 --format csv", 0,
     "21fa2b03122df1d05f93b1d76231d5a5e309dead4e84c56d9f573e6248357255"),
    ("geography sample --s 6 --count 25 --seed 7 --format json", 0,
     "cdf8e9b5f46004ca3fd5a3eff48a92c2b91795e8fde06b95f2f5b778cc0ce246"),
    ("geography extremes --s 2", 0,
     "b7cc9cd54642892203d8a945a7f76dc7beeca9ecbd86c48839e452dece8f49fa"),
    ("geography extremes --s 5", 0,
     "c8214010ecc8f91936776f4dc367973eac61d93802e78e2591cc47a2a0bab36e"),
    ("geography hunt", 0,
     "779896184abe2b5737537eb7827c030b24d87f578e7c6ef2e25c4d3bb2623c91"),
    ("geography hunt --s 4 --t 3/5 --t 1", 0,
     "75d2878144a606bff49488c49bee99a4d13c22abadf1c6195a7169be402b9efb"),
    ("geography hunt --t 1e-1075", 0,
     "5fbb3b40e0c37c8b405f7aac2ce28dfc47fc58b770daad34f6cbbd09689e2773"),
    ("cover check {valid}", 0,
     "277d8f18f31c3523740d8fca6fd867d64b0f1a36c74a6c9372cf14ff5855bc76"),
    ("cover invariants {valid}", 0,
     "da02f000458df1c37ee8383b175f2087cbbc1367d02213ded4fffff1d803cb17"),
    ("deform check {valid}", 0,
     "6f8a8ef7253d5fadcdf822f35801be098c01ec61f9d66ebc7ff370e6fac09e02"),
    ("cover check {odd}", 1,
     "d6864563b74d6f5f3807192ba5eca4954955eefb1c80fed03d5896103075d0ad"),
    ("cover invariants {odd}", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("deform check {odd}", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cover check {disconnected}", 1,
     "dc6fda28bbadeec0d1ba55b0778c13895a52caac73530d29680fd8a5173d4fbf"),
    ("cover invariants {disconnected}", 0,
     "119584d3330bc1fd7071c91119f24fc1f962682ce7771b5406e85e92dd28736d"),
    ("deform check {disconnected}", 1,
     "19104d5a0e7266fc5262fb49a81bc3cd3135ff2e19e5428efe4992abe2151536"),
    ("examples new-component --M 6", 0,
     "c41b1bdf89b44f04ce28d0b985aa758af1e93b04767ab3759199782ea9a45a0f"),
    ("examples unbounded --kind canonical --s 10", 0,
     "f1bb2ae2ad9b9f52f40141a96a5bb14debaac3b607e96a0665777f28d61b8da9"),
    ("examples unbounded --kind bicanonical --s 5", 0,
     "f4a39006b2a1e3a718cbd631ee718e3a616bbf6eed3b23d30f72515ec6f08102"),
]


def expand(cover_file, argv):
    """The arguments of a command line, each {name} written out as {name}.json."""
    return [cover_file(FROZEN_COVERS[a[1:-1]], f"{a[1:-1]}.json") if a.startswith("{") else a
            for a in argv.split()]


def frozen_run(capsys, cover_file, argv):
    """Exit code and stdout sha256 of one FROZEN_STDOUT command line."""
    got, out, _ = run_cli(capsys, *expand(cover_file, argv))
    return got, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv, code, digest", FROZEN_STDOUT,
                         ids=[argv for argv, _, _ in FROZEN_STDOUT])
def test_stdout_frozen(capsys, cover_file, argv, code, digest):
    assert frozen_run(capsys, cover_file, argv) == (code, digest)


class Record(NamedTuple):
    name: str
    value: Fraction


class Count(int):
    pass


class Name(str):
    pass


def _json_hook(v):
    """The ``json.dumps`` hook the writer's output is compared against: a
    Fraction as its "p/q" string, weights as a list."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, Weights):
        return list(v)
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


# every exact type the writer prints, at the top and as a container's child
EMIT_PAYLOADS = [
    {},
    [],
    "top-level string",
    {"nested": {"empty_dict": {}, "empty_list": [], "lists": [[], [{}], [1, [2, []]]]}},
    [True, False, None, 0, -1, -(10**99), 10**99],
    {"fraction": Fraction(-7, 3), "whole": Fraction(4), "weights": Weights((3, 1, 3, 1)),
     "pair": ("r", Fraction(1, 2)), "pairs": [("", Fraction(0))], "tuple": (1, "a")},
    {'quote"': "back\\slash", "control": "\x00\x1f\t\n\r\b\f\x7f", "text": "é ∑ 😀 \u2028"},
    (),
    Fraction(-7, 3),
    Fraction(-4),
    True,
    None,
    3,
    "n",
    {"bools": [True, False, (True,)], "flags": {"t": True, "f": False, "none": None},
     "scalars": [-5, 'a"b', {"key": 0}],
     "fractions": [Fraction(-1, 2), Fraction(-3), Fraction(0), Fraction(10**30, 7), Fraction(6, 4)],
     "weights": [Weights((5, 1, 2, 3)), {"w": Weights((1, 1, 1, 1))}],
     "nested": ((), [()], {"e": {}}, [[Fraction(1, 3), [None, ("t", 0)]]], (1, (2, (3,))))},
    [{"index": 0, "x": Fraction(2), "y": Fraction(1, 2), "sci": Fraction(-1, 2)}],
]


@pytest.mark.parametrize("payload", EMIT_PAYLOADS)
def test_emit_prints_what_json_dumps_prints(capsys, payload):
    _emit(payload)
    assert capsys.readouterr().out == json.dumps(payload, indent=2, default=_json_hook) + "\n"


@pytest.mark.parametrize("payload", [{(1, 2): 0}, {"x": [object()]}])
def test_emit_rejects_what_json_dumps_rejects(capsys, payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2, default=_json_hook)
    with pytest.raises(TypeError):
        _emit(payload)
    assert capsys.readouterr().out == ""


# json.dumps writes these, but no command builds them: an inexact number or
# a key that is not a str fails at the output boundary instead
@pytest.mark.parametrize("payload", [2.5, float("inf"), {1: 0}, {None: 0}, [Fraction(1), 2.5],
                                     {"x": Fraction(1), "y": 0.5}, {1: Fraction(1, 2)}])
def test_emit_rejects_floats_and_keys_not_str(capsys, payload):
    with pytest.raises(TypeError):
        _emit(payload)
    assert capsys.readouterr().out == ""


# json.dumps writes subclasses of int, str and tuple by their base type, but
# no command builds them: each is refused at the top and as a child
@pytest.mark.parametrize("value", [Count(3), Name("n"), Record("r", Fraction(1, 2)), object()])
def test_emit_refuses_subclasses_records_and_objects(capsys, value):
    for payload in (value, {"x": [value]}, [Fraction(1), (value,)]):
        with pytest.raises(TypeError, match=f"^{type(value).__name__} is not JSON serializable$"):
            _emit(payload)
    assert capsys.readouterr().out == ""


def test_emit_refuses_a_str_subclass_key(capsys):
    # json.dumps writes a str subclass key as its text; the writer refuses it
    # like any key whose type is not exactly str, at the top and nested
    assert json.dumps({Name("k"): 1}) == '{"k": 1}'
    for payload in ({Name("k"): 1}, [{"x": {"y": 0, Name("k"): 1}}]):
        with pytest.raises(TypeError, match="^keys must be str, not Name$"):
            _emit(payload)
    assert capsys.readouterr().out == ""


def test_main_builds_one_parser_per_command_and_process(capsys, monkeypatch, cover_file):
    path = cover_file(FROZEN_COVERS["valid"])
    argvs = [("cover", "check", path), ("cover", "invariants", path), ("deform", "check", path),
             ("geography", "extremes", "--s", "2"), ("classify", "--s", "1", "--m", "1"),
             ("examples", "new-component", "--M", "4")]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    for argv in argvs:
        assert run_cli(capsys, *argv)[0] == EXIT_OK
    # one root per command run, the two cover actions sharing one; each root
    # names all five commands and builds the actions of its own
    assert built.count("z2cover") == 5
    assert [prog for prog in built if prog.count(" ") == 2] == [
        "z2cover cover check", "z2cover cover invariants", "z2cover deform check",
        "z2cover geography sample", "z2cover geography extremes", "z2cover geography hunt",
        "z2cover examples new-component", "z2cover examples unbounded"]
    built.clear()
    for argv in argvs:
        assert run_cli(capsys, *argv)[0] == EXIT_OK
    assert built == []


def test_shared_parser_keeps_no_state(capsys, cover_file):
    frozen = {argv: (code, digest) for argv, code, digest in FROZEN_STDOUT}
    hunt = "geography hunt --s 4 --t 3/5 --t 1"  # appends to the --t list
    assert frozen_run(capsys, cover_file, hunt) == frozen[hunt]
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--s", "x"])
    assert exc.value.code == 2
    code, out, _ = run_cli(capsys, "cover", "check", cover_file("{not json"))
    assert (code, out) == (EXIT_MALFORMED, "")
    # the bare hunt scans the default masses, not the --t list built above
    for argv in ("geography hunt", "classify --s 2 --m 1 --format json", "cover check {valid}"):
        assert frozen_run(capsys, cover_file, argv) == frozen[argv]


class TestLargeCovers:
    """Every accepted cover finishes: budgets are generous, the work is not."""

    def test_rank12_invariants_closed_form(self, capsys, cover_file):
        d = seeded_p3_degrees(12, 12)
        path = cover_file(p3_cover_text(12, d))
        code, out, _, elapsed = timed_cli(capsys, "cover", "invariants", path)
        assert code == EXIT_OK
        assert elapsed < 1.0
        # chi(O(-l)) on P^3 is -C(l - 1, 3) for l >= 1, and every l is positive here
        l = eigensheaf_degrees(BranchData(12, tuple(d)))[1:]
        assert min(l) >= 1
        assert json.loads(out)["chi"] == 1 - sum(comb(v - 1, 3) for v in l)

    @pytest.mark.parametrize("argv", [("cover", "check"), ("cover", "invariants"),
                                      ("deform", "check")])
    def test_rank16_subcommands_finish(self, capsys, cover_file, argv):
        path = cover_file(p3_cover_text(16, seeded_p3_degrees(16, 16)))
        code, out, _, elapsed = timed_cli(capsys, *argv, path)
        assert code == EXIT_OK  # cover check and deform check exit 1 when not ok
        assert isinstance(json.loads(out), dict)
        assert elapsed < 10.0

    def test_rank12_disconnected_deform_check(self, capsys, cover_file):
        # the support spans a rank-2 subgroup: the 1023 characters vanishing
        # on it (l = 0) fail on all three components, each of the other
        # 3 * 1024 (l = 2) on the one component in its kernel; the 4093
        # elements of degree 0 carry no divisor and fail nowhere
        text = json.dumps({"weights": [1, 1, 1, 1], "s": 12,
                           "d": {"100000000000": 2, "010000000000": 2, "110000000000": 2}})
        code, out, _, elapsed = timed_cli(capsys, "deform", "check", cover_file(text))
        assert code == EXIT_INVALID
        pairs = json.loads(out)["failing_pairs"]
        assert len(pairs) == 6141 and {g for g, _ in pairs} == {1, 2, 3}
        assert elapsed < 1.0

    def test_rank1_huge_degree(self, capsys, cover_file):
        path = cover_file(p3_cover_text(1, (0, 2 * 10**6)))
        code, out, _, elapsed = timed_cli(capsys, "cover", "invariants", path)
        assert code == EXIT_OK
        assert json.loads(out)["chi"] == 1 - comb(10**6 - 1, 3)
        for argv in (("cover", "check"), ("deform", "check")):
            code, out, _, more = timed_cli(capsys, *argv, path)
            assert code == EXIT_OK and json.loads(out)["ok"]
            elapsed += more
        assert elapsed < 1.0


SRC = str(Path(z2cover.__file__).resolve().parent.parent)

# one command line per handler, with its exit code; each runs in a fresh
# interpreter, where a module is imported only when its handler runs
HANDLER_RUNS = [
    ("cover check {valid}", EXIT_OK),
    ("cover check {odd}", EXIT_INVALID),
    ("cover invariants {valid}", EXIT_OK),
    ("deform check {valid}", EXIT_OK),
    ("geography sample --s 3 --count 4 --seed 7", EXIT_OK),
    ("geography sample --s 2 --count 3 --format csv", EXIT_OK),
    ("geography extremes --s 3", EXIT_OK),
    ("geography hunt --s 3", EXIT_OK),
    ("classify --s 2 --m 1", EXIT_OK),
    ("classify --s 2 --m 3 --format md", EXIT_OK),
    ("classify --s 2 --m 1 --format csv", EXIT_OK),
    ("classify --s 1 --m 1 --format csv", EXIT_OK),
    ("examples new-component --M 4", EXIT_OK),
    ("examples new-component --M 5", EXIT_MALFORMED),
    ("examples unbounded --kind canonical --s 4", EXIT_OK),
    ("--help", EXIT_OK),
]


def test_python_dash_m_runs_the_cli(capsys, cover_file, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # one help width in and out of process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    for line, expected_code in HANDLER_RUNS:
        argv = expand(cover_file, line)
        proc = subprocess.run([sys.executable, "-m", "z2cover", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        captured = capsys.readouterr()
        assert code == expected_code, line
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err), line


SHA256_EMPTY = hashlib.sha256(b"").hexdigest()

# (command line, exit code, sha256 of stdout, sha256 of stderr) of every help
# text and of argparse's usage errors, at COLUMNS=80; argparse words both
# differently from one Python version to the next, so they are pinned for one
PARSER_TEXT_PYTHON = (3, 11)
PARSER_TEXT = [
    ("--help", 0,
     "f1898869a20ce84877a769d1b4669cda5070e1547ae08ea18e7b0c8a24fadedf",
     SHA256_EMPTY),
    ("cover --help", 0,
     "6972338f21780a8733b48ca38abb492273021bfe9ea032c0c25cb73878f41610",
     SHA256_EMPTY),
    ("cover check --help", 0,
     "4123b8ae62515b92a52feb9d6097c10803ccc4e82a2db77295094456491c14c1",
     SHA256_EMPTY),
    ("cover invariants --help", 0,
     "4977f23f094fb2979981f1ab968783ca15fc859f6b5c596a8e58e7b216a8daea",
     SHA256_EMPTY),
    ("geography --help", 0,
     "9a45db8f94c29799cc3dfbe21a45e52552053184123f879ff5edb5237b69f677",
     SHA256_EMPTY),
    ("geography sample --help", 0,
     "168edd7c9157d1f861a297caa891bd694c07a299c0443b0fc6cc27d77223a1aa",
     SHA256_EMPTY),
    ("geography extremes --help", 0,
     "7b91cf6609c8dac82deb9ab2e82d55a4c53f994b02c67e122e7d2da0a69ec892",
     SHA256_EMPTY),
    ("geography hunt --help", 0,
     "6df408d263faf44f3ae0af9f20302885f6b4231ec1adde07fbcd5cad0acc8d80",
     SHA256_EMPTY),
    ("classify --help", 0,
     "86e87e5faeac8cd5df759aff6ee100d99468a9176e0a813e0ce6b7bb7ff65e21",
     SHA256_EMPTY),
    ("deform --help", 0,
     "7678c2b5bb67b0d3d10bcbc9eb0884c02d5683fd04f5b600be0c11649dc49ddb",
     SHA256_EMPTY),
    ("deform check --help", 0,
     "7bdccca9a71e8971f919f6d2e9b0bec168bed8c742e6f335f6d523a7fded1d71",
     SHA256_EMPTY),
    ("examples --help", 0,
     "b6b8c38ccee70c20acda0e394fd283ac7a6f7e860aa8632e3c9d0d432c3fb492",
     SHA256_EMPTY),
    ("examples new-component --help", 0,
     "2e4a8821e7a1d377752601971441b6b9827b51717af0aff536148001d34b7680",
     SHA256_EMPTY),
    ("examples unbounded --help", 0,
     "f2e72a7efc85cc54a7771f13b7defb86a9c43d8a1250d29c4f6a6d521e4c4b14",
     SHA256_EMPTY),
    ("", 2,
     SHA256_EMPTY,
     "d9fcaf851ca6f9b199d59c26834ae78d85e9a8b92b12f0959c77d36a928b9d99"),
    ("frobnicate", 2,
     SHA256_EMPTY,
     "326d52885d1f3c03b87db1cf684b57a50d92c59e476b1a7757c36b1439b14609"),
    ("--frobnicate", 2,
     SHA256_EMPTY,
     "d9fcaf851ca6f9b199d59c26834ae78d85e9a8b92b12f0959c77d36a928b9d99"),
    ("cover", 2,
     SHA256_EMPTY,
     "7ed5b46f0dbe6c0e0ef8110d2596642982e2c510f818be5750bf1a9b81f20af2"),
    ("cover frobnicate", 2,
     SHA256_EMPTY,
     "2fceffd9e5e54d38ae816d18aa05e7e80db108e85d5cc8db80f8458ac893442d"),
    ("classify --s x", 2,
     SHA256_EMPTY,
     "545ffef08cf07a4291b3a5b464c7329d1fbb58e8540e23b18e2930003230e596"),
    ("classify --s 2 --m 1 --frobnicate", 2,
     SHA256_EMPTY,
     "c73da6d9ed972fba854fc933324f3c770018b5a1ffa874efd0931fbf27d9f7c9"),
    ("deform check", 2,
     SHA256_EMPTY,
     "56da3bec98456042c1de7aa5f04c8a8c5f4b5abcbb2292565dcbc1693c0e1c22"),
    ("examples unbounded --kind x --s 3", 2,
     SHA256_EMPTY,
     "65f8bb428da59936c6a25bb962c62af34e5b6d2cf88cf8856bdbf7236766b48d"),
]


@pytest.mark.skipif(sys.version_info[:2] != PARSER_TEXT_PYTHON,
                    reason="parser text recorded with Python 3.11's argparse")
@pytest.mark.parametrize("line, code, out_digest, err_digest", PARSER_TEXT,
                         ids=[line or "<no arguments>" for line, *_ in PARSER_TEXT])
def test_parser_text_frozen(capsys, monkeypatch, line, code, out_digest, err_digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(line.split())
    out, err = capsys.readouterr()
    assert (exc.value.code, hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest()) == (code, out_digest, err_digest)


# modules each command must leave unloaded; none imports dataclasses or typing
COMMAND_SKIPS = [
    ("classify --s 2 --m 1", ("z2cover.invariants", "z2cover.moduli", "csv", "json",
                              "z2cover.cover", "z2cover.handlers")),
    ("cover check {valid}", ("z2cover.gf2", "z2cover.classify", "z2cover.moduli")),
    ("cover invariants {valid}", ("z2cover.gf2", "z2cover.classify", "z2cover.moduli")),
    ("geography extremes --s 3", ("z2cover.gf2", "z2cover.classify", "z2cover.moduli")),
    ("deform check {valid}", ("z2cover.classify",)),
]


@pytest.mark.parametrize("line, skipped", COMMAND_SKIPS, ids=[line for line, _ in COMMAND_SKIPS])
def test_command_loads_only_its_modules(cover_file, line, skipped):
    skipped += ("dataclasses", "inspect", "ast", "dis", "typing")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from z2cover import cli; "
        "rc = cli.main(sys.argv[3:]); "
        "print(rc, sorted(m for m in sys.argv[2].split(',') if m in sys.modules), file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code, SRC, ",".join(skipped),
                           *expand(cover_file, line)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "0 []\n")


# the z2cover modules that one line per handler imports when run as
# ``python -m z2cover.cli``; z2cover.cli is never among them, since the
# entry module runs as __main__ and an import would compile it again
COMMAND_MODULES = [
    ("classify --s 2 --m 1", "branch classify gf2 output walsh wps"),
    ("cover check {valid}", "branch cover handlers output walsh wps"),
    ("cover invariants {valid}", "branch cover handlers invariants output walsh wps"),
    ("geography sample --s 3 --count 2", "branch cover handlers invariants output walsh wps"),
    ("geography extremes --s 3", "branch cover handlers invariants output walsh wps"),
    ("geography hunt --s 3", "branch cover handlers invariants output walsh wps"),
    ("deform check {valid}", "branch cover gf2 handlers moduli output walsh wps"),
    ("examples new-component --M 4", "branch cover gf2 handlers moduli output walsh wps"),
    ("examples unbounded --kind canonical --s 4", "branch cover gf2 handlers moduli output walsh wps"),
]


@pytest.mark.parametrize("line, modules", COMMAND_MODULES, ids=[line for line, _ in COMMAND_MODULES])
def test_python_dash_m_imports_only_its_modules(cover_file, line, modules):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "z2cover.cli",
                           *expand(cover_file, line)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = [row.rsplit("|", 1)[1].strip() for row in proc.stderr.splitlines()
                if row.startswith("import time:")]
    assert sorted(m for m in imported if m.startswith("z2cover")) == [
        "z2cover", *(f"z2cover.{m}" for m in modules.split())]


def test_cli_import_skips_dataclasses_and_inspect():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import z2cover.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code, SRC],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# library functions that no command line below runs, each with the reason
# it stays; every other function in src/z2cover must be reached
UNREACHED = {
    "z2cover.__dir__": "module protocol: dir(z2cover) lists the lazy exports",
    "z2cover.wps.Frozen._astuple": "value protocol: the field tuple of equality, hash, pickling",
    "z2cover.wps.Frozen.__setattr__": "value protocol: immutability",
    "z2cover.wps.Frozen.__delattr__": "value protocol: immutability",
    "z2cover.wps.Frozen.__eq__": "value protocol: equality",
    "z2cover.wps.Frozen.__hash__": "value protocol: hash",
    "z2cover.wps.Frozen.__repr__": "value protocol: repr",
    "z2cover.wps.Frozen.__reduce__": "value protocol: pickling",
    "z2cover.moduli.UnboundedFamily.cover_spec":
        "ROADMAP item 9: examples --verify materializes a family",
}

# Collects the code object of every function and method in the package
# (CO_NEWLOCALS, so no module or class body; lambdas and comprehensions are
# skipped), runs each argv through cli.main under sys.setprofile and prints
# the exit codes and the qualified names of the functions never entered.
REACHABILITY_PROBE = """
import contextlib, io, json, os, sys, types

src, argvs = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
defined = {}


def walk(code, prefix):
    for const in code.co_consts:
        if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
            continue
        if const.co_flags & 0x2:  # CO_NEWLOCALS
            defined[const.co_filename, const.co_firstlineno] = prefix + const.co_name
            walk(const, prefix + const.co_name + ".<locals>.")
        else:
            walk(const, prefix + const.co_name + ".")


for name in sorted(os.listdir(os.path.join(src, "z2cover"))):
    if name.endswith(".py"):
        path = os.path.join(src, "z2cover", name)
        with open(path, encoding="utf-8") as fh:
            module = "z2cover." if name == "__init__.py" else f"z2cover.{name[:-3]}."
            walk(compile(fh.read(), path, "exec"), module)
entered = {}


def profile(frame, event, arg):
    if event == "call":
        entered[id(frame.f_code)] = frame.f_code


sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    from z2cover import cli

    codes = [cli.main(argv) for argv in argvs]
sys.setprofile(None)
reached = {(code.co_filename, code.co_firstlineno) for code in entered.values()}
unreached = sorted(name for key, name in defined.items() if key not in reached)
print(json.dumps({"codes": codes, "unreached": unreached}))
"""


def test_every_library_function_is_reached(cover_file):
    # a fresh interpreter, because the _cell_reps, _parser and wps._newton
    # caches would answer for calls that earlier tests made
    lines = [line for line, _, _ in FROZEN_STDOUT] + ["classify --s 3 --m 1 --bounds-report"]
    argvs = [expand(cover_file, line) for line in lines]
    proc = subprocess.run([sys.executable, "-S", "-c", REACHABILITY_PROBE, SRC, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    got = json.loads(proc.stdout)
    assert got["codes"] == [code for _, code, _ in FROZEN_STDOUT] + [EXIT_OK]
    unreached = set(got["unreached"])
    assert sorted(unreached - UNREACHED.keys()) == []  # no command runs these
    assert sorted(UNREACHED.keys() - unreached) == []  # a command runs these now


class TestGeography:
    def test_extremes(self, capsys):
        code, out, _ = run_cli(capsys, "geography", "extremes", "--s", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["vertex"] == {"x": "2", "y": "1/2", "sci": "-1/2"}
        assert payload["barycenter"]["y"] == "49/32"
        assert payload["sci_min"] == "-1/2" and payload["sci_max"] == "8/3"
        assert payload["y_max"] == "49/32"

    def test_sample_deterministic(self, capsys):
        args = ("geography", "sample", "--s", "2", "--count", "12", "--seed", "9")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        payload = json.loads(first)
        assert payload["count"] == 12 and len(payload["points"]) == 12
        _, other, _ = run_cli(capsys, "geography", "sample", "--s", "2",
                              "--count", "12", "--seed", "10")
        assert other != first

    def test_sample_csv(self, capsys):
        code, out, _ = run_cli(capsys, "geography", "sample", "--s", "2",
                               "--count", "3", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "index,x,y,sci"
        assert len(lines) == 4
        assert lines[1].startswith("0,")

    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--s", "0", "--count", "2"),
            ("sample", "--s", "17", "--count", "1"),
            ("sample", "--s", "2", "--count", "-5"),
            ("sample", "--s", "2", "--count", "0"),
            ("extremes", "--s", "30"),
            ("hunt", "--s", "40"),
            ("hunt", "--t", "1/0"),
        ],
        ids=["rank-0", "rank-17", "count-negative", "count-zero", "extremes-30", "hunt-40",
             "hunt-zero-denominator"],
    )
    def test_out_of_range_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, "geography", *argv)
        assert code == EXIT_MALFORMED
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("mass", ["1e-20000", "1e-10000000", "1e20000", "0e-10000000"])
    def test_hunt_reads_no_exponent_in_full(self, capsys, monkeypatch, mass):
        # Fraction alone takes seconds to expand 10^10000000; a t that cannot
        # print is refused first, and a zero mantissa is 0
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "geography", "hunt", "--t", mass)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_MALFORMED, "")
        assert err == (f"error: mass {mass} is too long: it would print with more than 4300"
                       " digits, the interpreter's limit (sys.set_int_max_str_digits)\n"
                       if mass[0] == "1" else "error: mass 0 outside (0, 1]\n")

    def test_hunt_default_scan(self, capsys):
        code, out, _ = run_cli(capsys, "geography", "hunt")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["s"] == 3
        rows = {row["t"]: row for row in payload["points"]}
        assert rows["3/5"]["F"] == "136/5625"
        assert rows["3/5"]["positive_index"] is True
        assert rows["1/2"]["F"] == "-1/36"
        assert rows["1/2"]["positive_index"] is False

    def test_hunt_explicit_points(self, capsys):
        code, out, _ = run_cli(capsys, "geography", "hunt", "--t", "1", "--t", "13/20")
        payload = json.loads(out)
        assert [r["t"] for r in payload["points"]] == ["1", "13/20"]
        assert payload["points"][0]["F"] == "-2"

    def test_hunt_bad_mass(self, capsys):
        code, _, err = run_cli(capsys, "geography", "hunt", "--t", "7/5")
        assert code == EXIT_MALFORMED

    @pytest.mark.parametrize("mass, field", [("1e-1076", "F"), ("1e-2000", "F"),
                                             ("1e-4300", "F"), ("3e-1075", "sci")])
    def test_hunt_names_the_field_that_cannot_print(self, capsys, monkeypatch, mass, field):
        # t prints (1e-1075 is the least power of ten whose F and SCI print,
        # see FROZEN_STDOUT), but F or SCI has more digits than the limit
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        code, out, err = run_cli(capsys, "geography", "hunt", "--t", mass)
        assert (code, out) == (EXIT_MALFORMED, "")
        assert err == (f"error: mass {mass} is too long: its {field} would print with more than"
                       " 4300 digits, the interpreter's limit (sys.set_int_max_str_digits)\n")

    @pytest.mark.parametrize("s", range(1, 9))
    def test_sample_draws_as_a_new_generator_per_point(self, capsys, s):
        # the one generator of an op, reseeded per point, draws what a new
        # random.Random(f"{seed}:{index}") draws; the coordinates are the oracle's
        code, out, _ = run_cli(capsys, "geography", "sample", "--s", str(s),
                               "--count", "6", "--seed", "11")
        assert code == EXIT_OK
        want = []
        for index in range(6):
            w = oracles.random_ratio_weights(s, random.Random(f"11:{index}"))
            _, _, _, _, _, x, y, sci = oracles.geography_point([Fraction(v, sum(w)) for v in w])
            want.append({"index": index, "x": str(x), "y": str(y), "sci": str(sci)})
        assert json.loads(out)["points"] == want


class TestClassify:
    def test_md_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--s", "2", "--m", "3",
                               "--format", "md")
        assert code == EXIT_OK
        rows = [l for l in out.splitlines() if l.startswith("|") and "(" in l]
        assert rows == ["| 3 | (1,1,3,3) | (6,6,6) | 1 | 6 |"]

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--s", "2", "--m", "4")
        payload = json.loads(out)
        assert payload["s"] == 2 and payload["m"] == 4
        [sol] = payload["solutions"]
        assert sol["d"] == [0, 3, 3, 3]
        assert sol["k"] == 2 and sol["p"] == 10
        assert sol["flat"] is True and sol["status"] == "main"

    def test_base_filter(self, capsys):
        _, flat_out, _ = run_cli(capsys, "classify", "--s", "2", "--m", "2",
                                 "--base", "flat")
        _, proj_out, _ = run_cli(capsys, "classify", "--s", "2", "--m", "2",
                                 "--base", "projective")
        flat_rows = json.loads(flat_out)["solutions"]
        proj_rows = json.loads(proj_out)["solutions"]
        assert len(flat_rows) == 3 and len(proj_rows) == 3
        assert all(r["weights"] == [1, 1, 1, 1] for r in proj_rows)
        assert all(r["weights"] != [1, 1, 1, 1] for r in flat_rows)

    def test_rank_one_families_md(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--s", "1", "--m", "1",
                               "--format", "md")
        assert code == EXIT_OK
        assert "| 1 | (1,1,4,6) | 24t | t - 1 | t >= 2 | main |" in out
        assert "| 1 | (2,3,3,4) | 24t | t - 1 | t >= 2 | supplementary |" in out

    def test_rank_one_families_json_with_window(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--s", "1", "--m", "2",
                               "--t-max", "6")
        payload = json.loads(out)
        fams = payload["families"]
        assert len(fams) == 14
        head = fams[0]
        assert head["weights"] == [1, 1, 1, 1]
        # finite window (5, 8) survives untouched except for the t_max clamp
        assert head["t_min"] == 5 and head["t_sup"] == 7
        assert all(f["t_sup"] <= 7 for f in fams)

    def test_bounds_report_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--s", "2", "--m", "3",
                                 "--bounds-report")
        assert code == EXIT_OK
        assert "cell k=1 L=3 W=8" in err and err.endswith("\nflat rows: 1\n")
        assert "cell" not in out and len(json.loads(out)["solutions"]) == 1
        code, out, err = run_cli(capsys, "classify", "--s", "1", "--m", "1", "--bounds-report")
        assert code == EXIT_OK
        towers = len(json.loads(out)["families"])
        assert towers == 14 and err.endswith(f"\n  target W/L=4: t >= 5\ntowers: {towers}\n")
        assert "cell" not in err

    def test_nonpositive_multiple_same_error_with_bounds_report(self, capsys):
        # the command refuses the flag before the bounds report or any
        # enumeration runs, with one message for every rank
        for s in ("1", "2", "5"):
            for m in ("0", "-1"):
                plain = run_cli(capsys, "classify", "--s", s, "--m", m)
                report = run_cli(capsys, "classify", "--s", s, "--m", m, "--bounds-report")
                expected = (EXIT_MALFORMED, "", f"error: --m must be positive, got {m}\n")
                assert plain == report == expected

    def test_out_of_range_rank(self, capsys):
        for s in ("17", "0"):
            code, _, err = run_cli(capsys, "classify", "--s", s, "--m", "1")
            assert code == EXIT_MALFORMED
            assert "error:" in err
        # every accepted rank is classified, flat bases included
        code, out, _ = run_cli(capsys, "classify", "--s", "9", "--m", "1")
        assert code == EXIT_OK
        assert json.loads(out)["solutions"] == []

    def test_nonpositive_rank(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--s", "0", "--m", "1")
        assert code == EXIT_MALFORMED
        assert out == "" and err == "error: rank must be an integer in 1..16, got 0\n"

    @pytest.mark.parametrize("base", ["flat", "projective"])
    def test_rank_one_refuses_a_base(self, capsys, base):
        # rank 1 lists the towers of every base, so a base filter would be ignored
        code, out, err = run_cli(capsys, "classify", "--s", "1", "--m", "1", "--base", base)
        assert (code, out) == (EXIT_MALFORMED, "")
        assert err == (f"error: --base {base} needs --s >= 2:"
                       " rank 1 lists the towers of every base\n")

    @pytest.mark.parametrize("s", ["2", "3"])
    def test_t_max_refused_above_rank_one(self, capsys, s):
        # only the rank-1 towers have a degree t to bound
        code, out, err = run_cli(capsys, "classify", "--s", s, "--m", "1", "--t-max", "2")
        assert (code, out) == (EXIT_MALFORMED, "")
        assert err == "error: --t-max needs --s 1: it bounds the degree t of the rank-1 towers\n"

    @pytest.mark.parametrize("t_max", ["0", "-5"])
    def test_nonpositive_t_max_refused(self, capsys, t_max):
        # a bound below the least degree would leave only the header
        code, out, err = run_cli(capsys, "classify", "--s", "1", "--m", "1", "--t-max", t_max)
        assert (code, out) == (EXIT_MALFORMED, "")
        assert err == f"error: --t-max must be positive, got {t_max}\n"

    @pytest.mark.parametrize("s", ["17", "2000"])
    def test_rank_above_cap(self, capsys, s):
        # rejected before enumerating: the projective lifting would run
        # (and at rank 2000 overflow the stack) rather than fail on its own
        code, out, err = run_cli(capsys, "classify", "--s", s, "--m", "1",
                                 "--base", "projective")
        assert code == EXIT_MALFORMED
        assert out == "" and err == f"error: rank must be an integer in 1..16, got {s}\n"


class TestMarkdownRoundTrip:
    def test_family_table_shape(self):
        text = families_to_md(classify.enumerate_s1(2))
        lines = text.splitlines()
        assert lines[0] == "| m | weights | degree | k | window | status |"
        assert "| 2 | (1,1,1,1) | 2t | 2t - 8 | 5 <= t < 8 | main |" in lines


class TestExamples:
    def test_new_component(self, capsys):
        code, out, _ = run_cli(capsys, "examples", "new-component", "--M", "4")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["weights"] == [1, 1, 1, 4]
        assert payload["l_values"] == [15, 16]
        assert payload["flat"] is False
        assert payload["deformation_ok"] is True
        assert payload["cover"]["d"]["1000"] == 2

    def test_new_component_odd_degree(self, capsys):
        code, _, err = run_cli(capsys, "examples", "new-component", "--M", "5")
        assert code == EXIT_MALFORMED

    def test_unbounded(self, capsys):
        code, out, _ = run_cli(capsys, "examples", "unbounded", "--kind",
                               "canonical", "--s", "10")
        payload = json.loads(out)
        assert payload["L"] == 170
        assert payload["weights"] == [1, 1, 170, 170]
        assert payload["l_on"] == 512 and payload["l_off"] == 256
        assert payload["k"] == 1 and payload["flat"] is False
        assert payload["p_m"] == 173

    # the last rank whose total degree prints within the interpreter's
    # default limit of 4300 digits, for each family
    @pytest.mark.parametrize("kind, last", [("canonical", 14285), ("bicanonical", 14283)])
    def test_unbounded_digit_limit(self, capsys, monkeypatch, kind, last):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        code, out, _ = run_cli(capsys, "examples", "unbounded", "--kind", kind, "--s", str(last))
        assert code == EXIT_OK and len(str(json.loads(out)["total_degree"])) == 4300
        code, out, err = run_cli(capsys, "examples", "unbounded", "--kind", kind,
                                 "--s", str(last + 1))
        assert (code, out) == (EXIT_MALFORMED, "")
        assert err == (f"error: --s {last + 1} is too large: the total degree would print with"
                       " more than 4300 digits, the interpreter's limit"
                       " (sys.set_int_max_str_digits)\n")

    @pytest.mark.parametrize("kind", ["canonical", "bicanonical"])
    def test_unbounded_refuses_a_huge_rank_before_building(self, capsys, monkeypatch, kind):
        # the total is at least 2^(s-1), so this rank is refused before the
        # family's integers, 12 MB each, are built
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "examples", "unbounded", "--kind", kind,
                                     "--s", str(10**8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (EXIT_MALFORMED, "")
        assert err.startswith(f"error: --s {10**8} is too large: the total degree")
        assert peak < 1 << 20

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this interpreter has no digit limit to lift")
    def test_unbounded_without_digit_limit(self, capsys):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out, _ = run_cli(capsys, "examples", "unbounded", "--kind", "canonical",
                                   "--s", "14286")
            assert code == EXIT_OK and json.loads(out)["total_degree"] == 1 << 14286
        finally:
            sys.set_int_max_str_digits(before)

    def test_unbounded_boundary_rank(self, capsys):
        code, _, err = run_cli(capsys, "examples", "unbounded", "--kind",
                               "bicanonical", "--s", "2")
        assert code == EXIT_MALFORMED
