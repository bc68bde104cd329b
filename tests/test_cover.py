"""Cover descriptions: eigensheaf degrees, flatness, validation, JSON I/O."""

import json
import pickle
import random
from fractions import Fraction

import pytest

from z2cover import walsh
from z2cover.cover import (
    BranchData,
    CoverSpec,
    CoverSpecError,
    eigensheaf_degrees,
    from_json,
    from_path,
    half_point_count,
    hurwitz_degree,
    is_flat,
    to_json,
    validate,
    zero_sum_triple_mass,
)
from z2cover.invariants import invariant_report
from z2cover.walsh import NonIntegralError
from z2cover.wps import Weights

import oracles
from oracles import canonical_form, parity_vector


def cover(weights, d):
    s = (len(d)).bit_length() - 1
    return CoverSpec(Weights(weights), BranchData(s, tuple(d)))


TRIPLE_333 = cover((1, 1, 1, 1), (0, 3, 3, 3))
QUADRIC_PAIR = cover((1, 1, 3, 3), (0, 6, 6, 6))


class TestBranchData:
    def test_accepts_minimal(self):
        b = BranchData(1, (0, 2))
        assert b.total == 2

    def test_keeps_a_tuple_of_a_list(self):
        d = [0, 6, 2, 6]
        b = BranchData(2, d)
        assert b == BranchData(2, (0, 6, 2, 6)) and b.d == (0, 6, 2, 6)
        hash(b)
        d[1] = 2  # the caller's list is not the cover's
        assert eigensheaf_degrees(b) == (0, 6, 4, 4)

    @pytest.mark.parametrize(
        "s,d",
        [
            (0, (0,)),
            (2, (0, 1, 2)),          # wrong length
            (2, (1, 1, 1, 1)),       # identity branched
            (2, (0, -1, 2, 1)),      # negative degree
            (2, (0, 0, 0, 0)),       # empty branch divisor
            (2, (0, 2, True, True)),  # bool degree: to_json would write true
            (True, (0, 2)),          # bool rank
            (2, (0, 2.0, 1, 1)),     # float degree
            (17, (0, 2)),            # rank above MAX_RANK
            (2, (0, 1, Fraction(1, 2), 1)),  # Fraction degree
        ],
    )
    def test_rejects(self, s, d):
        with pytest.raises(CoverSpecError):
            BranchData(s, d)


# (build, a different value, field tuple, dataclass-style repr)
RECORDS = [
    (lambda: Weights((2, 1, 1, 1)), Weights((1, 1, 1, 3)), ((1, 1, 1, 2),),
     "Weights(a=(1, 1, 1, 2))"),
    (lambda: BranchData(2, (0, 6, 2, 6)), BranchData(2, (0, 6, 6, 2)), (2, (0, 6, 2, 6)),
     "BranchData(s=2, d=(0, 6, 2, 6))"),
]


@pytest.mark.parametrize("build,other,fields,text", RECORDS, ids=["Weights", "BranchData"])
def test_value_record_contract(build, other, fields, text):
    x, y = build(), build()
    assert x is not y and x == y and hash(x) == hash(y)
    assert hash(x) == hash(fields)  # the hash a frozen dataclass gave
    assert x != other
    assert x != fields and fields != x
    assert repr(x) == text
    assert pickle.loads(pickle.dumps(x)) == x
    first = type(x).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(x, first, fields[0])
    with pytest.raises(AttributeError):
        delattr(x, first)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == y


def test_eigensheaf_degrees_known():
    assert eigensheaf_degrees(BranchData(2, (0, 6, 2, 6))) == (0, 6, 4, 4)
    assert eigensheaf_degrees(TRIPLE_333.branch) == (0, 3, 3, 3)


def test_eigensheaf_degrees_parity_failure():
    # d = (0,1,2,2): chi = 1 sums d over {1, 3}, giving the odd value 3
    with pytest.raises(NonIntegralError) as info:
        eigensheaf_degrees(BranchData(2, (0, 1, 2, 2)))
    assert info.value.element == 1
    assert "3/2" in str(info.value)


@pytest.mark.parametrize("s", range(1, 9))
def test_eigensheaf_degrees_match_character_loop(s):
    rng = random.Random(900 + s)
    n = 1 << s
    odd = 0
    for i in range(30):
        d = [0] + [rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(n - 1)]
        d[rng.randrange(1, n)] += 1
        if i % 2 and parity_vector(d):  # every other cover made integral
            d[parity_vector(d)] += 1
        expected = oracles.eigensheaf_degrees(d)
        fractional = [chi for chi, v in enumerate(expected) if v.denominator != 1]
        if fractional:
            odd += 1
            chi = fractional[0]
            with pytest.raises(NonIntegralError) as info:
                eigensheaf_degrees(BranchData(s, d))
            assert str(info.value) == (
                f"degree {expected[chi]} at character {chi:0{s}b} is not integral")
            assert info.value.element == chi
        else:
            assert eigensheaf_degrees(BranchData(s, d)) == expected
    assert 0 < odd < 30


@pytest.mark.parametrize("s", [2, 3, 4])
def test_eigensheaf_degrees_match_direct_half_sums(s):
    n = 1 << s
    rng = random.Random(20 + s)
    produced = 0
    while produced < 25:
        d = [0] + [2 * rng.randrange(4) for _ in range(n - 1)]
        if not any(d):
            continue
        produced += 1
        degs = eigensheaf_degrees(BranchData(s, tuple(d)))
        assert degs == oracles.eigensheaf_degrees(d)
        # the degrees sum to 2^(s-2) times the total branch degree
        assert sum(degs) == (1 << (s - 2)) * sum(d) if s >= 2 else True


def test_flatness():
    assert is_flat(TRIPLE_333)            # L = 1: every cover of P^3 is flat
    assert is_flat(QUADRIC_PAIR)          # l = (6,6,6), L = 3 divides each
    assert is_flat(cover((1, 1, 2, 2), (0, 4, 4, 8)))
    assert not is_flat(cover((1, 1, 2, 2), (0, 2, 4, 6)))  # l = (5,4,3), L = 2


def test_hurwitz_values():
    assert hurwitz_degree(TRIPLE_333) == Fraction(1, 2)
    assert hurwitz_degree(QUADRIC_PAIR) == Fraction(1)
    assert hurwitz_degree(cover((1, 1, 1, 1), (0, 2, 2, 2))) == -1


def test_half_point_count_examples():
    # Bezout on the base: d1*d2*d3 / prod(a) for the unique zero-sum triple
    assert half_point_count(TRIPLE_333) == 27
    assert half_point_count(QUADRIC_PAIR) == 24
    seven_twos = cover((1, 1, 2, 2), (0,) + (2,) * 7)
    assert half_point_count(seven_twos) == 14
    # no zero-sum triple in the support
    assert half_point_count(cover((1, 1, 1, 1), (0, 4, 6, 0))) == 0


def test_half_point_count_gl_invariant():
    rng = random.Random(31)
    base = Weights((1, 1, 1, 1))
    for s in (2, 3):
        n = 1 << s
        for _ in range(20):
            d = [0] + [rng.randrange(4) for _ in range(n - 1)]
            if not any(d):
                continue
            c = canonical_form(d)
            if not any(c[1:]):
                continue
            a = half_point_count(CoverSpec(base, BranchData(s, tuple(d))))
            b = half_point_count(CoverSpec(base, BranchData(s, c)))
            assert a == b


def test_half_point_count_fractional():
    spec = cover((1, 1, 2, 3), (0, 1, 1, 2))
    with pytest.raises(NonIntegralError):
        half_point_count(spec)


def test_half_point_count_matches_triple_loop():
    rng = random.Random(4096)
    fractional = 0
    for _ in range(300):
        s = rng.randint(1, 6)
        n = 1 << s
        d = [0] + [rng.choice((0, 0, 1, 2, 3, 4, 5)) for _ in range(n - 1)]
        if not any(d):
            d[rng.randrange(1, n)] = 1
        spec = cover([rng.randint(1, 5) for _ in range(4)], d)
        want = Fraction(oracles.zero_sum_triple_mass(d), spec.weights.A)
        if want.denominator == 1:
            assert half_point_count(spec) == want
        else:
            fractional += 1
            with pytest.raises(NonIntegralError, match=f"half-point count {want} "):
                half_point_count(spec)
    assert 0 < fractional < 300


def test_validate_good_cover():
    report = validate(QUADRIC_PAIR)
    assert report.ok
    assert report.parity_ok and report.integral_degrees and report.flat
    assert report.half_points == 24
    assert report.messages == ()


def test_validate_collects_failures():
    report = validate(cover((1, 1, 2, 2), (0, 1, 2, 2)))
    assert not report.ok
    assert not report.parity_ok
    assert not report.integral_degrees
    assert any("parity" in m for m in report.messages)

    shallow = validate(cover((1, 1, 1, 1), (0, 2, 2, 2)))
    assert not shallow.ok
    assert not shallow.branching_positive
    assert shallow.parity_ok


# each cover below fails one check only, so its message is the report's only one
ILL_FORMED = cover((2, 2, 2, 3), (0, 6, 6, 12))  # gcd(2, 2, 2) = 2
FRACTIONAL_HALF_POINTS = cover((1, 1, 1, 3), (0, 4, 4, 8))  # 4 * 4 * 8 / 3 points


def test_validate_refuses_ill_formed_weights():
    report = validate(ILL_FORMED)
    assert not report.ok and not report.weights_well_formed
    assert report.parity_ok and report.branching_positive and report.connected
    assert (report.half_points, report.half_points_integral) == (18, True)
    assert report.messages == ("weights (2,2,2,3) are not well formed",)


def test_validate_refuses_a_fractional_half_point_count():
    report = validate(FRACTIONAL_HALF_POINTS)
    assert not report.ok and not report.half_points_integral
    assert report.half_points is None
    assert report.parity_ok and report.weights_well_formed and report.connected
    assert report.hurwitz == 2
    assert report.messages == ("half-point count 128/3 is not integral",)


def _dense_cover(s, seed):
    rng = random.Random(seed)
    return cover((1, 1, 1, 1), [0] + [rng.choice((2, 4, 6)) for _ in range(1, 1 << s)])


@pytest.mark.parametrize("run", [validate, invariant_report], ids=["validate", "invariant_report"])
def test_one_walsh_transform_per_cover(monkeypatch, run):
    calls = []
    forward = walsh.forward

    def counted(d):
        calls.append(len(d))
        return forward(d)

    monkeypatch.setattr(walsh, "forward", counted)
    spec = _dense_cover(6, 6)
    run(spec)
    assert calls == [64]
    run(spec)  # the spectrum stays with the branch data
    assert calls == [64]


@pytest.mark.parametrize("run", [validate, invariant_report], ids=["validate", "invariant_report"])
def test_one_degree_table_per_cover(run):
    spec = _dense_cover(6, 6)
    assert spec.branch._degrees is None
    run(spec)
    table = spec.branch._degrees
    assert type(table) is tuple and len(table) == 64
    run(spec)  # the table stays with the branch data
    assert spec.branch._degrees is table
    assert eigensheaf_degrees(spec.branch) is table


def test_one_triple_mass_per_cover():
    spec = _dense_cover(6, 6)
    assert spec.branch._cube_sum is None
    validate(spec)
    cubes = spec.branch._cube_sum
    assert type(cubes) is int
    report = invariant_report(spec)  # half points and e(X) both read the kept cube sum
    assert spec.branch._cube_sum is cubes
    mass = zero_sum_triple_mass(spec.branch)
    assert mass == Fraction(cubes, 6 * 64)
    assert report.half_points == mass / spec.weights.A


@pytest.mark.parametrize("s", [1, 4, 9, 16])
def test_spectrum_survives_pickling(s):
    rng = random.Random(30 + s)
    d = [0] + [rng.randrange(1, 6) for _ in range((1 << s) - 1)]
    branch = BranchData(s, d)
    back = pickle.loads(pickle.dumps(branch))
    assert back == branch
    assert back.spectrum == branch.spectrum == tuple(walsh.forward(d))
    assert back.total == sum(d)


def test_fractional_degrees_raise_every_time():
    branch = BranchData(2, (0, 1, 2, 2))
    for _ in range(2):
        with pytest.raises(NonIntegralError):
            eigensheaf_degrees(branch)


def test_validate_rejects_disconnected_rank3():
    # support {100, 010, 110} lies in the subgroup of the first two coordinates
    report = validate(cover((1, 1, 1, 1), (0, 6, 6, 6, 0, 0, 0, 0)))
    assert not report.connected and not report.ok
    assert report.parity_ok and report.integral_degrees and report.half_points_integral
    assert report.branching_positive and report.weights_well_formed
    assert report.messages == (
        "branch support spans a rank-2 subgroup: h^0(O_X) = 2^1, the cover is not connected",
    )
    # one more point off the subgroup connects it
    assert validate(cover((1, 1, 1, 1), (0, 6, 6, 6, 2, 0, 0, 0))).connected


@pytest.mark.parametrize("r", [2, 11, 12])
def test_validate_rank12_support_in_subgroup(r):
    # dense degrees on the subgroup spanned by the first r coordinates
    s = 12
    rng = random.Random(r)
    d = [rng.choice((2, 4, 6)) if 0 < g < 1 << r else 0 for g in range(1 << s)]
    spec = cover((1, 1, 1, 1), d)
    report = validate(spec)
    assert report.connected == (r == s)
    assert sum(v == 0 for v in eigensheaf_degrees(spec.branch)) == 1 << (s - r)
    if r < s:
        assert not report.ok
        assert report.messages[-1] == (
            f"branch support spans a rank-{r} subgroup: h^0(O_X) = 2^{s - r},"
            " the cover is not connected"
        )
    else:
        assert not any("connected" in m for m in report.messages)


def test_validate_connectedness_with_fractional_degrees():
    # odd degrees leave the eigensheaf degrees fractional; the span is still read
    report = validate(cover((1, 1, 1, 1), (0, 1, 0, 0, 0, 0, 0, 0)))
    assert not report.integral_degrees and not report.connected
    assert any("rank-1 subgroup: h^0(O_X) = 2^2" in m for m in report.messages)


def test_json_roundtrip():
    text = to_json(QUADRIC_PAIR)
    again = from_json(text)
    assert again == QUADRIC_PAIR
    # zero entries are omitted from the serialized map
    assert '"000"' not in text and '"00"' not in text
    # a degree of 1 is written as the number 1, never as true
    unit = CoverSpec(Weights((1, 1, 1, 1)), BranchData(3, (0, 1, 1, 0, 1, 0, 0, 1)))
    assert from_json(to_json(unit)) == unit


def test_json_bitstring_orientation():
    # bit i of the integer encoding is character position i in the string
    spec = from_json('{"weights": [1, 1, 1, 1], "s": 2, "d": {"10": 4, "01": 2, "11": 4}}')
    assert spec.branch.d == (0, 4, 2, 4)


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"weights": [1, 1, 1], "s": 2, "d": {}}',
        '{"weights": [1, 1, 1, 1], "s": 0, "d": {}}',
        '{"weights": [1, 1, 1, 1], "s": 2, "d": {"2": 1}}',
        '{"weights": [1, 1, 1, 1], "s": 2, "d": {"01": -1}}',
        '{"weights": [1, 1, 1, 1], "s": 2, "d": {"00": 2}}',
        '{"weights": [1, 1, 1, 1], "s": 2, "d": {"01": "x"}}',
        '{"weights": [1, 1, 1, 1], "s": true, "d": {"1": 2}}',
        '{"weights": [1, 1, 1, 1], "s": 17, "d": {}}',
        '{"weights": [1, 1, 1, 1], "s": "3", "d": {"100": 2}}',
        "not json",
        # json.loads alone keeps the last value of a repeated key
        '{"weights": [1, 1, 1, 1], "s": 2, "d": {"10": 6, "01": 6, "11": 6, "11": 2}}',
        '{"s": 2, "weights": [1, 1, 1, 1], "s": 3, "d": {"100": 2}}',
    ],
)
def test_from_json_rejects(text):
    with pytest.raises(CoverSpecError):
        from_json(text)


@pytest.mark.parametrize("value, shown", [("true", "True"), ("1.5", "1.5"), ("-1", "-1"),
                                           ('"x"', "'x'")])
def test_from_json_names_a_bad_degree_by_its_key(value, shown):
    # BranchData checks the degrees and names the element by its file key
    text = '{"weights": [1, 1, 1, 1], "s": 3, "d": {"100": 2, "110": %s}}' % value
    with pytest.raises(CoverSpecError) as info:
        from_json(text)
    assert str(info.value) == f"bad degree {shown} at '110'"


def _key(g, s):
    """The cover-file key of element ``g``, bit 0 first."""
    return "".join("1" if (g >> i) & 1 else "0" for i in range(s))


def _outcome(load, text):
    try:
        return load(text)
    except Exception as exc:
        return type(exc), str(exc)


BAD_KEYS = ("short", "long", "x", "space", "arabic")
BAD_DEGREES = ("true", "1.5", "null", '"x"', "-2")
CLEAN_FAULTS = ("", "identity", "odd", "empty", "crlf")


def _bad_key(rng, kind, s):
    key = _key(rng.randrange(1, 1 << s), s)
    if kind in ("short", "long"):
        return key[1:] if kind == "short" else key + "1"
    if kind == "arabic":
        return key.translate(str.maketrans("01", "\u0660\u0661"))
    i = rng.randrange(s)
    return key[:i] + ("x" if kind == "x" else " ") + key[i + 1:]


def _seeded_file(rng, s, fault="", where=0):
    """A cover file of rank ``s`` with at least three keys from rank 2 on;
    ``fault`` puts one bad key or bad degree at the first (``where`` 0),
    a middle (1) or the last (2) position in file order."""
    n = 1 << s
    support = rng.sample(range(1, n), rng.randint(min(3, n - 1), min(n - 1, 12)))
    items = [[json.dumps(_key(g, s)), str(2 * rng.randint(1, 9))] for g in support]
    pos = (0, len(items) // 2, len(items) - 1)[where]
    if fault in BAD_KEYS:
        items.insert(pos + (where == 2), [json.dumps(_bad_key(rng, fault, s)), "2"])
    elif fault in BAD_DEGREES:
        items[pos][1] = fault
    elif fault == "duplicate":
        items.insert(pos + 1, [items[pos][0], "4"])
    elif fault == "identity":
        items.insert(pos, [json.dumps("0" * s), "2"])
    elif fault == "two":  # the one named is the first in element order
        items[0][1], items[-1][1] = "0.5", "-4"
    elif fault == "odd":
        items[pos][1] = "1"
    elif fault == "empty":
        items = []
    weights = rng.choice([(1, 1, 1, 1), (1, 1, 2, 3), (1, 2, 3, 5)])
    body = ", ".join(f"{k}: {v}" for k, v in items)
    text = f'{{"weights": {list(weights)}, "s": {s}, "d": {{{body}}}}}'
    return text.replace(", ", ",\r\n") if fault == "crlf" else text


@pytest.mark.parametrize("s", range(1, 9))
def test_from_json_matches_per_key_and_per_degree_loops(s):
    rng = random.Random(700 + s)
    texts = [_seeded_file(rng, s) for _ in range(10)]
    for fault in BAD_KEYS + BAD_DEGREES + ("duplicate",):
        texts += [_seeded_file(rng, s, fault, where) for where in range(3)]
    texts += [_seeded_file(rng, s, fault) for fault in CLEAN_FAULTS]
    texts += [_seeded_file(rng, s, "two") for _ in range(3)]
    texts.append("\ufeff" + texts[0])
    parsed = 0
    for text in texts:
        try:
            expected = oracles.load_cover(text)
        except ValueError as exc:
            expected = CoverSpecError, str(exc)
        got = _outcome(from_json, text)
        if isinstance(got, CoverSpec):
            got = got.weights.a, got.branch.s, got.branch.d
        assert got == expected, text
        parsed += len(expected) == 3
    assert parsed >= 10  # the seeded valid files, odd parity and CRLF included


def test_from_json_refuses_a_bom_as_json_loads_does():
    text = "\ufeff" + to_json(TRIPLE_333)
    with pytest.raises(CoverSpecError) as info:
        from_json(text)
    assert str(info.value) == (
        "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
    )


def test_from_json_accepts_crlf():
    assert from_json(to_json(TRIPLE_333).replace("\n", "\r\n")) == TRIPLE_333


@pytest.mark.parametrize("depth", [1_000, 100_000])
@pytest.mark.parametrize("opener", ["[", '{"a": '])
def test_from_json_deep_nesting_is_malformed(depth, opener):
    # the decoder runs out of stack (RecursionError) or input (JSONDecodeError)
    with pytest.raises(CoverSpecError, match="^invalid JSON: "):
        from_json(opener * depth)


def test_from_path(tmp_path):
    p = tmp_path / "cover.json"
    p.write_text(to_json(TRIPLE_333), encoding="utf-8")
    assert from_path(str(p)) == TRIPLE_333
    with pytest.raises(CoverSpecError):
        from_path(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r", "\n\r", "\r\r\n"])
@pytest.mark.parametrize("tail", ['"001": 6}}', '"001": }}', '"0\r\n01": 6}}'],
                         ids=["valid", "malformed", "newline-in-key"])
def test_from_path_reads_newlines_as_text_mode(tmp_path, eol, tail):
    # from_path reads bytes; an error names the same line and char as a text-mode read
    text = eol.join(['{"weights": [1, 1, 1, 1],', ' "s": 3,', ' "d": {"100": 6,', ' "010": 6,',
                     " " + tail, ""])
    p = tmp_path / "cover.json"
    p.write_bytes(text.encode("utf-8"))
    with open(p, encoding="utf-8") as fh:
        expected = _outcome(from_json, fh.read())
    assert _outcome(from_path, str(p)) == expected


def test_from_path_names_a_file_that_is_not_utf8(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"weights": [1, 1, 1, 1], "s": 1, "d": {"1": 2}, "note": "caf\xe9"}'
                  .encode("latin-1"))
    with pytest.raises(CoverSpecError) as info:
        from_path(str(p))
    assert str(info.value).startswith(
        f"cannot read {p}: 'utf-8' codec can't decode byte 0xe9 in position")
