"""Cover descriptions: eigensheaf degrees, flatness, validation, JSON I/O."""

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
from z2cover.gf2 import dot
from z2cover.invariants import invariant_report
from z2cover.walsh import NonIntegralError
from z2cover.wps import Weights

from gl_table import canonicalize


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
        for chi in range(n):
            direct = sum(d[g] for g in range(n) if dot(chi, g))
            assert degs[chi] * 2 == direct
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
            c = canonicalize(tuple(d))
            if not any(c[1:]):
                continue
            a = half_point_count(CoverSpec(base, BranchData(s, tuple(d))))
            b = half_point_count(CoverSpec(base, BranchData(s, c)))
            assert a == b


def test_half_point_count_fractional():
    spec = cover((1, 1, 2, 3), (0, 1, 1, 2))
    with pytest.raises(NonIntegralError):
        half_point_count(spec)


def _half_points_by_triples(spec):
    """Reference count: loop over pairs, the third element is their sum."""
    d = spec.branch.d
    acc = 0
    for p in range(1, len(d)):
        for q in range(p + 1, len(d)):
            if p ^ q > q:
                acc += d[p] * d[q] * d[p ^ q]
    return Fraction(acc, spec.weights.A)


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
        want = _half_points_by_triples(spec)
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
    assert spec.branch._triple_mass is None
    validate(spec)
    mass = spec.branch._triple_mass
    assert type(mass) is Fraction
    report = invariant_report(spec)  # half points and e(X) both read the kept mass
    assert spec.branch._triple_mass is mass
    assert zero_sum_triple_mass(spec.branch) is mass
    assert report.half_points == mass / spec.weights.A


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


def test_from_path(tmp_path):
    p = tmp_path / "cover.json"
    p.write_text(to_json(TRIPLE_333), encoding="utf-8")
    assert from_path(str(p)) == TRIPLE_333
    with pytest.raises(CoverSpecError):
        from_path(str(tmp_path / "missing.json"))
