"""Expected CLI outputs computed without the library.

Every formula here is an independent route to the number the CLI prints:
hyperplane sums are summed directly, monomials are counted by a generating
function, the zero-sum triple mass and the Euler strata come from power
sums and one Walsh transform instead of the library's pair and triple
loops.  The benchmark uses these to check seed-dependent outputs for seeds
that have no stored reference hash.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def walsh(values: list) -> list:
    out = list(values)
    h = 1
    while h < len(out):
        for start in range(0, len(out), 2 * h):
            for i in range(start, start + h):
                a, b = out[i], out[i + h]
                out[i], out[i + h] = a + b, a - b
        h *= 2
    return out


def _odd(chi: int, g: int) -> bool:
    return bin(chi & g).count("1") % 2 == 1


def _monomials(weights, top: int) -> list[int]:
    """``N[k]`` = number of weighted-degree-``k`` monomials, ``0 <= k <= top``."""
    counts = [1] + [0] * top
    for a in weights:
        for k in range(a, top + 1):
            counts[k] += counts[k - a]
    return counts


class Cover:
    """Facts about one cover ``(weights, s, d)`` that the CLI reports."""

    def __init__(self, weights, s: int, d: list[int]):
        self.weights = tuple(sorted(weights))
        self.s = s
        self.d = list(d)
        n = 1 << s
        w = self.weights
        self.W = sum(w)
        self.A = w[0] * w[1] * w[2] * w[3]
        self.L = lcm(*w)
        self.D = sum(d)
        acc = 0
        for g, v in enumerate(d):
            if v % 2:
                acc ^= g
        self.parity_ok = acc == 0
        # eigensheaf degree of chi: half the branch mass off the hyperplane chi = 0
        self.l = [Fraction(sum(d[g] for g in range(n) if _odd(chi, g)), 2) for chi in range(n)]
        self.integral = all(v.denominator == 1 for v in self.l)
        self.well_formed = all(gcd(*(w[:i] + w[i + 1 :])) == 1 for i in range(4))
        self.hurwitz = Fraction(self.D, 2) - self.W
        spectrum = walsh(d)
        self.zero_sum_triples = Fraction(sum(v**3 for v in spectrum), 6 * n)
        half = self.zero_sum_triples / self.A
        self.half_integral = half.denominator == 1
        self.half_points = int(half) if self.half_integral else None
        self.flat = self.integral and all(int(v) % self.L == 0 for v in self.l)

    @property
    def ok(self) -> bool:
        return (
            self.parity_ok
            and self.integral
            and self.well_formed
            and self.hurwitz > 0
            and self.half_integral
        )

    def chi(self) -> int:
        top = max(int(v) for v in self.l) - self.W
        counts = _monomials(self.weights, max(top, 0))
        total = 0
        for v in self.l:
            v = int(v)
            total += (1 if v == 0 else 0) - (counts[v - self.W] if v >= self.W else 0)
        return total

    def euler(self) -> Fraction:
        w = self.weights
        d = [v for v in self.d if v]
        p1, p2, p3 = sum(d), sum(v * v for v in d), sum(v**3 for v in d)
        sigma2 = sum(a * b for a, b in combinations(w, 2))
        singles = Fraction(p3 - self.W * p2 + sigma2 * p1, self.A)
        pairs = Fraction(self.W * (p1 * p1 - p2), 2 * self.A) - Fraction(p1 * p2 - p3, self.A)
        e3 = Fraction(p1**3 - 3 * p1 * p2 + 2 * p3, 6)
        triples = (e3 - self.zero_sum_triples) / self.A
        n = 1 << self.s
        return 4 * n - Fraction(n, 2) * singles + Fraction(n, 4) * pairs - Fraction(n, 8) * triples

    def expect_check(self) -> tuple[int, dict]:
        fields = {
            "ok": self.ok,
            "parity_ok": self.parity_ok,
            "integral_degrees": self.integral,
            "weights_well_formed": self.well_formed,
            "flat": self.flat,
            "branching_positive": self.hurwitz > 0,
            "hurwitz": str(self.hurwitz),
            "half_points": self.half_points,
            "half_points_integral": self.half_integral,
        }
        return (0 if self.ok else 1), fields

    def expect_invariants(self) -> tuple[int, dict | None]:
        if not self.integral:
            return 1, None
        k3 = Fraction(1 << self.s, self.A) * self.hurwitz**3
        chi = self.chi()
        e = self.euler()
        x = y = sci = None
        if chi:
            x = e / (24 * chi)
            y = -k3 / (24 * chi)
            sci = y * (3 * x + 1) - 4
        return 0, {
            "K3": str(k3),
            "chi": chi,
            "euler": str(e),
            "exact": self.weights == (1, 1, 1, 1),
            "hurwitz": str(self.hurwitz),
            "half_points": self.half_points,
            "flat": self.flat,
            "x": None if x is None else str(x),
            "y": None if y is None else str(y),
            "sci": None if sci is None else str(sci),
        }

    def expect_deform(self) -> tuple[int, dict | None]:
        if not self.integral:
            return 1, None
        n = 1 << self.s
        failing = [
            [g, chi]
            for chi in range(1, n)
            for g in range(1, n)
            if self.d[g] >= self.l[chi] and not _odd(chi, g)
        ]
        total_ok = self.D > 2 * self.W
        coprime = all(gcd(a, b) == 1 for a, b in combinations(self.weights, 2))
        ok = not failing and total_ok and coprime
        return (0 if ok else 1), {
            "ok": ok,
            "pairwise_ok": not failing,
            "failing_pairs": failing,
            "total_degree_ok": total_ok,
            "weights_coprime": coprime,
            "genericity_assumed": True,
        }


def geography_point(r: list[Fraction]) -> tuple[str, str, str]:
    """``(x, y, sci)`` of a ratio vector, from one Walsh transform."""
    n = len(r)
    a = sum(v**3 for v in r)
    b = sum(v**2 for v in r)
    spectrum = walsh(r)
    q = sum(((spectrum[0] - sc) / 2) ** 3 for sc in spectrum[1:])
    phi = Fraction(8, n) * q
    y = 2 / phi
    x = (14 * a + 6 * b + phi) / (3 * phi)
    sci = y * (3 * x + 1) - 4
    return str(x), str(y), str(sci)


def sample_ratio(s: int, seed: int, index: int) -> list[Fraction]:
    """The ratio vector ``geography sample`` draws for one index."""
    rng = random.Random(f"{seed}:{index}")
    n = 1 << s
    while True:
        picks = [rng.randint(0, 9) for _ in range(n - 1)]
        total = sum(picks)
        if total:
            break
    return [Fraction(0)] + [Fraction(p, total) for p in picks]


def expect_sample(s: int, seed: int, count: int) -> dict:
    points = []
    for i in range(count):
        x, y, sci = geography_point(sample_ratio(s, seed, i))
        points.append({"index": i, "x": x, "y": y, "sci": sci})
    return {"s": s, "seed": seed, "count": count, "points": points}


def check(kind: str, params: dict, rc: int, stdout: bytes) -> str | None:
    """Compare one op's exit code and stdout with the oracle; None if equal."""
    if kind in ("cover check", "cover invariants", "deform check"):
        cover = Cover(params["weights"], params["s"], params["d"])
        want_rc, want = {
            "cover check": cover.expect_check,
            "cover invariants": cover.expect_invariants,
            "deform check": cover.expect_deform,
        }[kind]()
    elif kind == "geography sample":
        want_rc, want = 0, expect_sample(params["s"], params["seed"], params["count"])
    else:
        raise ValueError(f"no oracle for {kind!r}")
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    if want is None:
        return None if not stdout.strip() else "unexpected output on a rejected cover"
    try:
        got = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if not isinstance(got, dict):
        return "stdout is not a JSON object"
    got.pop("messages", None)
    if got != want:
        bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return "differs from oracle in " + ", ".join(bad)
    return None
