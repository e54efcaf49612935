import itertools
import math
import random
import sys
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (rationals, small_polys, sturm_chain, sturm_count,
                      sturm_sign_of)
import nevkit.poly
from nevkit.corpus import random_plain_pair
from nevkit.errors import ExactSplitUnavailable, InvalidInput
from nevkit.gnev import canonical_pair, canonical_rational
from nevkit.poly import (Poly, RealAlg, compose_fractional, count_real_roots,
                         gcd, irreducible_factors, isolate_real_roots,
                         point_cmp,
                         rational_between, rational_outside,
                         real_root_structure, squarefree_decomposition)
from nevkit.nevfun import NevFun
from nevkit.qmath import INF, NEG_INF, QC
from nevkit.ratfun import RatFun
from nevkit.realize import enumerate_zeros_poles


def P(*coeffs):
    return Poly(coeffs)


@pytest.mark.parametrize("call, value", [
    (lambda: repr(Poly()), "Poly(0)"),
    (lambda: Poly()(2), 0),
    (lambda: Poly()(QC.of(1, 1)), QC.of(0)),
    (lambda: Poly([1, 2])(0.5 + 1j), 2 + 2j),
    (lambda: count_real_roots(Poly.const(3)), 0),
    (lambda: isolate_real_roots(Poly.const(3)), []),
    (lambda: compose_fractional(Poly(), Poly([0, 1]), Poly([1, 1]), 2),
     Poly()),
], ids=["repr", "at-rational", "at-qc", "at-float", "count", "isolate",
        "compose"])
def test_zero_and_constant_polynomials(call, value):
    assert call() == value


def test_divmod_roundtrip():
    a = Poly.from_roots([1, 2, 3], lead=2) + P(0, 0, Fraction(1, 3))
    b = Poly.from_roots([1, 5])
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


def _long_division(a, b):
    """Coefficients of (q, r) by Fraction long division, the reference for
    Poly.divmod."""
    r = list(a.c)
    q = [Fraction(0)] * max(0, len(r) - len(b.c) + 1)
    while len(r) >= len(b.c):
        k = len(r) - len(b.c)
        q[k] = r[-1] / b.c[-1]
        for i, y in enumerate(b.c):
            r[k + i] -= q[k] * y
        r.pop()
    return _trimmed(q), _trimmed(r)


def _trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _assert_canonical(p):
    """The stored form: d > 0, gcd(d, *n) = 1, no trailing zero, and .c
    reads n[i] / d."""
    assert type(p.d) is int and all(type(x) is int for x in p.n)
    assert p.d > 0 and math.gcd(p.d, *p.n) == 1
    assert not p.n or p.n[-1] != 0
    assert p.c == tuple(Fraction(x, p.d) for x in p.n)


@settings(max_examples=300, deadline=None)
@given(small_polys(6), small_polys(3, nonzero=True), small_polys(3),
       st.booleans())
@example(a=P(1, 2, 3, 4), b=P(1, 0, -3), c=Poly(), exact=False)
@example(a=Poly(), b=P(Fraction(2, 5), Fraction(-7, 3)),
         c=P(5, 0, Fraction(1, 6)), exact=True)
@example(a=P(Fraction(1, 2), 3), b=P(Fraction(-4, 9)), c=Poly(), exact=False)
def test_divmod_property(a, b, c, exact):
    """divmod equals Fraction long division, for divisors with non-unit and
    negative leading coefficients and for exact divisions."""
    if exact:
        a = _schoolbook(b, c)
    q, r = a.divmod(b)
    assert (q.c, r.c) == _long_division(a, b)
    assert r.degree < b.degree
    assert q * b + r == a
    _assert_canonical(q)
    _assert_canonical(r)
    if exact:
        assert r.is_zero and q == c


def _schoolbook(a, b):
    """Product of a and b by the Fraction schoolbook rule, the reference
    for Poly.__mul__."""
    out = [Fraction(0)] * (len(a.c) + len(b.c))
    for i, x in enumerate(a.c):
        for j, y in enumerate(b.c):
            out[i + j] += x * y
    return Poly(out)


def _euclid_gcd(a, b):
    """Monic gcd by Euclid's algorithm over the rationals, the reference
    for gcd."""
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic()


def _some_polys(max_degree):
    """Polynomials with unlike denominators, the zero polynomial and
    constants included."""
    return st.one_of(st.just(Poly()), rationals(8, 5).map(Poly.const),
                     st.lists(rationals(9, 7), min_size=1,
                              max_size=max_degree + 1).map(Poly))


@settings(max_examples=300, deadline=None)
@given(_some_polys(3), _some_polys(4), _some_polys(2), rationals(5, 4),
       rationals(5, 4))
@example(common=Poly.from_roots([Fraction(1, 2), -3]),
         u=Poly.from_roots([5], lead=7), v=Poly.from_roots([4], lead=-2),
         ku=Fraction(1), kv=Fraction(1))
@example(common=Poly(), u=Poly(), v=Poly(), ku=Fraction(1), kv=Fraction(1))
@example(common=Poly.const(1), u=Poly(), v=P(Fraction(-2, 3), 0, 5),
         ku=Fraction(1), kv=Fraction(-3, 2))
@example(common=P(1, Fraction(1, 3)), u=Poly.const(-4), v=P(0, 2),
         ku=Fraction(-1), kv=Fraction(2, 3))
def test_gcd_common_factor(common, u, v, ku, kv):
    """gcd equals the Fraction-Euclid gcd in both argument orders, and a
    shared factor divides it."""
    a = _schoolbook(common, u) * ku
    b = _schoolbook(common, v) * kv
    want = _euclid_gcd(a, b)
    assert gcd(a, b) == want
    assert gcd(b, a) == want
    assert want.is_zero or want.lead == 1
    if not want.is_zero and not common.is_zero:
        assert want.divmod(common)[1].is_zero


def test_gcd_runs_no_fraction_division(monkeypatch):
    calls = []
    divmod_ = Poly.divmod

    def counted(self, other):
        calls.append(1)
        return divmod_(self, other)

    monkeypatch.setattr(Poly, "divmod", counted)
    common = P(-2, 0, 3)
    assert gcd(P(1, 2, 3), P(-5, 0, 0, Fraction(1, 7))) == Poly.const(1)
    assert gcd(_schoolbook(common, P(1, 4)),
               _schoolbook(common, P(Fraction(2, 3), 0, -1))) \
        == common.monic()
    assert calls == []


@settings(max_examples=300, deadline=None)
@given(_some_polys(4), _some_polys(3), rationals(9, 7))
def test_mul_matches_schoolbook(a, b, k):
    assert a * b == _schoolbook(a, b)
    assert b * a == _schoolbook(a, b)
    assert a * k == _schoolbook(a, Poly.const(k))
    assert k * a == a * k
    assert (a * 3).c == tuple(3 * x for x in a.c)


@settings(max_examples=300, deadline=None)
@given(_some_polys(5), _some_polys(5), rationals(12, 9))
def test_ring_ops_match_fraction_references(a, b, z):
    pairs = list(zip_longest(a.c, b.c, fillvalue=Fraction(0)))
    assert (a + b).c == _trimmed(x + y for x, y in pairs)
    assert (a - b).c == _trimmed(x - y for x, y in pairs)
    assert (-a).c == tuple(-x for x in a.c)
    assert a.monic().c == tuple(x / a.c[-1] for x in a.c)
    assert a.deriv().c == tuple(i * x for i, x in enumerate(a.c))[1:]
    want = Fraction(0)
    for x in reversed(a.c):
        want = want * z + x
    assert a.eval_q(z) == want and type(a.eval_q(z)) is Fraction
    for p in (a + b, a - b, -a, a.monic(), a.deriv(), a * b, a * z):
        _assert_canonical(p)


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals(9, 7), max_size=5), _some_polys(3),
       st.integers(2, 12))
def test_equal_values_have_one_form(cs, other, k):
    """However a value is built, its Poly compares equal, hashes equal and
    reads the same coefficients."""
    p = Poly(cs)
    forms = [Poly(cs + [0, 0]),
             Poly(f"{x.numerator * k}/{x.denominator * k}" for x in cs),
             (p + other) - other,
             p * k * Fraction(1, k),
             Poly.const(k) * p * Poly.const(Fraction(1, k))]
    if all(x.denominator == 1 for x in cs):
        forms.append(Poly([int(x) for x in cs]))
    _assert_canonical(p)
    for f in forms:
        _assert_canonical(f)
        assert f == p and hash(f) == hash(p) and f.c == p.c
    if p.is_zero:
        assert (p.d, p.n) == (1, ())


def test_mul_and_divmod_construct_no_fraction(monkeypatch):
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return Fraction(*args, **kwargs)

    a = P(1, Fraction(2, 3), -5, 7)
    b = P(Fraction(-3, 4), 0, Fraction(5, 2))
    monkeypatch.setattr(nevkit.poly, "Fraction", Counted)
    prod = a * b
    q, r = a.divmod(b)
    q2, r2 = prod.divmod(a)
    g = gcd(prod, b * P(1, 1))
    assert made == []
    monkeypatch.undo()
    assert (q.c, r.c) == _long_division(a, b)
    assert q2 == b and r2.is_zero and g == b.monic()


def _qc_horner(p, z):
    """p(z) by Horner through QC arithmetic, the reference for
    Poly.eval_qc."""
    acc = QC.of(0)
    for a in reversed(p.c):
        acc = acc * z + QC.of(a)
    return acc


@settings(max_examples=300, deadline=None)
@given(_some_polys(9), rationals(30, 11), rationals(30, 11))
@example(p=Poly(), re=Fraction(1, 3), im=Fraction(2))
@example(p=Poly.const(Fraction(-7, 4)), re=Fraction(5), im=Fraction(1, 9))
@example(p=P(1, Fraction(-2, 3), 0, 5), re=Fraction(-3, 2), im=Fraction(0))
@example(p=P(Fraction(1, 6), 4, Fraction(-5, 7)), re=Fraction(2, 5),
         im=Fraction(-7, 3))
def test_eval_qc_matches_qc_horner(p, re, im):
    z = QC.of(re, im)
    got = p.eval_qc(z)
    assert got == _qc_horner(p, z)
    assert isinstance(got.re, Fraction) and isinstance(got.im, Fraction)


HUGE = 10 ** 400
TOP = 2 ** 1024 - 2 ** 970         # rounds up to 2^1024, beyond the floats


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-HUGE, HUGE), max_size=6),
       st.integers(1, HUGE))
@example(n=[HUGE, 34, 1], d=10)
@example(n=[-TOP, 1], d=1)
@example(n=[1, TOP - 1], d=1)
@example(n=[1, -3, 2 ** 1080], d=2 ** 60 + 1)
@example(n=[1, 7], d=HUGE)
def test_float_coeffs_round_as_fractions_do(n, d):
    """One correctly rounded integer division per coefficient, as float()
    of its Fraction; beyond the float range both raise."""
    p = Poly([Fraction(x, d) for x in n])
    try:
        want = [float(c) for c in p.c]
    except OverflowError:
        with pytest.raises(InvalidInput, match="beyond the float range"):
            p.float_coeffs()
    else:
        assert p.float_coeffs() == want


def test_squarefree_decomposition():
    p = Poly.from_roots([1]) ** 3 * Poly.from_roots([2]) * P(1, 0, 1)
    parts = squarefree_decomposition(p)
    rebuilt = Poly.const(p.lead)
    for g, m in parts:
        rebuilt = rebuilt * g ** m
    assert rebuilt == p
    mults = sorted(m for _, m in parts)
    assert mults == [1, 3]


def test_squarefree_decomposition_never_divides_by_one(monkeypatch):
    divisors = []
    divmod_ = Poly.divmod

    def recorded(self, other):
        divisors.append(other)
        return divmod_(self, other)

    monkeypatch.setattr(Poly, "divmod", recorded)
    p = P(-2, 0, 1) * P(-3, 1)
    assert squarefree_decomposition(p) == [(p, 1)]
    assert divisors and all(d.degree > 0 for d in divisors)


def roots_of(p):
    return list(real_root_structure(p)[0])


def zero_blocks(f: RatFun) -> list:
    """(factor, pairs, multiplicity, real roots) of each conjugate-pair
    zero block of f: its real roots are the points of f on the factor, and
    its pairs the rest of the factor's degree, halved."""
    out = []
    for h, m in f.complex_zero_blocks:
        n = sum(isinstance(x, RealAlg) and x.p == h
                for x, _e in f.critical_points())
        out.append((h, (h.degree - n) // 2, m, n))
    return out


def test_rational_roots():
    p = Poly.from_roots([Fraction(2, 3), -5, 0])
    assert roots_of(p) == [(Fraction(-5), 1), (Fraction(0), 1),
                           (Fraction(2, 3), 1)]
    q = Poly.from_roots([1]) ** 2 * Poly.from_roots([Fraction(-1, 2)])
    assert roots_of(q) == [(Fraction(-1, 2), 1), (Fraction(1), 2)]


def _record_analyses(monkeypatch) -> list:
    """The polynomials a RatFun gives to real_root_structure from now on."""
    seen, analysis = [], nevkit.ratfun.real_root_structure
    monkeypatch.setattr(nevkit.ratfun, "real_root_structure",
                        lambda p: seen.append(p) or analysis(p))
    return seen


def test_root_structure_shared_by_equal_numerators(monkeypatch):
    seen = _record_analyses(monkeypatch)
    num = P(-3, 0, 1) * P(-7, 1) * P(1, 0, 1)   # squarefree: one analysis
    r1 = RatFun(num, Poly.from_roots([2]))
    r2 = RatFun(num, Poly.from_roots([-4, 9]))
    assert r1 is not r2
    zeros = r1.real_zeros
    assert [(point_cmp(x, y), m - n) for (x, m), (y, n)
            in zip(r2.real_zeros, zeros, strict=True)] == [(0, 0)] * 3
    # a first read analyses both sides of each RatFun, once per RatFun
    assert seen == [num, r1.den, num, r2.den]
    assert [isinstance(x, Fraction) for x, _m in zeros] == \
        [False, False, True]
    # the pair of z^2 + 1 shares its block with the roots of z^2 - 3
    assert [(pairs, n) for _h, pairs, _m, n in zero_blocks(r2)] == [(1, 2)]


def test_root_structure_mixed_factor(monkeypatch):
    calls = []
    factor = nevkit.poly._factor_squarefree

    def counting(a, done=None):
        calls.append(Poly(a))
        return factor(a, done)

    monkeypatch.setattr(nevkit.poly, "_factor_squarefree", counting)
    cube = P(-2, 0, 0, 1)          # one irrational real root, one pair
    f1 = RatFun(cube * P(-1, 1), Poly.const(1))
    assert zero_blocks(f1) == [(cube, 1, 1, 1)]
    assert [m for _x, m in f1.real_zeros] == [1, 1]
    # an odd power is factored, and its irreducible mixed factor refused
    with pytest.raises(ExactSplitUnavailable, match="conjugate pairs share"):
        canonical_pair(f1)
    assert calls == [cube]
    f2 = RatFun(cube ** 2 * P(-1, 1), Poly.const(1))
    assert [b[1:] for b in zero_blocks(f2)] == [(1, 2, 1)]
    psi, s0, _records = canonical_rational(f2)
    assert psi == RatFun(cube ** 2, Poly.const(1))
    assert s0 == RatFun(P(-1, 1), Poly.const(1))
    # an even power enters the factor whole, unfactored
    assert canonical_pair(f2).q0.to_ratfun() == s0
    assert calls == [cube]


def test_mixed_block_splits_into_pairs_and_real_roots():
    # the degree-5 block of the golden case chain_negative-1: z^2 + 1 times
    # a cubic with three real roots
    F = Fraction
    block = P(F(518, 633), F(-19373, 2532), F(-1063, 211), F(-16841, 2532),
              F(-3707, 633), 1)
    cubic = P(F(518, 633), F(-19373, 2532), F(-3707, 633), 1)
    assert sorted(irreducible_factors(block), key=lambda f: f.degree) == [
        P(1, 0, 1), cubic]
    assert count_real_roots(cubic) == 3
    f = RatFun(block * F(-422, 65),
               P(F(2, 3), F(35, 12), F(13, 8), F(-83, 12), F(-43, 6), 1))
    assert [b[1:] for b in zero_blocks(f)] == [(1, 1, 3)]
    psi, s0, _records = canonical_rational(f)
    assert psi == RatFun(P(1, 0, 1), P(F(1, 4), 1, 1))
    assert psi * s0 == f


def _sympy_factors(p: Poly) -> list[Poly]:
    """Monic irreducible factors of p over Q by sympy, with repetition."""
    import sympy
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                     for c in reversed(p.c)], sympy.Symbol("x"), domain="QQ")
    out = []
    for f, k in sp.factor_list()[1]:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
        out.extend([Poly(coeffs).monic()] * k)
    return out


def _by_value(fs):
    return sorted(fs, key=lambda f: (f.degree, f.n, f.d))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-30, 30), min_size=1,
                                   max_size=4),
                          st.sampled_from([1, -1, 2, -3, 6, -12]),
                          st.integers(1, 3)),
                min_size=1, max_size=6),
       st.sampled_from([1, -2, Fraction(3, 7)]))
@example([([1, 0, 0], 1, 1)], 1)                       # z^4 + 1
@example([([1, 0, -10, 0], 1, 1), ([1, 0, -98, 0], 1, 2)], 1)
@example([([-2, 0], 1, 1), ([-3, 0], 1, 1), ([-5, 0], 1, 1),
          ([-6, 0], 1, 1), ([-7, 0], 1, 1), ([-10, 0], 1, 1)], -2)
def test_irreducible_factors_match_sympy(factors, scale):
    """Products of integer factors of degree 1 to 4, with non-unit and
    negative leading coefficients and repeated factors, up to degree 12:
    the monic irreducible factors equal sympy's, with multiplicity, and
    multiply back to p."""
    p = Poly.const(scale)
    for low, lead, m in factors:
        f = Poly(low + [lead]) ** m
        if p.degree + f.degree <= 12:
            p = p * f
    got = irreducible_factors(p)
    assert _by_value(got) == _by_value(_sympy_factors(p))
    prod = Poly.const(p.lead)
    for f in got:
        assert f.lead == 1
        prod = prod * f
    assert prod == p


def test_sturm_count():
    p = Poly.from_roots([-2, 0, 3])
    assert count_real_roots(p) == 3
    assert count_real_roots(p, Fraction(-1), Fraction(4)) == 2
    assert count_real_roots(p, NEG_INF, Fraction(0)) == 2
    no_real = P(1, 0, 1)
    assert count_real_roots(no_real) == 0
    # an end at a double root, where a Sturm count does not hold
    p = Poly.from_roots([1, 1, 2])
    assert count_real_roots(p, Fraction(0), Fraction(1)) == 1
    assert count_real_roots(p, Fraction(1), Fraction(2)) == 1


@settings(max_examples=100, deadline=None)
@given(small_polys(6), rationals(), rationals())
def test_count_real_roots_matches_the_sturm_count(p, lo, hi):
    """The points of p's table in (lo, hi] are as many as its Sturm count
    gives, on the squarefree part of p so that no end is a multiple root."""
    if p.degree >= 1:
        p = p // gcd(p, p.deriv())
    for a, b in [(lo, hi), (NEG_INF, hi), (lo, INF), (NEG_INF, INF)]:
        if point_cmp(a, b) <= 0:
            assert count_real_roots(p, a, b) == sturm_count(p, a, b)


def test_isolation_without_rational_roots_takes_no_remainder(monkeypatch):
    """Descartes bisection of a residual takes no pseudo-remainder: the
    rational split and the boxes of SD_5 (z^2 + 1), squarefree without
    rational roots, call _neg_prem zero times."""
    p = _swinnerton_dyer(5) * P(1, 0, 1)
    calls = _counted(monkeypatch, "_neg_prem")
    rats, h = nevkit.poly._rational_split(nevkit.poly._primitive(p.n))
    boxes = nevkit.poly._boxes(h, rats)
    assert (rats, len(boxes), calls) == ([], 32, {"_neg_prem": 0})
    assert nevkit.poly._poly(h, h[-1]) == p.monic()


def test_float_of_a_point_beyond_the_float_range_is_infinite():
    """+-sqrt(x^2 + 1) lies just above |x|: below TOP it rounds to the
    largest double, at TOP to infinity, as IEEE rounding gives."""
    for x, want in [(TOP - 1, sys.float_info.max), (TOP, math.inf)]:
        p = P(-(x * x + 1), 0, 1)
        neg, pos = (RealAlg(p, lo, hi) for lo, hi in isolate_real_roots(p))
        assert (float(neg), float(pos)) == (-want, want)
    assert repr(pos) == "RealAlg~inf" and repr(neg) == "RealAlg~-inf"


def test_isolation_and_realalg():
    p = P(-2, 0, 1)  # roots +-sqrt(2)
    boxes = isolate_real_roots(p)
    assert len(boxes) == 2
    neg = RealAlg(p, *boxes[0])
    pos = RealAlg(p, *boxes[1])
    assert pos.cmp_rat(Fraction(1)) > 0
    assert pos.cmp_rat(Fraction(3, 2)) < 0
    assert neg.cmp_alg(pos) < 0
    assert pos.cmp_alg(pos) == 0
    # sign of z - 1 at sqrt(2) is positive; z^2 - 2 vanishes there
    assert pos.sign_of(P(-1, 1)) > 0
    assert pos.sign_of(p) == 0
    assert pos.sign_of(P(-2, 0, 1) * P(7)) == 0
    # defining polynomials with content 6 read the same signs
    for scaled in (P(-12, 0, 6), P(12, 0, -6)):
        x = RealAlg(scaled, *boxes[1])
        assert x.cmp_rat(Fraction(7, 5)) > 0 and x.cmp_rat(Fraction(3, 2)) < 0
        assert x.cmp_alg(pos) == 0 and float(x) == math.sqrt(2)
    # sqrt(2) vs sqrt(3)
    p3 = P(-3, 0, 1)
    sqrt3 = RealAlg(p3, *isolate_real_roots(p3)[1])
    assert pos.cmp_alg(sqrt3) < 0
    mid = rational_between(pos, sqrt3)
    assert pos.cmp_rat(mid) < 0 and sqrt3.cmp_rat(mid) > 0


def test_cmp_alg_takes_no_gcd_of_disjoint_boxes(monkeypatch):
    calls = []
    gcd_ = nevkit.poly.gcd

    def counted(a, b):
        calls.append(1)
        return gcd_(a, b)

    monkeypatch.setattr(nevkit.poly, "gcd", counted)
    sqrt2 = RealAlg(P(-2, 0, 1), Fraction(1), Fraction(3, 2))
    sqrt3 = RealAlg(P(-3, 0, 1), Fraction(3, 2), Fraction(2))
    assert sqrt2.cmp_alg(sqrt3) < 0 and sqrt3.cmp_alg(sqrt2) > 0
    assert calls == []
    # overlapping boxes of one value still need the gcd to decide equality
    other = RealAlg(P(-2, 0, 1), Fraction(4, 3), Fraction(2))
    assert sqrt2.cmp_alg(other) == 0
    assert calls == [1]


def test_point_cmp_mixed():
    p = P(-2, 0, 1)
    pos = RealAlg(p, *isolate_real_roots(p)[1])
    assert point_cmp(Fraction(1), pos) < 0
    assert point_cmp(pos, Fraction(2)) < 0
    assert pos.sign_of(P(0, 1)) > 0


def test_point_cmp_orders_the_extended_line():
    p = P(-2, 0, 1)
    sqrt2 = RealAlg(p, *isolate_real_roots(p)[1])
    points = [NEG_INF, Fraction(-3), Fraction(1), sqrt2, Fraction(3, 2), INF]
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            assert point_cmp(a, b) == (i > j) - (i < j), (a, b)


def test_sturm_chain_endpoints():
    p = Poly.from_roots([0, 1, 2, 3])
    assert count_real_roots(p, Fraction(-1), INF) == 4


def fresh_roots(p: Poly) -> list[RealAlg]:
    """Fresh RealAlg objects, with the Sturm boxes as isolated."""
    return [RealAlg(p, lo, hi) for lo, hi in isolate_real_roots(p)]


def test_real_root_structure_does_not_bisect(monkeypatch):
    steps = []
    step = RealAlg._step
    monkeypatch.setattr(RealAlg, "_step",
                        lambda self: (steps.append(self), step(self)))
    for p in (P(-2, 0, 1), P(-2, 0, 1) * P(-5, 1), P(1, 0, -10, 0, 1),
              P(-2, 0, 0, 1) * P(-1, 1)):
        s = real_root_structure(p)
        assert any(isinstance(x, RealAlg) for x, _m in s[0])
    assert steps == []


def test_float_is_correctly_rounded_whatever_the_refinement():
    sqrt2 = P(-2, 0, 1)
    assert float(fresh_roots(sqrt2)[1]) == math.sqrt(2)
    for probes in ([Fraction(3, 2)], [Fraction(141421356, 10**8)],
                   [Fraction(math.sqrt(2)), Fraction(1414213562373095, 10**15)]):
        x = fresh_roots(sqrt2)[1]
        for c in probes:
            x.cmp_rat(c)
        x.floor_div(Fraction(1, 2**70))
        assert float(x) == math.sqrt(2)
    assert float(fresh_roots(sqrt2)[0]) == -math.sqrt(2)
    assert float(fresh_roots(P(-1, 0, 3))[1]) == math.sqrt(1 / 3)
    assert repr(fresh_roots(sqrt2)[1]) == "RealAlg~1.41421"


def test_floor_div_is_exact():
    neg, pos = fresh_roots(P(-2, 0, 1))
    assert pos.floor_div(1) == 1 and neg.floor_div(1) == -2
    assert pos.floor_div(Fraction(1, 1024)) == 1448      # 1024 * 1.41421...
    assert neg.floor_div(Fraction(1, 1024)) == -1449
    w = Fraction(1, 2**64)
    assert pos.floor_div(w) == math.isqrt(2 * 2**128)
    assert pos.floor_div(Fraction(3, 2)) == 0
    assert pos.floor_div(Fraction(1, 3)) == 4


def _cmp_alg_by_counts(a: RealAlg, b: RealAlg) -> int:
    """cmp_alg with equality decided by three Sturm counts on the overlap
    of the boxes, as it was before the one sign test of the gcd: the
    reference for that test."""
    if a is b:
        return 0
    g = None
    while True:
        (alo, ahi), (blo, bhi) = a.box, b.box
        if ahi <= blo:
            return -1
        if bhi <= alo:
            return 1
        if g is None:
            g = gcd(a.p, b.p)
        lo, hi = max(alo, blo), min(ahi, bhi)
        if (g.degree > 0 and sturm_count(g, lo, hi) > 0
                and sturm_count(a.p, lo, hi) == 1
                and sturm_count(b.p, lo, hi) == 1):
            return 0
        (a if ahi - alo >= bhi - blo else b)._step()


def test_cmp_alg_sign_test_matches_the_sturm_counts():
    """On the roots of distinct polynomials that share factors, and so
    roots, the sign test of the gcd and the three counts agree with each
    other and with floats, boxes as isolated and as first refined."""
    factors = [P(-2, 0, 1), P(-3, 0, 1), P(1, -3, 0, 1), P(-1, -1, 1)]
    polys = [f * g for f, g in itertools.combinations(factors, 2)]
    roots = [(i, lo, hi, float(RealAlg(p, lo, hi))) for i, p in
             enumerate(polys) for lo, hi in isolate_real_roots(p)]
    pairs = equal = 0
    for (i, alo, ahi, fa), (j, blo, bhi, fb) in itertools.product(roots,
                                                                  repeat=2):
        if i == j:
            continue
        for k in (0, 3):
            def fresh():
                a = RealAlg(polys[i], alo, ahi)
                for _ in range(k):
                    a._step()
                return a, RealAlg(polys[j], blo, bhi)
            want = _cmp_alg_by_counts(*fresh())
            a, b = fresh()
            assert a.cmp_alg(b) == want == (fa > fb) - (fa < fb)
            pairs, equal = pairs + 1, equal + (want == 0)
    assert (pairs, equal) == (1212, 108)


def test_cmp_alg_separates_close_numbers_without_a_step_cap():
    # sqrt(2 + 10^-120) - sqrt(2) is about 2^-400
    near = Poly([-(2 + Fraction(1, 10**120)), 0, 1])
    a = fresh_roots(P(-2, 0, 1))[1]
    b = fresh_roots(near)[1]
    assert a.cmp_alg(b) < 0 and b.cmp_alg(a) > 0
    mid = rational_between(fresh_roots(P(-2, 0, 1))[1], fresh_roots(near)[1])
    assert a.cmp_rat(mid) < 0 and b.cmp_rat(mid) > 0
    assert mid.denominator & (mid.denominator - 1) == 0   # a power of two


def test_rational_between_smallest_dyadic():
    neg2, pos2 = fresh_roots(P(-2, 0, 1))
    neg3, pos3 = fresh_roots(P(-3, 0, 1))
    assert rational_between(pos2, pos3) == Fraction(3, 2)
    assert rational_between(neg3, neg2) == Fraction(-3, 2)
    assert rational_between(neg2, pos2) == -1
    assert rational_between(1, pos2) == Fraction(5, 4)
    assert rational_between(pos2, 2) == Fraction(3, 2)
    assert rational_between(neg2, Fraction(-1, 3)) == -1
    # several integers inside: the least
    assert rational_between(pos2, 7) == 2
    assert rational_between(-7, neg2) == -6
    # two rationals keep the midpoint
    assert rational_between(Fraction(1), Fraction(2)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        rational_between(pos3, pos2)


def test_rational_between_ignores_refinement_history():
    first = rational_between(*fresh_roots(P(-2, 0, 1)))
    neg, pos = fresh_roots(P(-2, 0, 1))
    for x in (neg, pos):
        x.floor_div(Fraction(1, 2**90))
    assert rational_between(neg, pos) == first == -1
    a, b = fresh_roots(P(-2, 0, 1))[1], fresh_roots(P(-3, 0, 1))[1]
    a.cmp_rat(Fraction(1414, 1000))
    b.cmp_rat(Fraction(17, 10))
    assert rational_between(a, b) == Fraction(3, 2)


def test_rational_outside():
    neg, pos = fresh_roots(P(-2, 0, 1))
    assert rational_outside(pos) == (0, 3)
    assert rational_outside(neg) == (-3, 0)
    assert rational_outside(Fraction(5, 2)) == (Fraction(3, 2), Fraction(7, 2))


def _sympy_roots(g: Poly) -> tuple[list[Fraction], int]:
    """Rational roots and the number of irrational real roots of g from
    sympy's factorization and count_roots."""
    import sympy
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                     for c in reversed(g.c)], sympy.Symbol("x"), domain="QQ")
    rational, irrational = [], 0
    for f, _k in sp.factor_list()[1]:
        if f.degree() == 1:
            a, b = f.all_coeffs()
            root = -b / a
            rational.append(Fraction(int(root.p), int(root.q)))
        else:
            irrational += f.count_roots()
    return sorted(rational), irrational


def _check_isolation(g: Poly):
    """The rational roots are sympy's and the boxes as many as sympy's
    count_roots of the other factors.  Each box, disjoint from the others
    and from the rational roots, has a sign change of g over it, so at
    least one of those roots: with as many boxes as roots, exactly one."""
    got = isolate_real_roots(g)
    rational, irrational = _sympy_roots(g)
    assert [lo for lo, hi in got if lo == hi] == rational
    boxes = [(lo, hi) for lo, hi in got if lo != hi]
    assert len(boxes) == irrational
    for lo, hi in boxes:
        assert lo < hi and g.eval_q(lo) * g.eval_q(hi) < 0
    assert all(a[1] <= b[0] for a, b in zip(got, got[1:]))
    return got


BIG = 10**6


def _product(linear, quadratic) -> Poly:
    """The product of b z - a over (a, b) in linear and of z^2 - c or
    z^2 + c over (real, c) in quadratic."""
    p = Poly.const(1)
    for a, b in linear:
        p = p * P(-a, b)
    for real, c in quadratic:
        p = p * P(-c if real else c, 0, 1)
    return p


def _mignotte(n: int, a: int) -> Poly:
    """z^n - 2 (a z - 1)^2, irreducible by Eisenstein at 2, with two real
    roots within about a^-(n+2)/2 of 1/a."""
    return Poly([-2, 4 * a, -2 * a * a] + [0] * (n - 3) + [1])


def _cluster(c: int, big: int) -> Poly:
    """The product of big z^2 - (big c + j) for j = 0, 1, 2: six irrational
    real roots, three within about 1/(big sqrt c) of each of +-sqrt(c)."""
    return P(-big * c, 0, big) * P(-big * c - 1, 0, big) \
        * P(-big * c - 2, 0, big)


def _products():
    """Products of (b z - a) times optional z^2 - c and z^2 + c."""
    return st.builds(
        _product,
        st.lists(st.tuples(st.integers(-BIG, BIG), st.integers(1, BIG)),
                 max_size=5),
        st.lists(st.tuples(st.booleans(), st.integers(1, 50)), max_size=2))


def _dense():
    """Dense integer polynomials up to degree 40, alone or times a cluster
    of irrational roots, and Mignotte polynomials up to degree 40."""
    def dense(top):
        return st.integers(1, top).flatmap(lambda n: st.lists(
            st.integers(-1000, 1000), min_size=n + 1, max_size=n + 1)) \
            .map(Poly)
    return st.one_of(
        dense(40),
        st.builds(lambda p, c, e: p * _cluster(c, 10 ** e), dense(34),
                  st.sampled_from([2, 3, 5, 7, 10]), st.integers(3, 12)),
        st.builds(_mignotte, st.integers(3, 40), st.integers(2, 100)))


@settings(max_examples=40, deadline=None)
@given(st.one_of(_products(), _dense()))
@example(_product([(0, 1), (1, 3), (-2, 7), (1, 2)], [(True, 2), (False, 1)]))
@example(_product([(BIG, BIG - 1), (BIG - 1, BIG - 2)], [(True, 3)]))
@example(_mignotte(40, 100))
@example(_cluster(2, 10 ** 12) * _mignotte(20, 10))
def test_integer_isolation_matches_sympy(p):
    """The rational roots of the squarefree part of p are sympy's linear
    factors, and every other real root gets one box (_check_isolation)."""
    if p.degree < 1:
        assert isolate_real_roots(p) == []
        return
    _check_isolation(p // gcd(p, p.deriv()))


def test_integer_isolation_edge_cases():
    # roots exactly at bisection midpoints: 0 halves the first interval
    assert isolate_real_roots(P(0, 1)) == [(0, 0)]
    neg, zero, pos = _check_isolation(P(0, -2, 0, 1))
    assert zero == (0, 0)
    # neighbouring rational roots
    assert isolate_real_roots(P(-1, 1000) * P(-1, 1001)) == [
        (Fraction(1, 1001),) * 2, (Fraction(1, 1000),) * 2]
    # a rational root less than 10^-30 below sqrt(2)
    r = Fraction(math.isqrt(2 * 10**60), 10**30)
    g = P(-r, 1) * P(-2, 0, 1)
    _neg, root, box = _check_isolation(g)
    assert root == (r, r) and box[0] > r
    sqrt2 = RealAlg(P(-2, 0, 1), *box)
    assert sqrt2.cmp_rat(r) > 0 and float(sqrt2) == math.sqrt(2)
    points = real_root_structure(g)[0]
    assert [x for x, _m in points[1:2]] == [r]
    assert [x.p for x, _m in points[::2]] == [P(-2, 0, 1)] * 2


def _bisection_reference(g: Poly) -> list[tuple[Fraction, Fraction]]:
    """The real roots of a squarefree g by the former isolation, the
    reference for the p-adic one: Sturm bisection of the whole chain of g
    on Fractions, a root at a midpoint taken exactly, and a box with one
    root bisected by sign until it holds at most one multiple of 1/L (L the
    leading coefficient of the primitive form), which is tested exactly."""
    chain = sturm_chain(g)
    a = chain[0]
    lead = abs(a[-1])

    def point(x):
        # (variations, sign of g, sign of g')
        s = [nevkit.poly._sign_at(c, x.numerator, x.denominator)
             for c in chain]
        return nevkit.poly._variations(s), s[0], s[1]

    def one_root(lo, plo, hi, phi):
        sign_lo = plo[1] or plo[2]
        lo_zero, hi_zero = plo[1] == 0, phi[1] == 0
        while True:
            k = lo.numerator * lead // lo.denominator + 1
            last = -(-hi.numerator * lead // hi.denominator) - 1
            if k == last and nevkit.poly._sign_at(a, k, lead) == 0:
                return Fraction(k, lead), Fraction(k, lead)
            if k >= last and not (lo_zero or hi_zero):
                return lo, hi
            mid = (lo + hi) / 2
            s = nevkit.poly._sign_at(a, mid.numerator, mid.denominator)
            if s == 0:
                return mid, mid
            if s == sign_lo:
                lo, lo_zero = mid, False
            else:
                hi, hi_zero = mid, False

    bound = Fraction(2 + max(abs(c) for c in a[:-1]) // lead)
    out = []
    stack = [(-bound, point(-bound), bound, point(bound))]
    while stack:
        lo, plo, hi, phi = stack.pop()
        n = plo[0] - phi[0] - (phi[1] == 0)
        if n == 1:
            out.append(one_root(lo, plo, hi, phi))
        elif n > 1:
            mid = (lo + hi) / 2
            pmid = point(mid)
            if pmid[1] == 0:
                out.append((mid, mid))
            stack.append((lo, plo, mid, pmid))
            stack.append((mid, pmid, hi, phi))
    return sorted(out)


def _check_against_reference(g: Poly):
    """isolate_real_roots(g) has the reference's rational roots, and each
    of its boxes holds the one root that the reference's box holds."""
    got, ref = isolate_real_roots(g), _bisection_reference(g)
    assert [lo for lo, hi in got if lo == hi] == [
        lo for lo, hi in ref if lo == hi]
    assert len(got) == len(ref)
    for (lo, hi), (rlo, rhi) in zip(got, ref):
        if lo != hi:
            assert lo < hi and g.eval_q(lo) != 0 and g.eval_q(hi) != 0
            assert sturm_count(g, lo, hi) == 1
            assert sturm_count(g, max(lo, rlo), min(hi, rhi)) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-BIG, BIG), st.integers(1, BIG)),
                max_size=5),
       st.lists(st.tuples(st.booleans(), st.integers(1, 50)), max_size=2))
@example([(0, 1), (1, 3), (-2, 7), (1, 2)], [(True, 2), (False, 1)])
@example([(BIG, BIG - 1), (BIG - 1, BIG - 2)], [(True, 3)])
def test_isolation_matches_the_bisection_reference(linear, quadratic):
    p = Poly.const(1)
    for a, b in linear:
        p = p * P(-a, b)
    for real, c in quadratic:
        p = p * P(-c if real else c, 0, 1)
    if p.degree >= 1:
        _check_against_reference(p // gcd(p, p.deriv()))


def test_isolation_matches_the_reference_on_plain_pairs():
    """Every squarefree part of r, q and r*q over the first 10 pairs of
    acceptance criterion 5: the worked pair and 9 generated ones."""
    pairs = [(NevFun.of(Fraction(-3, 5), 0, [(2, 1)]),
              RatFun.from_points([2, 2, 0], [1, 1, 3]))]
    rng = random.Random(1005)
    while len(pairs) < 10:
        q, r = random_plain_pair(rng)
        _zs, ps = enumerate_zeros_poles(r)
        if ps and q.kac_membership(ps[0]):
            pairs.append((q, r))
    parts = {}
    for q, r in pairs:
        for f in (r, q.to_ratfun(), r * q.to_ratfun()):
            for p in (f.num, f.den):
                parts.update(dict.fromkeys(
                    g for g, _m in squarefree_decomposition(p)))
    assert len(parts) > 30
    for g in parts:
        _check_against_reference(g)


@pytest.mark.parametrize("p", [P(-2, 0, 1) ** 2,
                               P(-1, 1) ** 2 * P(-2, 0, 1),
                               P(1, 0, 1) ** 2 * P(-3, 0, 1)])
def test_isolation_rejects_a_polynomial_that_is_not_squarefree(p):
    # (z^2-2)^2 and (z^2+1)^2 (z^2-3): a square factor without rational
    # roots; (z-1)^2 (z^2-2): a double rational root, a double root mod
    # every prime.  The gcd of p with its derivative finds either before
    # any root search
    with pytest.raises(InvalidInput, match="not squarefree"):
        isolate_real_roots(p)


def _big_monic(seed: int, degree: int, digits: int) -> Poly:
    rng = random.Random(seed)
    return Poly([rng.randrange(10 ** (digits - 1), 10 ** digits)
                 for _ in range(degree)] + [1])


@pytest.mark.parametrize("p", [P(-1, 1) ** 2 * P(-2, 0, 1),
                               P(-1, 1) ** 2 * _big_monic(0, 8, 60)])
def test_isolation_refuses_a_square_before_any_root_search(monkeypatch, p):
    """A double rational root is refused by one gcd with the derivative,
    before the rational split, however large the coefficients."""
    def no_split(*args):
        raise AssertionError("searched the roots of a polynomial that is "
                             "not squarefree")
    monkeypatch.setattr(nevkit.poly, "_rational_split", no_split)
    with pytest.raises(InvalidInput, match="not squarefree"):
        isolate_real_roots(p)


SD_PRIMES = (2, 3, 5, 7, 11, 13)


def _swinnerton_dyer(n: int) -> Poly:
    """The product of z - (+-sqrt 2 +- sqrt 3 ... +- sqrt p_n), in integers:
    P <- U^2 - p V^2 where P(z + sqrt p) = U + sqrt(p) V, from P = z."""
    coeffs = [0, 1]
    for p in SD_PRIMES[:n]:
        u, v = [0] * len(coeffs), [0] * len(coeffs)
        for i, c in enumerate(coeffs):
            for j in range(i + 1):      # C(i, j) z^(i-j) sqrt(p)^j
                t = c * math.comb(i, j) * p ** (j // 2)
                (v if j % 2 else u)[i - j] += t
        coeffs = (Poly(u) * Poly(u) - Poly(v) * Poly(v) * p).n
    return Poly(coeffs)


def _recipe_poles(n: int) -> list[Fraction]:
    """A rational (limit_denominator(10**6)) between each two adjacent real
    roots of the Swinnerton-Dyer polynomial of the first n primes."""
    roots = sorted(sum(s * math.sqrt(p) for s, p in zip(signs, SD_PRIMES))
                   for signs in itertools.product((-1, 1), repeat=n))
    return [Fraction((a + b) / 2).limit_denominator(10**6)
            for a, b in zip(roots, roots[1:])]


def _counted(monkeypatch, *names) -> dict:
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapped(*args, _name=name, _f=getattr(nevkit.poly, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(nevkit.poly, name, wrapped)
    return calls


@pytest.mark.parametrize("n, tests", [(5, 31), (6, 63)])
def test_recipe_rational_roots_take_no_bisection(monkeypatch, n, tests):
    """D, the product of z - m over the 2^n - 1 rationals between the real
    roots of the Swinnerton-Dyer polynomial: every root is lifted p-adically
    and tested once by Horner, and no sign is taken."""
    poles = _recipe_poles(n)
    d = Poly.from_roots(poles)
    calls = _counted(monkeypatch, "_sign_at", "_horner")
    assert isolate_real_roots(d) == [(m, m) for m in sorted(poles)]
    assert calls == {"_sign_at": 0, "_horner": tests}


def test_recipe_poles_interlace_the_numerator_roots():
    """N = SD_5 (z^2 + 1) has 32 irrational real roots and no rational one,
    and one pole of D lies between each two adjacent ones."""
    sd = _swinnerton_dyer(5)
    boxes = isolate_real_roots(sd * P(1, 0, 1))
    assert len(boxes) == 32 and all(lo < hi for lo, hi in boxes)
    ends = [NEG_INF, *_recipe_poles(5), INF]
    assert [count_real_roots(sd, lo, hi)
            for lo, hi in zip(ends, ends[1:])] == [1] * 32


def test_neighbouring_rational_roots_take_no_bisection(monkeypatch):
    calls = _counted(monkeypatch, "_sign_at")
    assert isolate_real_roots(P(-1, 1000) * P(-1, 1001)) == [
        (Fraction(1, 1001),) * 2, (Fraction(1, 1000),) * 2]
    assert calls == {"_sign_at": 0}


def test_residual_without_real_roots_is_one_block(monkeypatch):
    def no_factoring(*args):
        raise AssertionError("factored a residual that is not mixed")
    monkeypatch.setattr(nevkit.poly, "_factor_squarefree", no_factoring)
    quartic = P(2, 0, 3, 0, 1)                   # (z^2 + 1)(z^2 + 2)
    f = RatFun(quartic * P(-3, 1) * P(-1, 0, 1) ** 2, Poly.const(1))
    assert zero_blocks(f) == [(quartic, 2, 1, 0)]
    assert f.real_zeros == [(-1, 2), (1, 2), (3, 1)]
    w = canonical_pair(RatFun(quartic, Poly.const(1)))
    assert w.phi == RatFun(quartic, Poly.const(1)) and w.kappa == 2
    assert w.q0.to_ratfun() == RatFun.const(1)
    # a residual with only real roots: RealAlg points on the residual
    g = P(-2, 0, 1) * P(-3, 0, 1) * P(-5, 1)
    points, blocks = real_root_structure(g)
    assert blocks == () and len(points) == 5
    assert {x.p for x, _m in points
            if not isinstance(x, Fraction)} == {P(6, 0, -5, 0, 1)}


def test_sign_of_analyses_q_once(monkeypatch):
    seen = _record_analyses(monkeypatch)
    q = P(-1, 0, 0, 1)                           # z^3 - 1
    points = fresh_roots(P(-2, 0, 1)) + fresh_roots(P(-3, 0, 1))
    signs, counts = [], []
    for x in points:
        signs.append(x.sign_of(q))
        counts.append(len(seen))
    assert signs == [-1, 1, -1, 1]
    # each query analyses q once, with the constant denominator of its
    # table: no table outlives its RatFun
    assert counts == [2, 4, 6, 8]


SIGN_POINTS = [(P(-2, 0, 1), Fraction(1), Fraction(3, 2)),
               (P(-2, 0, 1), Fraction(-2), Fraction(-1)),
               (P(-3, 0, 1), Fraction(1), Fraction(2)),
               (P(-2, 0, 1) * P(-3, 0, 1), Fraction(3, 2), Fraction(2)),
               (P(-2, 0, 0, 1), Fraction(1), Fraction(2)),
               (P(-1, -1, 1), Fraction(-1), Fraction(0))]
SIGN_FACTORS = [P(-2, 0, 1), P(-3, 0, 1), P(-2, 0, 0, 1), P(-1, -1, 1),
                P(1, 0, 1), P(-2, 1), P(Fraction(-7, 5), 1), P(-5, 1)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SIGN_FACTORS), st.integers(1, 3)),
                max_size=3),
       st.lists(rationals(4, 3), max_size=2), rationals(3, 2))
@example([(P(-2, 1), 1)], [], 1)                # root 2 outside the box
@example([(P(Fraction(-7, 5), 1), 1)], [], 1)   # 7/5 < sqrt(2)
@example([(P(-2, 0, 1), 1), (P(-5, 1), 1)], [], 7)   # a shared root
@example([], [], 0)                             # q = 0
def test_sign_of_matches_the_sturm_reference(factors, roots, lead):
    """The sign rule on q's table gives the Sturm sign at irrational points
    of several polynomials, at roots shared with q too."""
    q = Poly.from_roots(roots, lead)
    for f, m in factors:
        q = q * f ** m
    for p, lo, hi in SIGN_POINTS:
        x, ref = RealAlg(p, lo, hi), RealAlg(p, lo, hi)
        assert x.sign_of(q) == sturm_sign_of(ref, q)
