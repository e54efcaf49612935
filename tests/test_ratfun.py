from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rationals, ratfuns, small_polys
import nevkit.poly
import nevkit.ratfun
from nevkit.errors import DegreeNotOne, IdenticallyZeroDenominator, PoleHit
from nevkit.poly import (Poly, RealAlg, point_cmp, rational_between,
                         rational_outside)
from nevkit.qmath import INF, NEG_INF, QC
from nevkit.ratfun import RatFun, reduce, strictly_between


def factored_ratfuns():
    """gamma * prod (z - a)^k (z^2 - n)^j over the same for the poles: real
    rational and irrational points of mixed orders, and conjugate pairs."""
    linear = st.tuples(rationals(6, 3), st.integers(1, 3)).map(
        lambda am: Poly([-am[0], 1]) ** am[1])
    quadratic = st.tuples(st.sampled_from([-1, 2, 3, 5]),
                          st.integers(1, 2)).map(
        lambda nm: Poly([-nm[0], 0, 1]) ** nm[1])
    side = st.lists(st.one_of(linear, quadratic), max_size=3).map(_product)
    return st.builds(lambda g, n, d: RatFun(n * g, d),
                     rationals(5, 3).filter(bool), side, side)


def _product(polys):
    out = Poly.const(1)
    for p in polys:
        out = out * p
    return out


def _sample_inside(r: RatFun, a, b) -> Fraction:
    """A rational point strictly inside (a, b) that is neither a zero nor a
    pole of r: it lies below the first critical point above a, or below b
    if that comes first."""
    above = [p for p, _m, _k in r.critical_points() if point_cmp(p, a) > 0]
    first = above[0] if above else None
    if b is not INF and (first is None or point_cmp(first, b) >= 0):
        first = b
    if a is NEG_INF:
        return Fraction(0) if first is None else rational_outside(first)[0]
    if first is None:
        return rational_outside(a)[1]
    return rational_between(a, first)


def test_reduce_cancels_common_factor():
    r = reduce(Poly.from_roots([1, 2]), Poly.from_roots([2]))
    assert r.num == Poly.from_roots([1])
    assert r.den == Poly.const(1)
    assert [(rec.point, rec.mult) for rec in r.zeros()] == [(Fraction(1), 1)]
    assert [(rec.point, rec.mult) for rec in r.poles()] == [(INF, 1)]


def test_reduce_keeps_data():
    r = reduce(Poly.from_roots([1]), Poly.from_roots([2]))
    assert [(rec.point, rec.mult) for rec in r.zeros()] == [(Fraction(1), 1)]
    assert [(rec.point, rec.mult) for rec in r.poles()] == [(Fraction(2), 1)]
    assert r.gamma == 1


def test_reduce_multiplicities():
    r = RatFun.from_points([2, 2, 0], [1, 1, 3])
    assert [(rec.point, rec.mult) for rec in r.real_zeros] == \
        [(Fraction(0), 1), (Fraction(2), 2)]
    assert [(rec.point, rec.mult) for rec in r.real_poles] == \
        [(Fraction(1), 2), (Fraction(3), 1)]


def test_zero_denominator():
    with pytest.raises(IdenticallyZeroDenominator):
        reduce(Poly.const(1), Poly())


@settings(max_examples=50, deadline=None)
@given(ratfuns(3), small_polys(2, nonzero=True))
def test_reduce_common_multiple_is_identity(r, extra):
    assert reduce(r.num * extra, r.den * extra) == r


def test_sign_on_interval_examples():
    r = RatFun.from_points([1], [2])
    segs = r.sign_on_interval().segments
    assert [(s.lo, s.hi, s.sign) for s in segs] == [
        (NEG_INF, Fraction(1), 1), (Fraction(1), Fraction(2), -1),
        (Fraction(2), INF, 1)]

    sq = RatFun.from_points([1, 1], [])
    rep = sq.sign_on_interval()
    assert not rep.negative_segments()
    assert rep.segments[0].touches == ((Fraction(1), "zero"),)

    r3 = RatFun.from_points([2, 2, 0], [1, 1, 3])
    neg = r3.sign_on_interval().negative_segments()
    assert len(neg) == 1
    seg = neg[0]
    assert (seg.lo, seg.hi) == (Fraction(0), Fraction(3))
    assert set(seg.touches) == {(Fraction(1), "pole"), (Fraction(2), "zero")}


@settings(max_examples=40, deadline=None)
@given(ratfuns(4))
def test_sign_report_matches_pointwise(r):
    assume(not r.num.is_zero)
    rep = r.sign_on_interval()
    for seg in rep.segments:
        x = _sample_inside(r, seg.lo, seg.hi)
        assert r.sign_at(x) == seg.sign


@settings(max_examples=60, deadline=None)
@given(factored_ratfuns(), rationals(6, 4), rationals(6, 4))
def test_sign_on_interval_with_finite_ends(r, lo, hi):
    assume(lo < hi)
    crit = [it for it in r.critical_points()
            if strictly_between(it[0], lo, hi)]
    segs = r.sign_on_interval(lo, hi).segments
    bounds = [lo] + [p for p, m, _k in crit if m % 2] + [hi]
    assert [(seg.lo, seg.hi) for seg in segs] == list(zip(bounds,
                                                          bounds[1:]))
    for seg in segs:
        assert list(seg.touches) == [
            (p, k) for p, m, k in crit
            if m % 2 == 0 and strictly_between(p, seg.lo, seg.hi)]
        x = _sample_inside(r, seg.lo, seg.hi)
        assert strictly_between(x, seg.lo, seg.hi)
        assert r.ord_at(x) == 0 and r.sign_at(x) == seg.sign


def test_signs_read_the_table_not_a_sample(monkeypatch):
    """Signs at irrational points and on segments come from the critical
    table: no rational is drawn and no Sturm sign is taken."""
    calls = []

    def counted(name, fn):
        def wrapper(*a):
            calls.append(name)
            return fn(*a)
        return wrapper
    for mod in (nevkit.poly, nevkit.ratfun):
        for name in ("rational_between", "rational_outside"):
            monkeypatch.setattr(mod, name, counted(
                name, getattr(nevkit.poly, name)), raising=False)
    monkeypatch.setattr(RealAlg, "sign_of",
                        counted("sign_of", RealAlg.sign_of))
    s2 = Poly([-2, 0, 1])
    r = RatFun(s2 * Poly([-1, 1]), Poly([-5, 1]))
    segs = r.sign_on_interval().segments
    assert [seg.sign for seg in segs] == [1, -1, 1, -1, 1]
    for rec in r.real_zeros:
        assert r.sign_at(rec.point) == 0
    twin = RealAlg(s2, Fraction(1), Fraction(2))
    sqrt3 = RealAlg(Poly([-3, 0, 1]), Fraction(1), Fraction(2))
    assert r.sign_at(twin) == 0
    assert r.sign_at(sqrt3) == -1
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(factored_ratfuns())
def test_sign_at_irrational_points_matches_sturm(r):
    """The parity sign at an irrational point agrees with the Sturm signs
    of numerator and denominator, and a pole raises."""
    points = [RealAlg(Poly([-n, 0, 1]), Fraction(lo), Fraction(lo + 1))
              for n in (2, 3) for lo in (-2, 1)]
    for p, _m, _k in r.critical_points():
        if isinstance(p, RealAlg):
            points += [p, RealAlg(p.p, *p.box)]
    for p in points:
        den = p.sign_of(r.den)
        if den == 0:
            with pytest.raises(PoleHit):
                r.sign_at(p)
        else:
            assert r.sign_at(p) == p.sign_of(r.num) * den


def test_compose_mobius_examples():
    # identity-style: z composed with 1/lambda
    r = RatFun.x()
    tau = RatFun(Poly.const(1), Poly([0, 1]))
    assert r.compose_mobius(tau) == tau

    gamma, a, b = Fraction(2), Fraction(1), Fraction(3)
    rr = RatFun.from_points([a], [b], gamma)
    tau2 = RatFun(Poly([-1, (a + b) / 2]), Poly([0, 1]))
    lhs = rr.compose_mobius(tau2)
    rhs = RatFun.from_points([2 / (b - a)], [2 / (a - b)], -gamma)
    assert lhs == rhs

    r2 = RatFun.from_points([1, 2], [3])
    assert r2.compose_mobius(tau2).degree == r2.degree * tau2.degree


def test_compose_requires_degree_one():
    with pytest.raises(DegreeNotOne):
        RatFun.x().compose_mobius(RatFun.from_points([1, 2], []))


@settings(max_examples=40, deadline=None)
@given(ratfuns(3))
def test_compose_roundtrip(r):
    tau = RatFun(Poly([1, 2]), Poly([3, 1]))   # (2z+1)/(z+3)
    back = r.compose_mobius(tau).compose_mobius(tau.mobius_inverse())
    assert back == r


def test_eval_exact_and_pole():
    r = RatFun.from_points([1], [2])
    assert r.eval_q(0) == Fraction(1, 2)
    with pytest.raises(PoleHit):
        r.eval_q(2)
    z = QC.of(0, 1)
    val = r.eval_qc(z)
    assert complex(val) == pytest.approx(complex(-1 + 1j) / (-2 + 1j))


def test_ord_and_laurent():
    r = RatFun.from_points([2, 2, 0], [1, 1, 3])
    assert r.ord_at(Fraction(2)) == 2
    assert r.ord_at(Fraction(1)) == -2
    assert r.ord_at(Fraction(7)) == 0
    assert r.ord_at(INF) == 0
    # near 0: r ~ z * (0-2)^2/((0-1)^2 (0-3)) = -4/3 z
    assert r.laurent_lead(Fraction(0)) == Fraction(-4, 3)
    assert r.laurent_lead_sign(Fraction(0)) == -1


def _eta_count(r: RatFun, c) -> int:
    """Number of odd-order finite real zeros and poles of r strictly
    greater than the real point c: the reference for the parity rule."""
    return sum(m % 2 for p, m, _k in r.critical_points()
               if point_cmp(p, c) > 0)


def test_irrational_roots_and_signs():
    # (z^2-2)/(z-5): zeros at +-sqrt(2), pole at 5
    r = RatFun(Poly([-2, 0, 1]), Poly([-5, 1]))
    zs = r.real_zeros
    assert len(zs) == 2 and all(rec.mult == 1 for rec in zs)
    assert _eta_count(r, 0) == 2    # sqrt(2) and the pole 5
    segs = r.sign_on_interval().segments
    assert [seg.sign for seg in segs] == [-1, 1, -1, 1]


def test_root_order_is_exact():
    # c lies below sqrt(2) by less than 10^-50, far inside the isolating
    # box of sqrt(2); the order must not depend on the box
    c = Fraction(isqrt(2 * 10**100), 10**50)
    r = RatFun(Poly([-2, 0, 1]) * Poly([-c, 1]), Poly([-5, 1]))
    zs = r.real_zeros
    assert [rec.is_rational for rec in zs] == [False, True, False]
    assert zs[1].point == c
    assert zs[2].point.cmp_rat(c) > 0
    crit = r.critical_points()
    assert [p for p, _m, _k in crit[:3]] == [zs[0].point, c, zs[2].point]
    assert crit[3] == (Fraction(5), 1, "pole")


@settings(max_examples=60, deadline=None)
@given(factored_ratfuns(), st.lists(rationals(8, 4), max_size=4))
def test_ord_at_matches_root_multiplicity(r, extra):
    crit = r.critical_points()
    rational = [p for p, _m, _k in crit if not isinstance(p, RealAlg)]
    for p in rational + extra:
        assert r.ord_at(p) == (r.num.root_multiplicity(p)
                               - r.den.root_multiplicity(p))
    for recs, sign in ((r.real_zeros, 1), (r.real_poles, -1)):
        for rec in recs:
            assert r.ord_at(rec.point) == sign * rec.mult
            if isinstance(rec.point, RealAlg):
                # another number object of the same value
                twin = RealAlg(rec.point.p, *rec.point.box)
                assert r.ord_at(twin) == sign * rec.mult
    sqrt11 = RealAlg(Poly([-11, 0, 1]), Fraction(3), Fraction(4))
    assert r.ord_at(sqrt11) == 0


def test_critical_points_are_sorted_once(monkeypatch):
    calls = []
    point_cmp_ = nevkit.ratfun.point_cmp

    def counted(a, b):
        calls.append(1)
        return point_cmp_(a, b)

    monkeypatch.setattr(nevkit.ratfun, "point_cmp", counted)
    r = RatFun(Poly([-2, 0, 1]) * Poly.from_roots([1, 1, 3]),
               Poly.from_roots([0, 2]))
    crit = r.critical_points()
    assert isinstance(crit, tuple) and len(crit) == 6 and calls
    calls.clear()
    assert r.critical_points() is crit
    assert calls == []
    # a local query is a binary search of the table, not a re-sort
    assert r.laurent_lead_sign(Fraction(1, 2)) == -1
    assert 0 < len(calls) <= 3


def _sign_just_right(r: RatFun, p) -> int:
    """Sign of r at a rational point right of p with no zero or pole of r
    in between: the sign of the leading Laurent coefficient at p."""
    above = [c for c, _m, _k in r.critical_points() if point_cmp(c, p) > 0]
    hi = above[0] if above else rational_outside(p)[1]
    return r.sign_at(rational_between(p, hi))


def test_laurent_sign_is_eta_rule_at_irrational_points():
    s2, s3 = Poly([-2, 0, 1]), Poly([-3, 0, 1])
    rs = [RatFun(s2 ** 2 * Poly([0, 1]), Poly.const(1)),
          RatFun(s2 * Poly([-1, 1]) ** 3, s3 * Poly([4, 1])),
          RatFun(-s3 ** 3, s2 ** 2 * Poly([1, 0, 1])),
          RatFun(Poly([-1, -1, 1]) * Poly([5, 1]), s2 * Poly([-7, 2]))]
    sqrt3 = RatFun(s3, Poly.const(1)).real_zeros[1].point
    for r in rs:
        points = [c for c, _m, _k in r.critical_points()] + [sqrt3]
        assert any(isinstance(p, RealAlg) for p in points)
        for p in points:
            sign = r.laurent_lead_sign(p)
            assert sign == _sign_just_right(r, p)
            assert sign == (1 if r.gamma > 0 else -1) * \
                (-1) ** _eta_count(r, p)
            if not isinstance(p, RealAlg):
                v = r.laurent_lead(p)
                assert sign == (v > 0) - (v < 0)
        assert r.laurent_lead_sign(INF) == (1 if r.gamma > 0 else -1)
    assert RatFun.const(0).laurent_lead_sign(Fraction(1)) == 0
    assert RatFun.const(0).laurent_lead_sign(INF) == 0
