import cmath
from fractions import Fraction
from math import isinf, isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (nevfuns, rationals, ratfuns, small_polys,
                      sturm_sign_of)
import nevkit.poly
import nevkit.ratfun
from nevkit.errors import (DegreeNotOne, IdenticallyZeroDenominator,
                           InvalidInput, PoleHit)
from nevkit.poly import (Poly, RealAlg, point_cmp, rational_between,
                         rational_outside)
from nevkit.nevfun import NevFun
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
    above = [p for p, _e in r.critical_points() if point_cmp(p, a) > 0]
    first = above[0] if above else None
    if b is not INF and (first is None or point_cmp(first, b) >= 0):
        first = b
    if a is NEG_INF:
        return Fraction(0) if first is None else rational_outside(first)[0]
    if first is None:
        return rational_outside(a)[1]
    return rational_between(a, first)


def _value_sign(r: RatFun, x: Fraction) -> int:
    """The sign of r's exact value at a rational x, by evaluation; raises
    PoleHit at a pole."""
    v = r.eval_q(x)
    return (v > 0) - (v < 0)


def test_reduce_cancels_common_factor():
    r = reduce(Poly.from_roots([1, 2]), Poly.from_roots([2]))
    assert r.num == Poly.from_roots([1])
    assert r.den == Poly.const(1)
    assert r.zeros() == [(Fraction(1), 1)]
    assert r.poles() == [(INF, 1)]


def test_reduce_keeps_data():
    r = reduce(Poly.from_roots([1]), Poly.from_roots([2]))
    assert r.zeros() == [(Fraction(1), 1)]
    assert r.poles() == [(Fraction(2), 1)]
    assert r.gamma == 1


def test_reduce_multiplicities():
    r = RatFun.from_points([2, 2, 0], [1, 1, 3])
    assert r.real_zeros == [(Fraction(0), 1), (Fraction(2), 2)]
    assert r.real_poles == [(Fraction(1), 2), (Fraction(3), 1)]


def test_subtraction_takes_a_ratfun_or_a_constant():
    z = RatFun.x()
    assert z - 1 == RatFun.from_points([1], [])
    assert (z - z).is_zero


def test_zero_denominator():
    with pytest.raises(IdenticallyZeroDenominator):
        reduce(Poly.const(1), Poly())


@settings(max_examples=50, deadline=None)
@given(ratfuns(3), small_polys(2, nonzero=True))
def test_reduce_common_multiple_is_identity(r, extra):
    assert reduce(r.num * extra, r.den * extra) == r


def test_sign_on_interval_examples():
    r = RatFun.from_points([1], [2])
    assert r.sign_on_interval() == (
        (NEG_INF, Fraction(1), 1), (Fraction(1), Fraction(2), -1),
        (Fraction(2), INF, 1))
    # even-order points separate no segments
    assert RatFun.from_points([1, 1], []).sign_on_interval() == (
        (NEG_INF, INF, 1),)
    r3 = RatFun.from_points([2, 2, 0], [1, 1, 3])
    assert r3.sign_on_interval() == (
        (NEG_INF, Fraction(0), 1), (Fraction(0), Fraction(3), -1),
        (Fraction(3), INF, 1))


@settings(max_examples=100, deadline=None)
@given(st.one_of(ratfuns(4), factored_ratfuns()))
def test_sign_report_matches_pointwise(r):
    """The segments run from NEG_INF to INF, bounded by the odd-order
    points in order, and r has the segment's sign at a rational inside."""
    assume(not r.is_zero)
    segs = r.sign_on_interval()
    bounds = [NEG_INF] + [p for p, e in r.critical_points() if e % 2] + [INF]
    assert [(lo, hi) for lo, hi, _s in segs] == list(zip(bounds, bounds[1:]))
    for lo, hi, sign in segs:
        x = _sample_inside(r, lo, hi)
        assert strictly_between(x, lo, hi)
        assert r.ord_at(x) == 0 and _value_sign(r, x) == sign


@settings(max_examples=60, deadline=None)
@given(factored_ratfuns(), rationals(6, 4), rationals(6, 4))
def test_sign_on_interval_with_finite_ends(r, lo, hi):
    """Cut to a window [lo, hi] with finite ends, the segments are bounded
    by lo, the odd-order points strictly inside and hi; across an
    even-order point inside a piece r keeps the piece's sign."""
    assume(lo < hi)
    crit = [it for it in r.critical_points()
            if strictly_between(it[0], lo, hi)]
    pieces = [(a if point_cmp(a, lo) > 0 else lo,
               b if point_cmp(b, hi) < 0 else hi, sign)
              for a, b, sign in r.sign_on_interval()
              if point_cmp(a, hi) < 0 and point_cmp(b, lo) > 0]
    bounds = [lo] + [p for p, e in crit if e % 2] + [hi]
    assert [(a, b) for a, b, _s in pieces] == list(zip(bounds, bounds[1:]))
    for a, b, sign in pieces:
        cuts = [a] + [p for p, _e in crit if strictly_between(p, a, b)] + [b]
        for c, d in zip(cuts, cuts[1:]):
            x = _sample_inside(r, c, d)
            assert strictly_between(x, c, d)
            assert r.ord_at(x) == 0 and _value_sign(r, x) == sign


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
    assert [sgn for _lo, _hi, sgn in r.sign_on_interval()] == [1, -1, 1, -1, 1]
    for x, _m in r.real_zeros:
        assert r.sign_at(x) == 0
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
    for p, _e in r.critical_points():
        if isinstance(p, RealAlg):
            points += [p, RealAlg(p.p, *p.box)]
    for p in points:
        den = sturm_sign_of(p, r.den)
        if den == 0:
            with pytest.raises(PoleHit):
                r.sign_at(p)
        else:
            assert r.sign_at(p) == sturm_sign_of(p, r.num) * den


@settings(max_examples=60, deadline=None)
@given(factored_ratfuns(), rationals(6, 4))
def test_sign_at_rationals_matches_evaluation(r, x):
    """The table's sign at a rational point is the sign of the value, and a
    pole raises; the rational zeros and poles of r are among the points."""
    points = [x] + [p for p, _e in r.critical_points()
                    if isinstance(p, Fraction)]
    for p in points:
        if r.den.eval_q(p) == 0:
            with pytest.raises(PoleHit):
                r.sign_at(p)
        else:
            assert r.sign_at(p) == _value_sign(r, p)


def test_sign_at_infinity_and_poles():
    f = RatFun.from_points([1], [2], -3)        # -3 at both ends
    assert f.sign_at(INF) == f.sign_at(NEG_INF) == -1
    g = RatFun.from_points([1, 2], [0])         # a pole at infinity too
    for p in (INF, NEG_INF, Fraction(0)):
        with pytest.raises(PoleHit):
            g.sign_at(p)
    assert g.inverse().sign_at(INF) == g.inverse().sign_at(NEG_INF) == 0
    h = RatFun(Poly([-2, 0, 1]), Poly([-3, 0, 1]))
    sqrt3 = h.real_poles[1][0]
    with pytest.raises(PoleHit):
        h.sign_at(sqrt3)
    assert h.sign_at(INF) == 1 and h.sign_at(Fraction(0)) == 1


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
    tinv = RatFun(Poly([-1, 3]), Poly([2, -1]))  # (3z-1)/(2-z)
    back = r.compose_mobius(tau).compose_mobius(tinv)
    assert back == r


def test_eval_exact_and_pole():
    r = RatFun.from_points([1], [2])
    assert r.eval_q(0) == Fraction(1, 2)
    with pytest.raises(PoleHit):
        r.eval_q(2)
    z = QC.of(0, 1)
    val = r.eval_qc(z)
    assert complex(val) == pytest.approx(complex(-1 + 1j) / (-2 + 1j))


@settings(max_examples=200, deadline=None)
@given(ratfuns(6), st.lists(st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False), max_size=8),
       st.lists(st.floats(-1e3, 1e3), max_size=4), nevfuns())
@example(r=RatFun(Poly(), Poly.const(1)), zs=[1j, -2.5], xs=[0.0],
         q=NevFun.of(0, 0, []))
@example(r=RatFun.from_points([0, 1], [Fraction(-1, 3), 2]), zs=[],
         xs=[-1e3, 2.0], q=NevFun.of(0, 1, [(0, 1)]))
@example(r=RatFun.const(1), zs=[5e-324 + 0j], xs=[],
         q=NevFun.of(0, 0, [(0, 1)]))
@example(r=RatFun.const(1), zs=[5e-324j], xs=[],
         q=NevFun.of(0, 0, [(0, 1)]))
def test_eval_np_is_numpys_polyval_ratio(r, zs, xs, q):
    """Poly.eval_np runs numpy's polyval recurrence and RatFun.eval_np
    divides two of them: the same bits at complex and real points, the
    origin and the rational poles included.  At a complex scalar, Poly,
    RatFun and NevFun call their eval_np, which agrees with a one-point
    array up to rounding: numpy's array loops fuse multiply-adds and divide
    by a reciprocal, CPython's complex arithmetic does neither.  Where the
    exact value overflows, as -1/z at z = 5e-324 or 5e-324j, the scalar is
    -inf+0j or infj, but numpy's reciprocal division leaves the array's
    other part undefined (0 * inf = nan): a non-finite scalar is compared
    by its infinite parts only."""
    polyval = np.polynomial.polynomial.polyval
    nc, dc = r.num.float_coeffs() or [0.0], r.den.float_coeffs()
    xs = np.array(xs + [0.0] + [float(x) for x, _m in r.real_poles
                                if isinstance(x, Fraction)])
    with np.errstate(all="ignore"):
        for z in (np.array(zs + list(xs), dtype=complex), xs):
            num, den = polyval(z, nc), polyval(z, dc)
            assert np.array_equal(r.num.eval_np(z), num, equal_nan=True)
            assert np.array_equal(r.den.eval_np(z), den, equal_nan=True)
            assert np.array_equal(r.eval_np(z), num / den, equal_nan=True)

    def close(scalar, one_point, scale):
        got = one_point[0]
        if cmath.isfinite(scalar):
            assert abs(scalar - got) <= 1e-13 * scale
        for a, b in ((scalar.real, got.real), (scalar.imag, got.imag)):
            assert b == a or not isinf(a)

    for z in map(complex, zs):
        one = np.array([z])
        for p in (r.num, r.den):
            assert p(z) == p.eval_np(z)
            close(p(z), p.eval_np(one),
                  sum(abs(float(c)) * abs(z) ** i for i, c in enumerate(p.c)))
        if r.den(z) != 0:
            assert r(z) == r.eval_np(z) == r.num(z) / r.den(z)
        terms = [abs(float(w)) * (1 / abs(float(t) - z) + abs(float(t)))
                 for t, w in q.sigma if float(t) != z]
        if len(terms) == len(q.sigma):
            assert q(z) == q.evaluate(z) == q.eval_np(z)
            close(q(z), q.eval_np(one),
                  abs(float(q.alpha)) + float(q.beta) * abs(z) + sum(terms))


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
    return sum(e % 2 for p, e in r.critical_points()
               if point_cmp(p, c) > 0)


def test_irrational_roots_and_signs():
    # (z^2-2)/(z-5): zeros at +-sqrt(2), pole at 5
    r = RatFun(Poly([-2, 0, 1]), Poly([-5, 1]))
    zs = r.real_zeros
    assert len(zs) == 2 and all(m == 1 for _x, m in zs)
    assert _eta_count(r, 0) == 2    # sqrt(2) and the pole 5
    assert [sgn for _lo, _hi, sgn in r.sign_on_interval()] == [-1, 1, -1, 1]


def test_root_order_is_exact():
    # c lies below sqrt(2) by less than 10^-50, far inside the isolating
    # box of sqrt(2); the order must not depend on the box
    c = Fraction(isqrt(2 * 10**100), 10**50)
    r = RatFun(Poly([-2, 0, 1]) * Poly([-c, 1]), Poly([-5, 1]))
    zs = r.real_zeros
    assert [isinstance(x, Fraction) for x, _m in zs] == [False, True, False]
    assert zs[1][0] == c
    assert zs[2][0].cmp_rat(c) > 0
    crit = r.critical_points()
    assert [p for p, _e in crit[:3]] == [zs[0][0], c, zs[2][0]]
    assert crit[3] == (Fraction(5), -1)


def _root_multiplicity(p: Poly, r) -> int:
    """Multiplicity of the rational r as a root of p, by trial division."""
    m, lin = 0, Poly([-r, 1])
    while not p.is_zero and p.eval_q(r) == 0:
        p, m = p // lin, m + 1
    return m


@settings(max_examples=60, deadline=None)
@given(factored_ratfuns(), st.lists(rationals(8, 4), max_size=4))
def test_ord_at_matches_root_multiplicity(r, extra):
    crit = r.critical_points()
    rational = [p for p, _e in crit if not isinstance(p, RealAlg)]
    for p in rational + extra:
        assert r.ord_at(p) == (_root_multiplicity(r.num, p)
                               - _root_multiplicity(r.den, p))
    for recs, sign in ((r.real_zeros, 1), (r.real_poles, -1)):
        for x, m in recs:
            assert r.ord_at(x) == sign * m
            if isinstance(x, RealAlg):
                # another number object of the same value
                twin = RealAlg(x.p, *x.box)
                assert r.ord_at(twin) == sign * m
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


def test_sign_at_locates_a_real_point_once(monkeypatch):
    """At sqrt 5 on an 11-point table, one binary search of point_cmp:
    the order and the sign come off the same location."""
    r = RatFun(Poly.from_roots([-5, -3, -1, 1, 3]),
               Poly.from_roots([-4, -2, 0, 2, 4, 5]))
    sqrt5 = RealAlg(Poly([-5, 0, 1]), Fraction(2), Fraction(3))
    assert len(r.critical_points()) == 11
    calls = []
    point_cmp_ = nevkit.ratfun.point_cmp

    def counted(a, b):
        calls.append(1)
        return point_cmp_(a, b)

    monkeypatch.setattr(nevkit.ratfun, "point_cmp", counted)
    r._locate(sqrt5)
    one_search = len(calls)
    calls.clear()
    assert r.sign_at(sqrt5) == _value_sign(r, Fraction(9, 4)) == -1
    assert len(calls) == one_search <= 4
    assert r.sign_at(Fraction(3)) == 0 == r.sign_at(INF) == r.sign_at(NEG_INF)
    with pytest.raises(PoleHit):
        r.sign_at(Fraction(4))


def _sign_just_right(r: RatFun, p) -> int:
    """Sign of r at a rational point right of p with no zero or pole of r
    in between: the sign of the leading Laurent coefficient at p."""
    above = [c for c, _e in r.critical_points() if point_cmp(c, p) > 0]
    hi = above[0] if above else rational_outside(p)[1]
    return _value_sign(r, rational_between(p, hi))


def test_laurent_sign_is_eta_rule_at_irrational_points():
    s2, s3 = Poly([-2, 0, 1]), Poly([-3, 0, 1])
    rs = [RatFun(s2 ** 2 * Poly([0, 1]), Poly.const(1)),
          RatFun(s2 * Poly([-1, 1]) ** 3, s3 * Poly([4, 1])),
          RatFun(-s3 ** 3, s2 ** 2 * Poly([1, 0, 1])),
          RatFun(Poly([-1, -1, 1]) * Poly([5, 1]), s2 * Poly([-7, 2]))]
    sqrt3 = RatFun(s3, Poly.const(1)).real_zeros[1][0]
    for r in rs:
        points = [c for c, _e in r.critical_points()] + [sqrt3]
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


# -- tables that travel with the function ----------------------------------

POOL = [Fraction(x) for x in (-2, -1, 0, 1)] + [Fraction(1, 2),
                                                 Fraction(-3, 2)]


def pointed():
    """from_points over a small pool: points repeat, zeros and poles
    cancel, and two draws share points."""
    pts = st.lists(st.sampled_from(POOL), max_size=4)
    return st.builds(RatFun.from_points, pts, pts, rationals(5, 3).filter(bool))


def mobius_maps():
    """(a z + b)/(c z + d) with ad - bc != 0, affine ones included."""
    return st.tuples(*[st.integers(-3, 3)] * 4).filter(
        lambda t: t[0] * t[3] != t[1] * t[2]).map(
        lambda t: RatFun(Poly([t[1], t[0]]), Poly([t[3], t[2]])))


def _irrational_content(table) -> dict:
    """{multiplicity: (the product of the distinct polynomials that define
    its conjugate-pair blocks and irrational real roots, its pair count)}
    of a table (points, blocks) of one polynomial, the pairs being the
    roots of that product that are not its real points, halved.  Analysis
    gives one block a multiplicity, on the whole residual, real roots
    included; a merge may keep several."""
    points, blocks = table
    out = {}
    for m in {k for _h, k in blocks} | {k for _x, k in points}:
        roots = [x for x, k in points if isinstance(x, RealAlg) and k == m]
        poly = _product({h for h, k in blocks if k == m}
                        | {x.p for x in roots})
        out[m] = (poly, (poly.degree - len(roots)) // 2)
    return out


def _check_tables(f: RatFun, seeded: bool, grouped: bool = False):
    """f is reduced, its table was given (seeded) or is left to analysis,
    and either way its views and its points agree with real_root_structure
    of its polynomials by point_cmp and signed order; its blocks are those
    of the analysis, or with ``grouped`` have its irrational content per
    multiplicity."""
    assert (f._tab is not None) == seeded
    fresh = RatFun(f.num, f.den)
    assert fresh == f
    for got, p in (((f.real_zeros, f.complex_zero_blocks), f.num),
                   ((f.real_poles, f.complex_pole_blocks), f.den)):
        got = tuple(map(tuple, got))
        ref = nevkit.poly.real_root_structure(p)
        assert _irrational_content(got) == _irrational_content(ref) \
            if grouped else got[1] == ref[1]
        assert len(got[0]) == len(ref[0])
        for (a, m), (b, n) in zip(got[0], ref[0]):
            assert point_cmp(a, b) == 0 and m == n
    crit, ref = f.critical_points(), fresh.critical_points()
    assert len(crit) == len(ref)
    for (p, e), (x, n) in zip(crit, ref):
        assert point_cmp(p, x) == 0 and e == n


@settings(max_examples=100, deadline=None)
@given(pointed(), pointed())
def test_products_and_quotients_merge_tables(f, g):
    prod, quot = f * g, f / g
    assert prod == RatFun(f.num * g.num, f.den * g.den)
    assert quot == RatFun(f.num * g.den, f.den * g.num)
    for h in (prod, quot):
        _check_tables(h, seeded=True)
    for one, seeded in ((f / f, True), (f * f.inverse(), False)):
        _check_tables(one, seeded=seeded)      # full cancellation
        assert one == RatFun.const(1) and one.critical_points() == ()


@settings(max_examples=60, deadline=None)
@given(nevfuns(4), pointed())
def test_products_with_irrational_points(q, f):
    g = q.to_ratfun()
    assume(not g.is_zero)
    for h in (g * f, f / g, g / f):
        _check_tables(h, seeded=True)
    # g's irrational zeros are common to both operands of g * g
    irrational = any(isinstance(p, RealAlg) for p, _e
                     in g.critical_points())
    _check_tables(g * g, seeded=not irrational)


def test_common_irrational_point_falls_back():
    s2 = Poly([-2, 0, 1])
    f, g = RatFun(s2, Poly([-1, 1])), RatFun(Poly([-3, 1]), s2)
    f.critical_points(), g.critical_points()          # analysed
    for h in (f * g, f / g.inverse(), f * f, f / g):
        _check_tables(h, seeded=False)


def test_conjugate_pairs_merge_and_unbuilt_tables_fall_back(monkeypatch):
    """Conjugate-pair blocks travel with the tables through products and
    quotients; a table not built, as that of an inverse or a Moebius
    image, makes the merge fall back; and nothing is analysed just to
    merge."""
    pairs = RatFun(Poly([1, 0, 1]), Poly([-1, 1]))
    pairs.critical_points()
    g = RatFun.from_points([2], [3])
    analysed = []
    analysis = nevkit.ratfun.real_root_structure
    monkeypatch.setattr(nevkit.ratfun, "real_root_structure",
                        lambda p: analysed.append(p) or analysis(p))
    unbuilt = RatFun(Poly([-1, 1]), Poly([-5, 1]))
    merged = [pairs * g, g / pairs, pairs * pairs]
    fallen = [unbuilt * g, g / unbuilt, pairs / pairs.inverse(),
              unbuilt.compose_mobius(RatFun.x() + 1),
              pairs.compose_mobius(RatFun.x() + 1)]
    assert analysed == []           # no analysis just to merge
    for h in merged:
        _check_tables(h, seeded=True)
    for h in fallen:
        _check_tables(h, seeded=False)


# Monic factors, each with its irrational content: pairs only, pairs that
# share a root with another factor, pairs with an irrational real root,
# real irrational roots only, and rational roots.
BLOCK_POOL = [Poly([1, 0, 1]), Poly([2, 2, 1]),
              Poly([1, 0, 1]) * Poly([-3, 0, 1]), Poly([-2, 0, 0, 1]),
              Poly([-2, 0, 1]), Poly([0, 1]), Poly([-1, 1])]


def _pooled(exps: tuple, gamma) -> RatFun:
    """gamma times the pool's factors to the exponents, negative ones in
    the denominator, reduced and analysed."""
    f = RatFun(_product(h ** e for h, e in zip(BLOCK_POOL, exps) if e > 0),
               _product(h ** -e for h, e in zip(BLOCK_POOL, exps) if e < 0))
    f = f * gamma
    f.critical_points(), f.complex_zero_blocks, f.complex_pole_blocks
    return f


def _must_fall_back(f: RatFun, g: RatFun) -> bool:
    """Whether f and g have distinct block factors with a common root, or a
    common irrational point: what a merge cannot decide without a gcd."""
    fs, gs = ({h for h, _m in k.complex_zero_blocks + k.complex_pole_blocks}
              for k in (f, g))
    irr = [[p for p, _e in h.critical_points() if isinstance(p, RealAlg)]
           for h in (f, g)]
    return (any(a != b and nevkit.poly.gcd(a, b).degree for a in fs
                for b in gs)
            or any(point_cmp(a, b) == 0 for a in irr[0] for b in irr[1]))


# most factors absent, so that analysis often leaves one factor a block
exponents = st.tuples(*[st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -2))]
                      * len(BLOCK_POOL))


@settings(max_examples=150, deadline=None)
@given(exponents, exponents, rationals(5, 3).filter(bool))
def test_merged_block_tables_match_analysis(a, b, c):
    """Products and quotients of functions with conjugate-pair blocks keep
    their tables, blocks with a common factor adding their orders and
    cancelling, coprime ones side by side, and match real_root_structure of
    their polynomials per multiplicity; distinct factors with a common root
    make the merge fall back."""
    f, g = _pooled(a, c), _pooled(b, 1)
    assume(not (f.is_constant or g.is_constant))
    seeded = not _must_fall_back(f, g)
    for h in (f * g, f / g, g / f):
        _check_tables(h, seeded=seeded, grouped=True)


def test_merged_blocks_cover_sharing_cancelling_and_common_roots():
    """The cases of the property above, one each: a shared factor adds its
    orders, a cancelled one leaves the quotient, coprime factors stay side
    by side, and two distinct factors with the common root i fall back."""
    one = (0,) * len(BLOCK_POOL)
    i2 = one[:0] + (1,) + one[1:]                    # z^2 + 1
    shifted = one[:1] + (1,) + one[2:]               # z^2 + 2z + 2
    mixed = one[:2] + (1,) + one[3:]                 # (z^2 + 1)(z^2 - 3)
    cube = one[:3] + (-1,) + one[4:-1] + (1,)        # (z - 1)/(z^3 - 2)
    f = _pooled(i2, 1)
    shared = f * f
    assert shared.complex_zero_blocks == [(BLOCK_POOL[0], 2)]
    part = shared / _pooled(i2, 3)                  # (z^2 + 1)/3
    assert part.complex_zero_blocks == [(BLOCK_POOL[0], 1)]
    cancelled = part / f
    assert cancelled == RatFun.const(Fraction(1, 3))
    assert cancelled.complex_zero_blocks == []
    side = f / _pooled(shifted, 1) * _pooled(cube, 1)
    assert set(side.complex_zero_blocks) == {(BLOCK_POOL[0], 1)}
    # each pole block with the count of its real roots among the points
    assert {(h, m, sum(isinstance(x, RealAlg) and x.p == h
                       for x, _e in side.critical_points()))
            for h, m in side.complex_pole_blocks} == \
        {(BLOCK_POOL[1], 1, 0), (BLOCK_POOL[3], 1, 1)}
    for h in (shared, part, cancelled, side):
        _check_tables(h, seeded=True, grouped=True)
    common = _pooled(mixed, 1)
    assert _must_fall_back(f, common)
    for h in (f * common, f / common):
        _check_tables(h, seeded=False)


@settings(max_examples=100, deadline=None)
@given(pointed(), mobius_maps())
def test_mobius_images_map_tables(f, tau):
    """A Moebius image's table is left to analysis and matches it."""
    _check_tables(f.compose_mobius(tau), seeded=False)


def test_mobius_images_at_infinity():
    tau = RatFun(Poly([0, 1]), Poly([-1, 1]))         # z/(z-1): tau(inf) = 1
    f = RatFun.from_points([1, 1, 2], [0])           # pole of order 2 at inf
    h = f.compose_mobius(tau)
    _check_tables(h, seeded=False)
    # the double zero at 1 goes to inf, and the double pole at inf to 1
    assert (f.ord_at_inf(), h.ord_at_inf()) == (-2, 2)
    assert h.critical_points() == (
        (Fraction(0), -1), (Fraction(1), -2), (Fraction(2), 1))
    q = NevFun.of(0, 1, [(0, 2)])                    # zeros +-sqrt(2)
    _check_tables(q.to_ratfun().compose_mobius(tau), seeded=False)


@settings(max_examples=60, deadline=None)
@given(st.one_of(pointed(), factored_ratfuns()), rationals(5, 3).filter(bool))
def test_inverse_negation_and_scaling_keep_tables(f, c):
    """Scalar multiples keep the table; an inverse leaves it to analysis."""
    f.critical_points()
    for k, h in enumerate((f.inverse(), -f, f * c, c * f, f / c)):
        assert h == RatFun(h.num, h.den)
        _check_tables(h, seeded=k > 0)
    _check_tables(RatFun.const(c), seeded=True)


def _count_merges(monkeypatch) -> list:
    calls, merge = [], nevkit.ratfun._merge
    monkeypatch.setattr(nevkit.ratfun, "_merge",
                        lambda a, b: calls.append(1) or merge(a, b))
    return calls


def _read_all(h: RatFun):
    return (h.critical_points(), h.real_zeros, h.real_poles,
            h.complex_zero_blocks, h.complex_pole_blocks,
            h.sign_on_interval(), h.ord_at(Fraction(1, 3)))


def test_a_given_table_is_read_with_no_more_merges(monkeypatch):
    """A table that a product or quotient merged, or that a scalar
    multiple kept, is stored as it is: reading it calls _merge no more
    times than building the function did.  An inverse or a Moebius image
    is given no table; its table is analysis's, read back as pairs."""
    f = RatFun.from_points([0, 1, 1], [2], 3)
    # +-sqrt(2) and a pair block on one quartic, a double pole at 3
    g = RatFun(Poly([-2, 0, 1]) * Poly([1, 0, 1]), Poly([-3, 1]) ** 2)
    q = NevFun.of(0, 1, [(0, 3)]).to_ratfun()       # zeros +-sqrt(3)
    g.critical_points()
    tau = RatFun(Poly([1, 2]), Poly([-1, 1]))        # (2z + 1)/(z - 1)
    calls = _count_merges(monkeypatch)
    for build in (lambda: f * g, lambda: f / g, lambda: g / f,
                  lambda: g * q, lambda: q / f, lambda: -g,
                  lambda: g * Fraction(2, 3), lambda: q / 3):
        calls.clear()
        h = build()
        built = len(calls)
        assert h._tab is not None
        _read_all(h)
        assert len(calls) == built
    for h in (f.inverse(), g.inverse(), q.inverse(),
              f.compose_mobius(tau), (f * g).inverse()):
        assert h._tab is None
        _check_tables(h, seeded=False)
        _read_all(h)


def test_a_nevfun_table_is_read_with_no_merge(monkeypatch):
    """A NevFun's RatFun takes its whole table, zeros and atoms
    interlaced, from its representation: reading it merges nothing."""
    calls = _count_merges(monkeypatch)
    for q in (NevFun.of(0, 1, [(0, 2)]), NevFun.of(1, 0, [(0, 1), (2, 3)]),
              NevFun.of(-1, 2, [(-1, 1), (0, 2), (5, 1)]), NevFun.of(3, 0),
              NevFun.of(0, 0, [(1, 1)])):
        calls.clear()
        f = q.to_ratfun()
        crit = f.critical_points()
        _read_all(f)
        assert calls == []
        assert all(e * n == -1 for (_p, e), (_x, n) in zip(crit, crit[1:]))
        fresh = RatFun(f.num, f.den).critical_points()
        assert len(crit) == len(fresh) and all(
            point_cmp(p, x) == 0 and e == n
            for (p, e), (x, n) in zip(crit, fresh))


S2_I = Poly([-2, 0, 1]) * Poly([1, 0, 1])         # +-sqrt(2) and +-i
ANALYSED = RatFun(S2_I * Poly([-1, 1]) ** 2, Poly([-3, 1]) * Poly([2, 2, 1]))
POINTED = RatFun.from_points([0, 1, 1], [2, 5], 3)
TAU = RatFun(Poly([1, 2]), Poly([-1, 1]))           # (2z + 1)/(z - 1)


@pytest.mark.parametrize("build", [
    lambda: RatFun(ANALYSED.num, ANALYSED.den), lambda: POINTED,
    lambda: ANALYSED * POINTED, lambda: POINTED / ANALYSED,
    lambda: ANALYSED.inverse(), lambda: POINTED.inverse(),
    lambda: ANALYSED * Fraction(-2, 3), lambda: -POINTED,
    lambda: POINTED.compose_mobius(TAU),
    lambda: NevFun.of(0, 1, [(0, 2)]).to_ratfun(),
    lambda: NevFun.of(1, 0, [(0, 1), (2, 3)]).to_ratfun(),
], ids=["analysis", "from_points", "product", "quotient", "inverse",
        "inverse_pointed", "scalar", "negation", "mobius", "nevfun",
        "nevfun_no_beta"])
def test_views_are_pairs_read_off_the_table(build):
    """real_zeros, real_poles and the complex blocks are the (point,
    multiplicity) and (factor, multiplicity) pairs of the table, the sign
    of the order split off; zeros() and poles() add (INF, m) last."""
    f = build()
    crit, blocks = f.critical_points(), f._table()[1]
    for k, points, bs in ((1, f.real_zeros, f.complex_zero_blocks),
                          (-1, f.real_poles, f.complex_pole_blocks)):
        assert points == [(x, k * e) for x, e in crit if k * e > 0]
        assert bs == [(h, k * e) for h, e in blocks if k * e > 0]
        assert all(type(v) is tuple for v in points + bs)
    m = f.ord_at_inf()
    assert f.zeros() == f.real_zeros + ([(INF, m)] if m > 0 else [])
    assert f.poles() == f.real_poles + ([(INF, -m)] if m < 0 else [])


def test_negative_infinity_is_the_point_at_infinity():
    f = RatFun.from_points([1, 2, 3], [0])          # pole of order 2 at inf
    assert f.ord_at(INF) == f.ord_at(NEG_INF) == -2
    assert f.inverse().ord_at(NEG_INF) == 2
    assert RatFun.from_points([1], [2]).ord_at(NEG_INF) == 0
    for g in (f * -2, f.inverse() * Fraction(3, 4),
              RatFun.from_points([1], [2], 7)):
        assert g.laurent_lead(NEG_INF) == g.laurent_lead(INF) == g.gamma


@pytest.mark.parametrize("f", [
    RatFun.from_points([1], []),                    # odd order at infinity
    RatFun.from_points([1, 2, 3], [0], -2),         # even order
    RatFun.from_points([], [1], Fraction(-1, 2)),   # zero at infinity
    RatFun.from_points([1], [2], 7),                # regular at infinity
])
def test_laurent_lead_sign_at_negative_infinity_is_the_sign_of_gamma(f):
    gamma_sign = 1 if f.gamma > 0 else -1
    assert f.laurent_lead_sign(NEG_INF) == f.laurent_lead_sign(INF) \
        == gamma_sign
    # the first cell's sign has its own name: sign(gamma) times (-1) to
    # the number of odd-order points
    odd = sum(e % 2 for _x, e in f.critical_points())
    assert f.sign_right_of(NEG_INF) == gamma_sign * (-1) ** odd
    below = min(x for x, _e in f.critical_points()) - 1
    assert f.sign_right_of(NEG_INF) == f.sign_at(below)


def test_laurent_lead_refuses_an_irrational_point():
    r = RatFun(Poly([-2, 0, 1]), Poly([-1, 1]))
    sqrt2 = r.real_zeros[1][0]
    with pytest.raises(InvalidInput):
        r.laurent_lead(sqrt2)
    assert r.laurent_lead(1) == -1 and r.laurent_lead(0) == 2


def _point_cmp_reference(a, b) -> int:
    """point_cmp as it dispatched before the Fraction fast path."""
    if a is NEG_INF or b is INF:
        return -(a is not b)
    if a is INF or b is NEG_INF:
        return 1
    if isinstance(a, RealAlg):
        return a.cmp_alg(b) if isinstance(b, RealAlg) else a.cmp_rat(b)
    if isinstance(b, RealAlg):
        return -b.cmp_rat(a)
    a, b = Fraction(a), Fraction(b)
    return (a > b) - (a < b)


def _sqrts():
    """RealAlg points of +-sqrt(2), +-sqrt(3), twice each, on different
    defining polynomials."""
    out = []
    for p in (Poly([-2, 0, 1]), Poly([-3, 0, 1]),
              Poly([-2, 0, 1]) * Poly([-3, 0, 1])):
        out += [x for x, _m in
                nevkit.poly.real_root_structure(p)[0]]
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(rationals(4, 3), st.integers(-3, 3),
                          st.sampled_from([INF, NEG_INF] + _sqrts())),
                min_size=2, max_size=2))
def test_point_cmp_agrees_with_the_old_dispatch(ab):
    a, b = ab
    assert point_cmp(a, b) == _point_cmp_reference(a, b)
