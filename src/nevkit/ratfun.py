"""Exact algebra of symmetric rational functions over the reals.

A :class:`RatFun` is a reduced pair of Fraction-coefficient polynomials with
one table of its zeros and poles on the real line, kept in one slot: the
finite real points as ascending (point, order) and the conjugate-pair
blocks as (monic factor, order), the order negative at a pole.  Analysis
(:func:`~nevkit.poly.real_root_structure`) gives each of num and den in
this form, and the views (:attr:`RatFun.real_zeros`, :meth:`RatFun.poles`,
:attr:`RatFun.complex_zero_blocks`, ...) read it back as (point,
multiplicity) and (factor, multiplicity) pairs of one kind.  Rational
points are exact, irrational real points are certified isolating
intervals, and blocks never take part in sign decisions.  Every local
query (orders, Laurent signs, signs at points, sign segments) reads the
points, :meth:`RatFun.critical_points`.  Signs follow one parity rule on
them: just above the first i entries the function has the sign of gamma
times (-1) to the number of odd-order entries from the i-th on.  No sign is
found by evaluation, at a rational point or elsewhere; values are.  The
point at infinity is first class: the zero or pole multiplicity there is
the degree imbalance.

The table travels with the function.  Products and quotients merge two
tables, a common rational point or block factor divided out with no gcd;
scalar multiples keep it.  A table not built, a common irrational point or
two block factors with a common root falls back to a gcd.  A function
given no table, an inverse or a Mobius image among them, is analysed when
its table is first read.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Sequence, Union

from .errors import (DegreeNotOne, IdenticallyZeroDenominator,
                     InvalidInput, PoleHit)
from .poly import (_BY_POINT, Poly, RealAlg, RPoint, _deflate, _poly,
                   compose_fractional, gcd, point_cmp, rat,
                   real_root_structure)
from .qmath import INF, NEG_INF, QC, ExtSymbol, fmt_rat, is_float_point

Point = Union[Fraction, RealAlg, ExtSymbol]


class RatFun:
    """Reduced rational function; den is monic and coprime with num."""

    # _tab: the table (points, blocks), a thunk that gives it, or None
    # while it is to be built by analysis
    __slots__ = ("num", "den", "_tab")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise IdenticallyZeroDenominator("denominator is identically zero")
        g = gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        self._fill(num, den, None)

    def _fill(self, num: Poly, den: Poly, table):
        if den.n[-1] != den.d:              # den is made monic
            k = 1 / den.lead
            num, den = num * k, den * k
        for name, v in zip(self.__slots__, (num, den, table)):
            object.__setattr__(self, name, v)

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def _with_table(cls, num: Poly, den: Poly, table) -> "RatFun":
        """num/den for a coprime pair whose table the caller already knows,
        or a thunk that gives it: no gcd, no analysis."""
        f = object.__new__(cls)
        f._fill(num, den, table)
        return f

    # -- constructors ----------------------------------------------------------
    @staticmethod
    def const(x) -> "RatFun":
        return from_table((), ()) * x

    @staticmethod
    def x() -> "RatFun":
        return from_table([(Fraction(0), 1)], ())

    @staticmethod
    def from_points(zeros: Sequence, poles: Sequence, gamma=1) -> "RatFun":
        """gamma * prod (z - zero) / prod (z - pole), all data rational."""
        orders = Counter(map(rat, zeros))
        orders.subtract(map(rat, poles))
        return from_table([(p, e) for p, e in orders.items() if e], ()) * gamma

    # -- basic queries -----------------------------------------------------------
    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    @property
    def is_constant(self) -> bool:
        return self.degree <= 0

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def gamma(self) -> Fraction:
        """Leading-coefficient ratio after reduction (den is monic)."""
        return self.num.lead

    def __eq__(self, other):
        return (isinstance(other, RatFun) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFun({list(map(str, self.num.c))} / {list(map(str, self.den.c))})"

    # -- arithmetic ----------------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, RatFun):
            return self._times(other, 1)
        k = rat(other)
        return RatFun._with_table(self.num * k, self.den, self._tab) if k \
            else RatFun(Poly(), Poly.const(1))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RatFun):
            return self._times(other, -1)
        k = rat(other)
        return self * (1 / k) if k else RatFun(self.num, self.den * k)

    def _times(self, other: "RatFun", sign: int) -> "RatFun":
        """self * other ** sign, sign +-1, by merging the tables if known."""
        o_num, o_den = (other.num, other.den)[::sign]
        num, den = self.num * o_num, self.den * o_den
        a, b = self._known(), other._known()
        if a is not None and b is not None:
            points, common = _merge(a[0], [(p, sign * e) for p, e in b[0]])
            blocks, shared = _merge_blocks(a[1], b[1], sign) \
                if a[1] or b[1] else ((), ())
            if points is not None and blocks is not None:
                return RatFun._with_table(_divide_out(num, common, shared),
                                          _divide_out(den, common, shared),
                                          (points, blocks))
        return RatFun(num, den)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __add__(self, other):
        o = other if isinstance(other, RatFun) else RatFun.const(other)
        return RatFun(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        o = other if isinstance(other, RatFun) else RatFun.const(other)
        return self + (-o)

    def __rsub__(self, other):
        return RatFun.const(other) + (-self)

    def inverse(self) -> "RatFun":
        return RatFun(self.den, self.num)

    # -- evaluation ------------------------------------------------------------------
    def __call__(self, z):
        if isinstance(z, QC):
            return self.eval_qc(z)
        if is_float_point(z):
            return self.eval_np(z)
        return self.eval_q(z)

    def eval_q(self, z) -> Fraction:
        z = rat(z)
        d = self.den.eval_q(z)
        if d == 0:
            raise PoleHit(f"evaluation at pole {fmt_rat(z)}")
        return self.num.eval_q(z) / d

    def eval_qc(self, z: QC) -> QC:
        d = self.den.eval_qc(z)
        if d.abs2() == 0:
            raise PoleHit(f"evaluation at pole {fmt_rat(z.re)}" if z.is_real
                          else "evaluation at complex pole")
        return self.num.eval_qc(z) / d

    def eval_np(self, z):
        """num(z) / den(z) in floating point, see :meth:`Poly.eval_np`: at a
        pole a complex scalar raises PoleHit, an array gives inf or nan."""
        try:
            return self.num.eval_np(z) / self.den.eval_np(z)
        except ZeroDivisionError:
            raise PoleHit("float evaluation at a pole") from None

    # -- root bookkeeping -------------------------------------------------------------
    def _num_roots(self) -> tuple:
        return real_root_structure(self.num)

    def _den_roots(self) -> tuple:
        return real_root_structure(self.den)

    def _table(self) -> tuple:
        """(points, blocks): the finite real zeros and poles as ascending
        (point, order) and the conjugate-pair blocks as (monic factor,
        order), orders negative at poles.  A thunk, or None for analysis
        of num and den, is replaced by the table in one attribute write."""
        t = self._tab
        if type(t) is not tuple:
            if t is None:
                (n, nb), (d, db) = self._num_roots(), self._den_roots()
                t = (_merge(n, [(x, -m) for x, m in d])[0],
                     nb + tuple((h, -m) for h, m in db))
            else:
                t = t()
            object.__setattr__(self, "_tab", t)
        return t

    def _known(self):
        """The table if it was given or built, else None; the zero function
        has none to merge."""
        return None if self._tab is None or self.is_zero else self._table()

    @property
    def real_zeros(self) -> list[tuple[RPoint, int]]:
        return [(p, e) for p, e in self.critical_points() if e > 0]

    @property
    def real_poles(self) -> list[tuple[RPoint, int]]:
        return [(p, -e) for p, e in self.critical_points() if e < 0]

    @property
    def complex_zero_blocks(self) -> list[tuple[Poly, int]]:
        return [(h, e) for h, e in self._table()[1] if e > 0]

    @property
    def complex_pole_blocks(self) -> list[tuple[Poly, int]]:
        return [(h, -e) for h, e in self._table()[1] if e < 0]

    def ord_at_inf(self) -> int:
        """Positive for a zero at infinity, negative for a pole."""
        return self.den.degree - self.num.degree

    def zeros(self) -> list[tuple[Point, int]]:
        """The real zeros, then (INF, m) for a zero at infinity."""
        m = self.ord_at_inf()
        return self.real_zeros + [(INF, m)] * (m > 0)

    def poles(self) -> list[tuple[Point, int]]:
        """The real poles, then (INF, m) for a pole at infinity."""
        m = -self.ord_at_inf()
        return self.real_poles + [(INF, m)] * (m > 0)

    # -- local structure ------------------------------------------------------------
    def critical_points(self) -> tuple[tuple[RPoint, int], ...]:
        """Finite real zeros and poles in ascending order as (point, order),
        the order negative at a pole: the points of the table, which every
        local query reads."""
        return self._table()[0]

    def _locate(self, x) -> tuple[int, bool]:
        """(i, hit): i is the index of the first critical point not below
        x, hit whether that point equals x.  x is a real point or one of
        NEG_INF and INF, ordered by point_cmp."""
        crit = self.critical_points()
        lo, hi = 0, len(crit)
        while lo < hi:
            mid = (lo + hi) // 2
            c = point_cmp(crit[mid][0], x)
            if c == 0:
                return mid, True
            if c < 0:
                lo = mid + 1
            else:
                hi = mid
        return lo, False

    def ord_at(self, point: Point) -> int:
        """Order at a point: k > 0 for a zero of order k, k < 0 for a pole,
        0 when regular and nonzero.  NEG_INF is the point at infinity, as
        INF is, the two ends of one extended line."""
        if point is INF or point is NEG_INF:
            return self.ord_at_inf()
        i, hit = self._locate(point)
        return self.critical_points()[i][1] if hit else 0

    def laurent_lead(self, point: Point) -> Fraction:
        """Exact coefficient c with f ~ c (z-a)^ord near a rational a, or
        f ~ c z^(-ord_at_inf) near infinity; the order is read from the
        critical table.  NEG_INF is the point at infinity, as in
        :meth:`ord_at`."""
        if point is INF or point is NEG_INF:
            return self.gamma
        if isinstance(point, RealAlg):
            raise InvalidInput("Laurent coefficient at an irrational point")
        a = rat(point)
        k = self.ord_at(a)
        return (_divide_out(self.num, [a] * k).eval_q(a)
                / _divide_out(self.den, [a] * -k).eval_q(a))

    def _sign_above(self, i: int) -> int:
        """Sign just above the first i critical points: that of gamma near
        +inf, flipped once per odd-order point from the i-th on."""
        g = self.num.n[-1] if self.num.n else 0     # the sign of gamma
        s = (g > 0) - (g < 0)
        odd = sum(e % 2 for _p, e in self.critical_points()[i:])
        return -s if odd % 2 else s

    def sign_right_of(self, point: Point) -> int:
        """The sign just right of a real point or of NEG_INF, read from the
        critical table: sign(gamma) times (-1)^eta(p)."""
        i, hit = self._locate(point)
        return self._sign_above(i + hit)

    def laurent_lead_sign(self, point: Point) -> int:
        """Sign of the leading Laurent coefficient: at a real point the sign
        just right of it, at infinity the sign of gamma.  NEG_INF is the
        point at infinity, as in :meth:`ord_at`."""
        return self.sign_right_of(INF if point is NEG_INF else point)

    def sign_at(self, point: Point) -> int:
        """Exact sign at a point of the extended line, read from the
        critical table: 0 at a zero, the Laurent sign where the function is
        regular and nonzero; raises PoleHit at a pole, infinity included."""
        if point is INF or point is NEG_INF:
            e, i = self.ord_at_inf(), len(self.critical_points())
        else:
            i, hit = self._locate(point)
            e = self.critical_points()[i][1] if hit else 0
        if e < 0:
            raise PoleHit("sign query at pole")
        return 0 if e else self._sign_above(i)

    def sign_on_interval(self) -> tuple[tuple[Point, Point, int], ...]:
        """The maximal open intervals of constant nonzero sign, as ascending
        (lo, hi, sign) from NEG_INF to INF; only odd-order zeros and poles
        separate them, and the sign flips at each."""
        ends = [NEG_INF, *(p for p, e in self.critical_points() if e % 2), INF]
        sgn = self._sign_above(0)
        return tuple((a, b, sgn * (-1) ** k)
                     for k, (a, b) in enumerate(zip(ends, ends[1:])))

    # -- composition ---------------------------------------------------------------------
    def compose_mobius(self, tau: "RatFun") -> "RatFun":
        """self o tau for a degree-one tau; degrees multiply."""
        if tau.degree != 1:
            raise DegreeNotOne(f"tau has degree {tau.degree}")
        d = self.degree
        return RatFun(compose_fractional(self.num, tau.num, tau.den, d),
                      compose_fractional(self.den, tau.num, tau.den, d))


def _merge(a: Sequence, b: Sequence) -> tuple:
    """Two ascending sequences of (point, order) merged into a tuple,
    orders added at a common point, and the common points repeated by the
    orders that cancel there; (None, None) when a common point is
    irrational."""
    out, common, i, j = [], [], 0, 0
    while i < len(a) and j < len(b):
        c = point_cmp(a[i][0], b[j][0])
        if c:
            out.append(a[i] if c < 0 else b[j])
            i, j = (i + 1, j) if c < 0 else (i, j + 1)
            continue
        (p, m), (_p, n) = a[i], b[j]
        if isinstance(p, RealAlg):
            return None, None
        if m + n:
            out.append((p, m + n))
        common += [p] * min(abs(m), abs(n)) * (m * n < 0)
        i, j = i + 1, j + 1
    return (*out, *a[i:], *b[j:]), common


def _merge_blocks(a: Sequence, b: Sequence, sign: int) -> tuple:
    """Two sequences of (factor, order), b's orders times sign, merged
    like _merge's points; (None, None) unless distinct factors are
    coprime."""
    orders, common = dict(a), []
    for h, e in b:
        m, e = orders.get(h, 0), sign * e
        if not m and any(gcd(h, k).degree for k, _m in a):
            return None, None
        common += [h] * min(abs(m), abs(e)) * (m * e < 0)
        orders[h] = m + e
    return tuple((h, e) for h, e in orders.items() if e), common


def from_table(table: list, blocks: list) -> RatFun:
    """The monic function with the (point, order) and (factor, order)
    given, the table listing every real root of the polynomial of an
    irrational point: it enters once, to its order, as a factor does.
    Every function given by its points is built here: RatFun.const and
    RatFun.from_points scale the function their table gives."""
    table = tuple(sorted(table, key=_BY_POINT))
    powers = dict(blocks)
    powers.update((p.p, e) for p, e in table if isinstance(p, RealAlg))
    num, den = (math.prod((h ** (k * e) for h, e in powers.items()
                           if k * e > 0), start=Poly.from_roots(
                               [p for p, e in table if isinstance(p, Fraction)
                                for _ in range(k * e)])) for k in (1, -1))
    return RatFun._with_table(num, den, (table, tuple(blocks)))


def _divide_out(p: Poly, points: list, factors=()) -> Poly:
    """p / prod (z - t) / prod h over its listed roots t and factors h."""
    if factors:
        p = p // math.prod(factors, start=Poly.const(1))
    n, scale = p.n, 1
    for t in points:
        n = _deflate(n, t.numerator, t.denominator)
        scale *= t.denominator
    return _poly([x * scale for x in n], p.d) if points else p


def strictly_between(p: RPoint, a, b) -> bool:
    """Whether a < p < b, with NEG_INF and INF allowed as the ends."""
    return point_cmp(p, a) > 0 and point_cmp(p, b) < 0


def reduce(num: Poly | Sequence, den: Poly | Sequence) -> RatFun:
    """Reduce a numerator/denominator pair to a RatFun in lowest terms."""
    n = num if isinstance(num, Poly) else Poly(num)
    d = den if isinstance(den, Poly) else Poly(den)
    return RatFun(n, d)
