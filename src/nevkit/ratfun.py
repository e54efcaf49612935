"""Exact algebra of symmetric rational functions over the reals.

A :class:`RatFun` is a reduced pair of Fraction-coefficient polynomials with
bookkeeping for its zeros and poles on the extended real line: rational
points are exact, irrational real points are certified isolating intervals,
and conjugate-pair blocks are tracked by count only (they never take part in
sign decisions).  The finite real zeros and poles form one ordered table,
:meth:`RatFun.critical_points`, which every local query (orders, Laurent
signs, sign segments) reads.  Signs follow one parity rule on that table:
just above its first i entries the function has the sign of gamma times (-1)
to the number of odd-order entries from the i-th on.  Only a sign at a
rational point is found by evaluation.  The point at infinity is first
class: the zero or pole multiplicity there is the degree imbalance.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Sequence, Union

from .errors import DegreeNotOne, IdenticallyZeroDenominator, PoleHit
from .poly import (ConjugatePairBlock, Poly, RealAlg, RootRecord,
                   RootStructure, RPoint, compose_fractional, gcd, point_cmp,
                   rat, real_root_structure)
from .qmath import INF, NEG_INF, QC, ExtSymbol, fmt_rat

Point = Union[Fraction, RealAlg, ExtSymbol]


@dataclass(frozen=True)
class SignSegment:
    """Maximal open interval of constant nonzero sign.

    ``touches`` lists the even-order zeros and poles strictly inside, where
    the function vanishes or blows up without changing sign.
    """

    lo: object  # Fraction | RealAlg | NEG_INF
    hi: object  # Fraction | RealAlg | INF
    sign: int
    touches: tuple = ()


@dataclass(frozen=True)
class SignReport:
    segments: tuple[SignSegment, ...]

    def negative_segments(self) -> list[SignSegment]:
        return [s for s in self.segments if s.sign < 0]


class RatFun:
    """Reduced rational function; den is monic and coprime with num."""

    __slots__ = ("num", "den", "_roots_num", "_roots_den", "_crit")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise IdenticallyZeroDenominator("denominator is identically zero")
        g = gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        lead = den.lead
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_roots_num", None)
        object.__setattr__(self, "_roots_den", None)
        object.__setattr__(self, "_crit", None)

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def _with_roots(cls, num: Poly, den: Poly, *roots: RootStructure):
        """num/den for a coprime pair with den monic, whose two root
        structures the caller already knows: no gcd, no root analysis."""
        f = object.__new__(cls)
        for name, v in zip(cls.__slots__, (num, den, *roots, None)):
            object.__setattr__(f, name, v)
        return f

    # -- constructors ----------------------------------------------------------
    @staticmethod
    def const(x) -> "RatFun":
        return RatFun(Poly.const(x), Poly.const(1))

    @staticmethod
    def x() -> "RatFun":
        return RatFun(Poly.x(), Poly.const(1))

    @staticmethod
    def from_points(zeros: Sequence, poles: Sequence, gamma=1) -> "RatFun":
        """gamma * prod (z - zero) / prod (z - pole), all data rational."""
        return RatFun(Poly.from_roots(zeros, lead=rat(gamma)),
                      Poly.from_roots(poles))

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
            return RatFun(self.num * other.num, self.den * other.den)
        return RatFun(self.num * rat(other), self.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RatFun):
            return RatFun(self.num * other.den, self.den * other.num)
        return RatFun(self.num, self.den * rat(other))

    def __rtruediv__(self, other):
        return RatFun.const(other) / self

    def __add__(self, other):
        o = other if isinstance(other, RatFun) else RatFun.const(other)
        return RatFun(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

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
        if isinstance(z, complex):
            return self.eval_c(z)
        np = sys.modules.get("numpy")   # an ndarray means numpy is loaded
        if np is not None and isinstance(z, np.ndarray):
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
            raise PoleHit("evaluation at complex pole")
        return self.num.eval_qc(z) / d

    def eval_c(self, z: complex) -> complex:
        return self.num.eval_c(z) / self.den.eval_c(z)

    def eval_np(self, z: np.ndarray) -> np.ndarray:
        import numpy as np
        nc = self.num.float_coeffs() or [0.0]
        dc = self.den.float_coeffs()
        return (np.polynomial.polynomial.polyval(z, nc)
                / np.polynomial.polynomial.polyval(z, dc))

    # -- root bookkeeping -------------------------------------------------------------
    def _num_roots(self) -> RootStructure:
        if self._roots_num is None:
            object.__setattr__(self, "_roots_num",
                               real_root_structure(self.num))
        return self._roots_num

    def _den_roots(self) -> RootStructure:
        if self._roots_den is None:
            object.__setattr__(self, "_roots_den",
                               real_root_structure(self.den))
        return self._roots_den

    @property
    def real_zeros(self) -> list[RootRecord]:
        return list(self._num_roots().real)

    @property
    def real_poles(self) -> list[RootRecord]:
        return list(self._den_roots().real)

    @property
    def complex_zero_blocks(self) -> list[ConjugatePairBlock]:
        return list(self._num_roots().blocks)

    @property
    def complex_pole_blocks(self) -> list[ConjugatePairBlock]:
        return list(self._den_roots().blocks)

    def ord_at_inf(self) -> int:
        """Positive for a zero at infinity, negative for a pole."""
        return self.den.degree - self.num.degree

    def zeros(self) -> list[RootRecord]:
        out = self.real_zeros
        m = self.ord_at_inf()
        if m > 0:
            out.append(RootRecord(INF, m))
        return out

    def poles(self) -> list[RootRecord]:
        out = self.real_poles
        m = self.ord_at_inf()
        if m < 0:
            out.append(RootRecord(INF, -m))
        return out

    # -- local structure ------------------------------------------------------------
    def critical_points(self) -> tuple[tuple[RPoint, int, str], ...]:
        """Finite real zeros and poles merged in ascending order as
        (point, mult, kind): the one table every local query reads, built
        once per instance from the two root structures."""
        if self._crit is None:
            items = ([(r.point, r.mult, "zero")
                      for r in self._num_roots().real]
                     + [(r.point, r.mult, "pole")
                        for r in self._den_roots().real])
            items.sort(key=cmp_to_key(lambda a, b: point_cmp(a[0], b[0])))
            object.__setattr__(self, "_crit", tuple(items))
        return self._crit

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
        0 when regular and nonzero."""
        if point is INF:
            return self.ord_at_inf()
        i, hit = self._locate(point)
        if not hit:
            return 0
        _p, m, kind = self.critical_points()[i]
        return m if kind == "zero" else -m

    def laurent_lead(self, point: Point) -> Fraction:
        """Exact coefficient c with f ~ c (z-a)^ord near a rational a, or
        f ~ c z^(-ord_at_inf) near infinity."""
        if point is INF:
            return self.gamma
        a = rat(point)
        lin = Poly([-a, 1])
        mn = self.num.root_multiplicity(a)
        md = self.den.root_multiplicity(a)
        return ((self.num // lin ** mn).eval_q(a)
                / (self.den // lin ** md).eval_q(a))

    def _sign_above(self, i: int) -> int:
        """Sign just above the first i critical points: that of gamma near
        +inf, flipped once per odd-order point from the i-th on."""
        s = (self.gamma > 0) - (self.gamma < 0)
        odd = sum(m % 2 for _p, m, _kind in self.critical_points()[i:])
        return -s if odd % 2 else s

    def laurent_lead_sign(self, point: Point) -> int:
        """Sign of the leading Laurent coefficient at a real point or at
        infinity: the sign just right of the point, sign(gamma) times
        (-1)^eta(p).  At infinity, above every entry, it is the sign of
        gamma."""
        i, hit = self._locate(point)
        return self._sign_above(i + hit)

    def sign_at(self, point: RPoint) -> int:
        """Exact sign at a real point; raises PoleHit at poles.  A rational
        point is evaluated; an irrational one is located in the critical
        table, where it is a zero, a pole or inside one constant-sign
        segment."""
        if isinstance(point, RealAlg):
            i, hit = self._locate(point)
            if not hit:
                return self._sign_above(i)
            if self.critical_points()[i][2] == "pole":
                raise PoleHit("sign query at pole")
            return 0
        v_den = self.den.eval_q(rat(point))
        if v_den == 0:
            raise PoleHit(f"sign query at pole {fmt_rat(rat(point))}")
        v = self.num.eval_q(rat(point)) / v_den
        return 0 if v == 0 else (-1 if v < 0 else 1)

    def sign_on_interval(self, lo=NEG_INF, hi=INF) -> SignReport:
        """Maximal constant-sign subintervals of (lo, hi) with exact
        endpoints; only odd-order zeros and poles separate segments, and
        the even-order ones inside a segment are its touches.  The sign
        starts as the one just above lo and flips at each odd-order point."""
        i, hit = self._locate(lo)
        j, _ = self._locate(hi)
        sgn = self._sign_above(i + hit)
        segments = []
        a, touches = lo, []
        # hi ends the last segment like one more odd-order point
        for p, m, kind in self.critical_points()[i + hit:j] + ((hi, 1, None),):
            if m % 2 == 0:
                touches.append((p, kind))
                continue
            segments.append(SignSegment(a, p, sgn, tuple(touches)))
            a, touches, sgn = p, [], -sgn
        return SignReport(tuple(segments))

    # -- composition ---------------------------------------------------------------------
    def compose_mobius(self, tau: "RatFun") -> "RatFun":
        """self o tau for a degree-one tau; degrees multiply."""
        if tau.degree != 1:
            raise DegreeNotOne(f"tau has degree {tau.degree}")
        d = self.degree
        num = compose_fractional(self.num, tau.num, tau.den, d)
        den = compose_fractional(self.den, tau.num, tau.den, d)
        return RatFun(num, den)

    def mobius_inverse(self) -> "RatFun":
        """Inverse of a degree-one rational function."""
        if self.degree != 1:
            raise DegreeNotOne("only degree-one functions invert")
        a = self.num.c[1] if self.num.degree >= 1 else Fraction(0)
        b = self.num.c[0] if self.num.c else Fraction(0)
        c = self.den.c[1] if self.den.degree >= 1 else Fraction(0)
        d = self.den.c[0] if self.den.c else Fraction(0)
        return RatFun(Poly([-b, d]), Poly([a, -c]))


def strictly_between(p: RPoint, a, b) -> bool:
    """Whether a < p < b, with NEG_INF and INF allowed as the ends."""
    return point_cmp(p, a) > 0 and point_cmp(p, b) < 0


def reduce(num: Poly | Sequence, den: Poly | Sequence) -> RatFun:
    """Reduce a numerator/denominator pair to a RatFun in lowest terms."""
    n = num if isinstance(num, Poly) else Poly(num)
    d = den if isinstance(den, Poly) else Poly(den)
    return RatFun(n, d)
