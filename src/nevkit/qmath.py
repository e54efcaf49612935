"""Exact scalar arithmetic: rationals, rational complex numbers, the
extended real line and symbolic limit values.

All exact scalars in the package are ``fractions.Fraction`` (a polynomial
stores integer numerators over one denominator, see :mod:`nevkit.poly`, and
reads its coefficients out as Fractions); floats only appear in the numeric
oracle.  The point at infinity is the singleton ``INF`` (projectively, the
single point closing the real line); ``NEG_INF`` exists for directed limits
and interval ends.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError


def rat(x) -> Fraction:
    """Coerce ints, strings like ``"p/q"``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rat(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def parse_rat(s: str) -> Fraction:
    """The rational written as the string s: an integer, p/q or a plain
    decimal.  Anything else, exponent notation, a JSON number or null
    included, is a ParseError."""
    if not isinstance(s, str):
        raise ParseError(f"rational literal {s!r} is not a string")
    # Fraction expands an exponent exactly: "1e10000000" has 10**7 digits
    if re.search(r"[eE][-+]?\d", s):
        raise ParseError(f"exponent notation in rational literal {s!r}")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {s!r}") from exc


def fmt_rat(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class ExtSymbol:
    """Named singleton for a point at infinity."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name

    def __reduce__(self):
        return (_ext_lookup, (self._name,))


INF = ExtSymbol("inf")
NEG_INF = ExtSymbol("-inf")


def _ext_lookup(name: str) -> ExtSymbol:
    return {"inf": INF, "-inf": NEG_INF}[name]


@dataclass(frozen=True)
class LimitValue:
    """Outcome of a one-sided or nontangential limit.

    ``kind`` is one of ``"finite"``, ``"+inf"``, ``"-inf"`` or ``"inf"``;
    the last means the modulus diverges without a determined sign.
    """

    kind: str
    value: Fraction | None = None

    @staticmethod
    def finite(v) -> "LimitValue":
        return LimitValue("finite", rat(v))

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def finite_nonneg(self) -> bool:
        return self.is_finite and self.value >= 0

    def finite_nonpos(self) -> bool:
        return self.is_finite and self.value <= 0

    def __repr__(self):
        if self.is_finite:
            return f"Limit({fmt_rat(self.value)})"
        return f"Limit({self.kind})"


LIM_POS_INF = LimitValue("+inf")
LIM_NEG_INF = LimitValue("-inf")
LIM_INF = LimitValue("inf")


@dataclass(frozen=True)
class QC:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "QC":
        return QC(rat(re), rat(im))

    @staticmethod
    def coerce(z) -> "QC":
        if isinstance(z, QC):
            return z
        return QC(rat(z), Fraction(0))

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conj(self) -> "QC":
        return QC(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __add__(self, o):
        o = QC.coerce(o)
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-QC.coerce(o))

    def __rsub__(self, o):
        return QC.coerce(o) + (-self)

    def __mul__(self, o):
        o = QC.coerce(o)
        return QC(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = QC.coerce(o)
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by exact complex zero")
        return QC((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, o):
        return QC.coerce(o) / self

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QC({fmt_rat(self.re)}, {fmt_rat(self.im)})"
