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
import sys
from fractions import Fraction
from operator import attrgetter

from .errors import InvalidInput, ParseError


def record(cls):
    """Make cls a frozen value record over the fields it annotates, in
    order.  It stands in for ``dataclass(frozen=True)``, whose import
    brings in ``inspect`` and which compiles six methods a class: about
    11 ms and 0.9 ms a class of the start-up of every process.  Here only
    ``__init__`` is compiled, with a parameter per field as the dataclass
    one has, so a record is built positionally or by keyword, with the
    class-level values as defaults, at the same cost.

    Equality and hash are those of the field tuple (``NotImplemented``
    against another class), the repr is ``Name(field=value, ...)`` unless
    cls defines one, ``__post_init__`` runs after construction when cls
    defines one, and assignment raises AttributeError.  Memos written to
    the instance ``__dict__`` by ``object.__setattr__`` or
    ``cached_property`` are not fields."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    key = attrgetter(*names)            # a tuple, or one field's value
    one = len(names) == 1
    params = "".join(f", {n}=_d[{n!r}]" if n in defaults else f", {n}"
                     for n in names)
    body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    if "__post_init__" in cls.__dict__:
        body += "\n    self.__post_init__()"
    ns = {"_set": object.__setattr__, "_d": defaults}
    exec(f"def __init__(self{params}):{body}", ns)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash((key(self),) if one else key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{n}={getattr(self, n)!r}" for n in names) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__, cls.__eq__, cls.__hash__ = ns["__init__"], __eq__, __hash__
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    return cls


def rat(x) -> Fraction:
    """Coerce ints, strings like ``"p/q"``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rat(x)
    raise InvalidInput(f"cannot coerce {x!r} to an exact rational")


def as_float(x, d: int = 1) -> float:
    """x / d for a rational x and an int d > 0, correctly rounded as by
    ``float(Fraction)``; beyond the float range InvalidInput is raised."""
    try:
        return x.numerator / (x.denominator * d)
    except OverflowError:
        raise InvalidInput("exact value beyond the float range") from None


def is_float_point(z) -> bool:
    """Whether z is a point of floating-point evaluation: a complex float,
    or a numpy array, which exists only once numpy is loaded."""
    np = sys.modules.get("numpy")
    return isinstance(z, (complex, np.ndarray) if np else complex)


def parse_rat(s: str) -> Fraction:
    """The rational written as the string s: an integer, p/q or a plain
    decimal.  Anything else, exponent notation, a JSON number or null
    included, is a ParseError."""
    if not isinstance(s, str):
        raise ParseError(f"rational literal {_cut(repr(s), str)} "
                         "is not a string")
    # Fraction expands an exponent exactly: "1e10000000" has 10**7 digits
    if re.search(r"[eE][-+]?\d", s):
        raise ParseError(f"exponent notation in rational literal {_cut(s)}")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        why = f"bad rational literal {_cut(s)}"
        limit = sys.get_int_max_str_digits()
        if limit and re.search(rf"\d{{{limit + 1}}}", s):
            why += f": a part has more than {limit} digits"
        raise ParseError(why) from exc


def _cut(s: str, show=repr) -> str:
    """show(s), s quoted by default, or show of its first 40 characters and
    its length when it is longer, so that an error line stays short."""
    return show(s) if len(s) <= 40 else \
        f"{show(s[:40])}... ({len(s)} characters)"


def fmt_rat(x: Fraction) -> str:
    """x as p/q in lowest terms, or p; a part longer than Python's limit
    for integer string conversion is an InvalidInput."""
    x = Fraction(x)
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:
        raise InvalidInput(
            "rational too long to write: more than "
            f"{sys.get_int_max_str_digits()} digits") from exc


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


@record
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


@record
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
