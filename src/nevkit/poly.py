"""Dense univariate polynomials over the exact rationals.

A polynomial is stored in integer-primitive form: one positive integer
denominator and a tuple of integer numerators, so the arithmetic, the gcd
(a primitive remainder sequence) and the square-free machinery the
rational-function layer builds on all run on Python ints, and a Fraction is
made only where a coefficient or a value is read out.  On top of it sits
certified real-root location on the primitive integer form of a polynomial:
its rational roots are found exactly by lifting its roots modulo a small
prime p-adically, and the remaining real roots, those of the residual
without rational roots, are separated by Sturm bisection on dyadic points
into rational intervals, represented as lazy :class:`RealAlg` values, which
refine their interval only as far as an exact sign query or comparison
needs.
:func:`real_root_structure` is the one place where the real roots and
conjugate-pair content of a polynomial are derived, memoised on the
polynomial's value.  Everything this module returns about an irrational
point (comparisons, signs, floors, the rationals of
:func:`rational_between` and :func:`rational_outside`) depends only on the
point's value, never on how far its interval happens to be refined.
"""

from __future__ import annotations


import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache, reduce
from itertools import combinations, zip_longest
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import InvalidInput, InvariantViolation
from .qmath import INF, NEG_INF, QC, rat

#: resolution w of the emitted approximations of irrational points: an
#: irrational x is emitted as (floor(x/w) + 1/2) * w
DEFAULT_ISOLATION_WIDTH = Fraction(1, 2**64)

#: number of polynomials whose root structure is kept by real_root_structure
ROOT_STRUCTURE_CACHE_SIZE = 1024

#: number of polynomials whose Sturm chain is kept by sturm_chain
STURM_CHAIN_CACHE_SIZE = 1024

#: number of pairs whose plain-pair report is kept by classify.check_N00
CERTIFICATE_CACHE_SIZE = 1024


class Poly:
    """Immutable polynomial with rational coefficients, ascending degree.

    The coefficients are ``n[i] / d`` for a positive int ``d`` and a tuple
    ``n`` of ints, in canonical form: ``n`` has no trailing zero,
    gcd(d, *n) = 1, and the zero polynomial is ``d = 1, n = ()``.  Equal
    values thus have equal ``(d, n)``, which ``==`` and ``hash`` read.
    :attr:`c`, the coefficients as Fractions, is built on first use."""

    __slots__ = ("d", "n", "_c")

    def __new__(cls, coeffs: Iterable = ()):
        cs = [rat(x) for x in coeffs]
        d = math.lcm(*[c.denominator for c in cs])
        return _poly([c.numerator * (d // c.denominator) for c in cs], d)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def c(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending."""
        try:
            return self._c
        except AttributeError:
            c = tuple(Fraction(x, self.d) for x in self.n)
            object.__setattr__(self, "_c", c)
            return c

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def const(x) -> "Poly":
        x = rat(x)
        return _poly((x.numerator,), x.denominator)

    @staticmethod
    def x() -> "Poly":
        return _poly((0, 1))

    @staticmethod
    def from_roots(roots: Sequence, lead=1) -> "Poly":
        p = Poly.const(lead)
        for r in roots:
            p = p * Poly([-rat(r), 1])
        return p

    # -- basic queries ---------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.n) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.n

    @property
    def is_constant(self) -> bool:
        return len(self.n) <= 1

    @property
    def lead(self) -> Fraction:
        return Fraction(self.n[-1], self.d) if self.n else Fraction(0)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.n == other.n
                and self.d == other.d)

    def __hash__(self):
        return hash((self.d, self.n))

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        return "Poly[" + ", ".join(str(x) for x in self.c) + "]"

    # -- ring operations -------------------------------------------------------
    def __add__(self, other):
        o = other if isinstance(other, Poly) else Poly.const(other)
        g = math.gcd(self.d, o.d)
        sa, sb = o.d // g, self.d // g      # both sides over lcm(d_a, d_b)
        return _poly([x * sa + y * sb
                      for x, y in zip_longest(self.n, o.n, fillvalue=0)],
                     self.d * sa)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-x for x in self.n], self.d)

    def __sub__(self, other):
        o = other if isinstance(other, Poly) else Poly.const(other)
        return self + (-o)

    def __rsub__(self, other):
        return Poly.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            k = rat(other)
            return _poly([k.numerator * x for x in self.n],
                         self.d * k.denominator)
        a, b = self.n, other.n
        if not (a and b):
            return _poly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly(out, self.d * other.d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InvalidInput("negative power of a polynomial")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """(q, r) with self = q * other + r and deg r < deg other.

        Integer long division of the numerators: when a top coefficient of
        the remainder is not a multiple of lead(other), the remainder and
        the quotient so far are scaled by the least factor that makes it
        one, and the total scale s is divided out once at the end."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        b = other.n
        db = len(b) - 1
        if len(self.n) <= db:
            return _poly(()), self
        lb = b[-1]
        r = list(self.n)
        q = [0] * (len(r) - db)
        s = 1
        for k in range(len(q) - 1, -1, -1):
            top = r.pop()
            if top:
                if top % lb:
                    t = abs(lb) // math.gcd(top, lb)
                    r = [x * t for x in r]
                    q = [x * t for x in q]
                    s *= t
                    top *= t
                f = top // lb
                q[k] = f
                for i in range(db):
                    r[k + i] -= f * b[i]
        den = self.d * s
        return _poly([x * other.d for x in q], den), _poly(r, den)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self) -> "Poly":
        n = self.n
        if not n or n[-1] == self.d:
            return self
        return _poly(n, n[-1])

    def deriv(self) -> "Poly":
        return _poly([i * x for i, x in enumerate(self.n)][1:], self.d)

    # -- evaluation ------------------------------------------------------------
    def __call__(self, z):
        if isinstance(z, QC):
            return self.eval_qc(z)
        if isinstance(z, complex):
            return self.eval_c(z)
        return self.eval_q(z)

    def eval_q(self, z) -> Fraction:
        """p(z) exactly: with z = u/v, d·v^deg(p)·p(z) is an integer,
        divided once."""
        if not self.n:
            return Fraction(0)
        z = rat(z)
        return Fraction(_horner(self.n, z.numerator, z.denominator),
                        self.d * z.denominator ** (len(self.n) - 1))

    def eval_qc(self, z: QC) -> QC:
        """p(z) exactly: with z = (u + iv)/w, homogeneous Horner on the
        Gaussian integers gives d·w^deg(p)·p(z), divided once."""
        if not self.n:
            return QC.of(0)
        w = math.lcm(z.re.denominator, z.im.denominator)
        u = z.re.numerator * (w // z.re.denominator)
        v = z.im.numerator * (w // z.im.denominator)
        re = im = 0
        wk = 1
        for a in reversed(self.n):
            re, im = re * u - im * v + a * wk, re * v + im * u
            wk *= w
        den = self.d * w ** (len(self.n) - 1)
        return QC(Fraction(re, den), Fraction(im, den))

    def eval_c(self, z: complex) -> complex:
        acc = 0j
        for a in reversed(self.c):
            acc = acc * z + float(a)
        return acc

    def float_coeffs(self) -> list[float]:
        return [float(a) for a in self.c]

    # -- structure -------------------------------------------------------------
    def root_multiplicity(self, r) -> int:
        """Exact multiplicity of the rational point r as a root."""
        r = rat(r)
        m = 0
        p = self
        lin = Poly([-r, 1])
        while not p.is_zero and p.eval_q(r) == 0:
            p = p // lin
            m += 1
        return m


def _poly(n: Sequence[int], d: int = 1) -> Poly:
    """The Poly with coefficients n[i] / d, for ints n and d != 0, in
    canonical form: every Poly is built here."""
    if n and not n[-1]:
        k = len(n) - 1
        while k and not n[k - 1]:
            k -= 1
        n = n[:k]
    g = math.gcd(d, *n)
    if d < 0:
        g = -g
    p = object.__new__(Poly)
    object.__setattr__(p, "d", d // g)
    object.__setattr__(p, "n", tuple([x // g for x in n]) if g != 1
                       else tuple(n))
    return p


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic polynomial gcd (zero for a = b = 0): the last nonzero term of
    the primitive remainder sequence (Brown 1971) of the primitive parts of
    the numerators of a and b."""
    a, b = _primitive(a.n), _primitive(b.n)
    while b:
        a, b = b, _neg_prem(a, b)
    return _poly(a, a[-1] if a else 1)


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition: p = lead * prod g_i^i with g_i monic squarefree.

    Returns the nontrivial (g_i, i) pairs in increasing multiplicity order.
    """
    if p.degree < 1:
        return []
    p = p.monic()
    d = p.deriv()
    a = gcd(p, d)
    # a gcd of degree 0 is the constant 1, so its divisions are skipped
    b, c = (p // a, d // a) if a.degree > 0 else (p, d)
    out = []
    i = 1
    while b.degree > 0:
        d2 = c - b.deriv()
        g = gcd(b, d2)
        if g.degree > 0:
            out.append((g, i))
            b, c = b // g, d2 // g
        else:
            c = d2
        i += 1
    return out


def irreducible_factors(p: Poly) -> list[Poly]:
    """Monic irreducible factors of p over the rationals, with repetition
    according to multiplicity: each squarefree part is factored over Z by
    :func:`_factor_squarefree`."""
    out = []
    for g, m in squarefree_decomposition(p):
        for f in _factor_squarefree(_primitive(g.n)):
            out.extend([_poly(f, f[-1])] * m)
    return out


# -- Factoring over Z (Zassenhaus 1969; von zur Gathen and Gerhard, Modern
# Computer Algebra, ch. 14-15).  A polynomial mod m is a list of ascending
# residues in [0, m) without trailing zeros.

def _odd_primes():
    """3, 5, 7, 11, ..., by trial division."""
    p = 1
    while True:
        p += 2
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p


def _pnorm(a: Sequence[int], m: int) -> list[int]:
    a = [x % m for x in a]
    while a and not a[-1]:
        a.pop()
    return a


def _padd(a, b, m, k=1):
    """a + k b mod m."""
    return _pnorm([x + k * y for x, y in zip_longest(a, b, fillvalue=0)], m)


def _pmul(a, b, m):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _pnorm(out, m)


def _pdivmod(a, b, m):
    """(q, r) with a = q b + r mod m and deg r < deg b, for a unit lead(b)."""
    inv, db = pow(b[-1], -1, m), len(b) - 1
    r, q = list(a), [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = f = r[k + db] * inv % m
        for i, c in enumerate(b):
            r[k + i] -= f * c
    return _pnorm(q, m), _pnorm(r[:db], m)


def _pgcd(a, b, p):
    """Monic gcd of a != 0 and b mod the prime p."""
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _pmul(a, [pow(a[-1], -1, p)], p)


def _ppow(a, e, f, p):
    """a^e mod f, mod p, for deg a < deg f."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _pdivmod(_pmul(out, out, p), f, p)[1]
        if bit == "1":
            out = _pdivmod(_pmul(out, a, p), f, p)[1]
    return out


def _ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f mod p: pairs
    (g, d), g the product of the irreducible factors of degree d."""
    out, h, d = [], [0, 1], 0
    while len(f) > 2 * d + 2:
        d += 1
        h = _ppow(h, p, f, p)                       # x^(p^d) mod f
        g = _pgcd(f, _padd(h, [0, 1], p, -1), p)
        if len(g) > 1:
            out.append((g, d))
            f = _pdivmod(f, g, p)[0]
            h = _pdivmod(h, f, p)[1]
    return out + [(f, len(f) - 1)] * (len(f) > 1)


def _edf(g, d, p, rng):
    """The monic factors of g mod the odd prime p, all of degree d
    (Cantor and Zassenhaus)."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _pnorm([rng.randrange(p) for _ in range(len(g) - 1)], p)
        u = _pgcd(g, _padd(_ppow(a, (p**d - 1) // 2, g, p), [1], p, -1), p)
        if 1 < len(u) < len(g):
            return (_edf(u, d, p, rng)
                    + _edf(_pdivmod(g, u, p)[0], d, p, rng))


def _hensel(f, gs, p, big):
    """Monic factors mod big = p^(2^j) of f, monic mod big, that lift the
    pairwise coprime monic factors gs of f mod p: a tree of quadratic
    Hensel steps (von zur Gathen and Gerhard, Algorithm 15.10)."""
    if len(gs) == 1:
        return [f]
    k = len(gs) // 2
    g, h = (reduce(lambda a, b: _pmul(a, b, p), half)
            for half in (gs[:k], gs[k:]))
    r0, r1, s, s1 = g, h, [1], []        # s g + t h = 1 mod p
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1, s, s1 = r1, r, s1, _padd(s, _pmul(q, s1, p), p, -1)
    s = _pmul(s, [pow(r0[0], -1, p)], p)
    t = _pdivmod(_padd([1], _pmul(s, g, p), p, -1), h, p)[0]
    m = p
    while m < big:
        m *= m
        e = _padd(f, _pmul(g, h, m), m, -1)
        q, r = _pdivmod(_pmul(s, e, m), h, m)
        g = _padd(g, _padd(_pmul(t, e, m), _pmul(q, g, m), m), m)
        h = _padd(h, r, m)
        b = _padd(_padd(_pmul(s, g, m), _pmul(t, h, m), m), [1], m, -1)
        c, d = _pdivmod(_pmul(s, b, m), h, m)
        s = _padd(s, d, m, -1)
        t = _padd(t, _padd(_pmul(t, b, m), _pmul(c, g, m), m), m, -1)
    return _hensel(g, gs[:k], p, big) + _hensel(h, gs[k:], p, big)


def _factor_squarefree(f: IntPoly, done=None) -> list[IntPoly]:
    """The primitive irreducible factors over Z of a squarefree primitive
    integer polynomial f of positive degree.

    Of the first five odd primes p that keep the degree and squarefreeness
    of f mod p, each decided by trial division, the one with the fewest
    factors mod p is taken.  Those factors are split with a fixed seed,
    Hensel-lifted mod p^(2^j) beyond twice the Mignotte bound on lead(f)
    times a factor of f, and recombined in subsets by exact division.

    ``done``, a test on a monic Poly, ends the recombination as soon as
    the remaining cofactor passes it; that cofactor comes last, unsplit."""
    best, tried = (len(f), 0, []), 0
    for p in _odd_primes():
        if tried == 5 or best[0] == 1:
            break
        if f[-1] % p == 0:
            continue
        fp = _pmul(f, [pow(f[-1], -1, p)], p)
        if len(_pgcd(fp, _pnorm([i * c for i, c in enumerate(f)][1:], p),
                     p)) == 1:
            tried += 1
            dd = _ddf(fp, p)
            best = min(best, (sum((len(g) - 1) // d for g, d in dd), p, dd))
    r, p, dd = best
    if r == 1:
        return [f]
    rng = random.Random(0)
    gs = [u for g, d in dd for u in _edf(g, d, p, rng)]
    bound = abs(f[-1]) * 2 ** len(f) * (math.isqrt(sum(c * c for c in f)) + 1)
    big = p
    while big <= 2 * bound:
        big *= big
    us = _hensel(_pmul(f, [pow(f[-1], -1, big)], big), gs, p, big)
    out, size = [], 1
    while 2 * size <= len(us) and not (done and done(_poly(f, f[-1]))):
        for sub in combinations(range(len(us)), size):
            g = reduce(lambda a, b: _pmul(a, b, big), [us[i] for i in sub],
                       [f[-1]])
            g = _primitive([c - big if 2 * c > big else c for c in g])
            q, rem = _poly(f).divmod(_poly(g))
            if rem.is_zero:
                out.append(g)
                f = _primitive(q.n)
                us = [u for i, u in enumerate(us) if i not in sub]
                break
        else:
            size += 1
    return out + [f]


# -- Rational roots over Z by p-adic lifting (Loos 1983, "Computing rational
# zeros of integral polynomials by p-adic expansion", SIAM J. Comput. 12).

def _pval(a: Sequence[int], x: int, m: int) -> int:
    """a(x) mod m."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def _rational_roots(a: IntPoly) -> list[Fraction]:
    """The rational roots of the primitive integer polynomial a, ascending.

    With L = lead(a), take the first odd prime p that does not divide L and
    at which every root of a mod p, found by trial, is simple.  Each lifts
    by Newton steps to a root rho mod p^(2^j) > 2 (|L| + max |a_i|), a bound
    on 2 |L x| for a root x.  A rational root x = u/v has v | L and reduces
    to one of them, so the symmetric residue c of L rho is L x: c/L is kept
    when it is an exact root.

    A prime that does not divide L but gives a multiple root mod p divides
    the discriminant of a, unless a is not squarefree; once the product of
    such primes exceeds the Hadamard bound on the discriminant, InvalidInput
    is raised.  A square factor without rational roots may pass the search;
    it stays in the residual, whose Sturm chain detects it."""
    n, lead = len(a) - 1, a[-1]
    da = [i * c for i, c in enumerate(a)][1:]
    limit = ((math.isqrt(sum(c * c for c in a)) + 1) ** (n - 1)
             * (math.isqrt(sum(c * c for c in da)) + 1) ** n)
    bad = 1
    for p in _odd_primes():
        if lead % p:
            ap, dap = _pnorm(a, p), _pnorm(da, p)
            roots = [r for r in range(p) if not _pval(ap, r, p)]
            if all(_pval(dap, r, p) for r in roots):
                break
            bad *= p
            if bad > limit:
                raise InvalidInput("polynomial is not squarefree")
    bound = abs(lead) + max(abs(c) for c in a)      # |L x| for a root x
    out = []
    for r in roots:
        m = p
        while m <= 2 * bound:
            m *= m                  # a(r) = 0 mod sqrt(m): one Newton step
            r = (r - _pval(a, r, m) * pow(_pval(da, r, m), -1, m)) % m
        c = lead * r % m
        if 2 * c > m:
            c -= m
        if abs(c) <= bound:
            x = Fraction(c, lead)
            if _horner(a, x.numerator, x.denominator) == 0:
                out.append(x)
    out.sort()
    return out


def _deflate(a: IntPoly, u: int, v: int) -> IntPoly:
    """a / (v z - u) for a factor v z - u of a over Z, by synthetic
    division (a_i = v q_(i-1) - u q_i, from the top): no Fraction, unlike
    Poly division."""
    q = [0] * (len(a) - 1)
    acc = 0
    for i in range(len(a) - 1, 0, -1):
        acc = q[i - 1] = (a[i] + u * acc) // v
    return tuple(q)


# -- Sturm machinery on primitive integer polynomials -------------------------
#
# A polynomial is cleared of denominators and content, its Sturm chain is
# built from sign-corrected pseudo-remainders, and every sign at a rational
# u/v is read off the integer v^n a(u/v) by homogeneous Horner evaluation, so
# no Fraction enters these loops.

IntPoly = tuple[int, ...]   # ascending integer coefficients


def _primitive(ints: Sequence[int]) -> IntPoly:
    """ints divided by their positive content; () for the zero polynomial."""
    while ints and ints[-1] == 0:
        ints = ints[:-1]
    if not ints:
        return ()
    g = math.gcd(*ints)
    return tuple(ints) if g == 1 else tuple([x // g for x in ints])


def _horner(a: Sequence[int], u: int, v: int) -> int:
    """The integer v^deg(a) * a(u/v), by homogeneous Horner evaluation."""
    acc = 0
    w = 1
    for c in reversed(a):
        acc = acc * u + c * w
        w *= v
    return acc


def _sign_at(a: IntPoly, u: int, v: int) -> int:
    """Sign of a(u/v) for v > 0."""
    x = _horner(a, u, v)
    return (x > 0) - (x < 0)


def _neg_prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """The primitive positive multiple of -(a mod b); () when b divides a.

    Each elimination step scales the remainder by |lead(b)|, a positive
    factor, so the sign of the classical remainder is kept."""
    r = list(a)
    lb = abs(b[-1])
    s = 1 if b[-1] > 0 else -1
    db = len(b) - 1
    while len(r) > db:
        lr = r[-1]
        if lr:
            k = len(r) - 1 - db
            f = s * lr
            r = [x * lb for x in r]
            for i, c in enumerate(b):
                r[k + i] -= f * c
        r.pop()
    return _primitive([-x for x in r])


@lru_cache(maxsize=STURM_CHAIN_CACHE_SIZE)
def sturm_chain(p: Poly) -> tuple[IntPoly, ...]:
    """Sturm chain of p as primitive integer polynomials: p, p' and the
    negated remainders, each a positive multiple of its classical term, so
    sign variations are those of the classical chain.  Memoised on the
    value of p."""
    chain = [_primitive(p.n)]
    nxt = _primitive([i * c for i, c in enumerate(chain[0])][1:])
    while nxt:
        chain.append(nxt)
        nxt = _neg_prem(chain[-2], chain[-1])
    return tuple(chain)


def _signs(chain: Sequence[IntPoly], x: Fraction) -> list[int]:
    u, v = x.numerator, x.denominator
    return [_sign_at(a, u, v) for a in chain]


def _variations(signs: Iterable[int]) -> int:
    nz = [s for s in signs if s]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def _variations_at(chain: Sequence[IntPoly], x) -> int:
    """Sign variations of the chain at the rational x, NEG_INF or INF."""
    if x is NEG_INF or x is INF:
        at_inf = -1 if x is NEG_INF else 1
        return _variations((1 if a[-1] > 0 else -1)
                           * (at_inf if len(a) % 2 == 0 else 1)
                           for a in chain)
    return _variations(_signs(chain, rat(x)))


def count_real_roots(p: Poly, lo=NEG_INF, hi=INF, chain=None) -> int:
    """Number of distinct real roots of p in (lo, hi], when p is
    squarefree or neither end is a multiple root of p.

    The ends are rationals, NEG_INF or INF; ``chain`` defaults to
    ``sturm_chain(p)``.
    """
    if p.degree < 1:
        return 0
    if chain is None:
        chain = sturm_chain(p)
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def isolate_real_roots(p: Poly) -> list[tuple[Fraction, Fraction]]:
    """The real roots of a squarefree p, ascending: ``(r, r)`` for a
    rational root r, else an open interval with nonzero endpoint values
    holding exactly one root, which is irrational.

    The rational roots are found directly by p-adic lifting, and only the
    residual, which has no rational root, is separated by Sturm bisection
    (:func:`_real_roots`).  Raises :class:`InvalidInput` when p is not
    squarefree.
    """
    rats, _h, boxes = _real_roots(p)
    return sorted([(r, r) for r in rats] + boxes)


def _real_roots(p: Poly) -> tuple[list[Fraction], Poly,
                                  list[tuple[Fraction, Fraction]]]:
    """The rational roots of a squarefree p, ascending; the residual h, p
    without its rational linear factors, monic; and isolating boxes of the
    real roots of h, which each hold no rational root of p.

    h has no rational root, so it is nonzero at every dyadic point u/2^e,
    and Sturm bisection of its chain needs neither a root test nor a
    Fraction: a box is a dyadic cell (u/2^e, (u+1)/2^e), with e < 0 for the
    cells wider than 1, bisected until it holds one root of h and then only
    while its closure holds a rational root of p.
    """
    if p.degree < 1:
        return [], p, []
    _a, rats, h, hp = _rational_split(p)
    if len(h) < 3:                  # h has no rational root, so no degree 1
        return rats, hp, []
    chain = sturm_chain(hp)
    if len(chain[-1]) > 1:          # gcd(h, h') is not a constant
        raise InvalidInput("polynomial is not squarefree")
    if _variations_at(chain, NEG_INF) == _variations_at(chain, INF):
        return rats, hp, []

    def var(u: int, e: int) -> int:
        x, v = _dyadic(u, e)
        return _variations([_sign_at(c, x, v) for c in chain])

    # every root of h lies in (-2^k, 2^k) (Cauchy)
    k = (max(abs(c) for c in h[:-1]) // abs(h[-1]) + 1).bit_length()
    v_lo, v_mid, v_hi = var(-1, -k), var(0, 0), var(1, -k)
    stack = [(-1, -k, v_lo, v_mid), (0, -k, v_mid, v_hi)]
    boxes = []
    while stack:
        u, e, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            boxes.append(_exclude(h, u, e, rats))
        elif v_lo - v_hi > 1:
            v_mid = var(2 * u + 1, e + 1)
            stack.append((2 * u, e + 1, v_lo, v_mid))
            stack.append((2 * u + 1, e + 1, v_mid, v_hi))
    return rats, hp, boxes


def _rational_split(p: Poly) -> tuple:
    """The primitive integer coefficients a of a nonconstant p, its
    rational roots ascending, and the residual, a without its rational
    linear factors, as integers h and as the monic Poly hp."""
    a = _primitive(p.n)
    rats = _rational_roots(a)
    h = a
    for r in rats:
        h = _deflate(h, r.numerator, r.denominator)
    return a, rats, h, _poly(h, h[-1])


def _dyadic(u: int, e: int) -> tuple[int, int]:
    """u/2^e as (numerator, positive denominator), for any int e."""
    return (u, 1 << e) if e >= 0 else (u << -e, 1)


def _exclude(h: IntPoly, u: int, e: int, rats: Sequence[Fraction]
             ) -> tuple[Fraction, Fraction]:
    """The cell (u/2^e, (u+1)/2^e), holding one root of h, bisected until
    its closure holds none of the rationals rats, as Fractions."""
    s_lo = None
    while True:
        (lo, v), (hi, _v) = _dyadic(u, e), _dyadic(u + 1, e)
        if not any(lo * r.denominator <= r.numerator * v <= hi * r.denominator
                   for r in rats):
            return Fraction(lo, v), Fraction(hi, v)
        if s_lo is None:
            s_lo = _sign_at(h, lo, v)
        u, e = 2 * u, e + 1
        if _sign_at(h, *_dyadic(u + 1, e)) == s_lo:
            u += 1                  # the root is right of the midpoint


class RealAlg:
    """A real algebraic number: a squarefree defining polynomial with no
    rational roots (not necessarily irreducible) and an open isolating
    interval, the box, that holds exactly one of its roots.

    The box is a private cache, not data.  Construction keeps the box it is
    given; each query (:meth:`cmp_rat`, :meth:`cmp_alg`, :meth:`sign_of`,
    :meth:`floor_div`, ``float``) bisects it only until its exact answer is
    decided, and no answer depends on how far earlier queries refined it.
    The box only ever shrinks and is replaced in a single attribute write,
    so concurrent refinement from several threads stays consistent."""

    __slots__ = ("p", "box", "_ints", "_lo_neg")

    def __init__(self, p: Poly, lo: Fraction, hi: Fraction):
        ints = _primitive(p.n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "box", (lo, hi))
        object.__setattr__(self, "_ints", ints)
        # inside the box p has one sign left of the root, so the sign at
        # the first lo holds at every later lo
        object.__setattr__(self, "_lo_neg",
                           _sign_at(ints, lo.numerator, lo.denominator) < 0)

    def __setattr__(self, *a):
        raise AttributeError("RealAlg is immutable")

    def _split(self, x: Fraction) -> int:
        """Shrink the box to the side of x, strictly inside it, that holds
        the number; return the sign of (self - x)."""
        lo, hi = self.box
        # p has no rational roots, so p(x) != 0
        if (_sign_at(self._ints, x.numerator, x.denominator) < 0) \
                == self._lo_neg:
            object.__setattr__(self, "box", (x, hi))
            return 1
        object.__setattr__(self, "box", (lo, x))
        return -1

    def _step(self):
        lo, hi = self.box
        self._split((lo + hi) / 2)

    # -- queries ----------------------------------------------------------------
    def __float__(self):
        """The correctly rounded double: bisect until both ends of the box
        round to the same double."""
        while True:
            lo, hi = self.box
            f = float(lo)
            if f == float(hi):
                return f
            self._step()

    def __repr__(self):
        return f"RealAlg~{float(self):.6g}"

    def cmp_rat(self, x) -> int:
        """Sign of (self - x) for rational x; never 0 (self is irrational)."""
        x = rat(x)
        lo, hi = self.box
        if x <= lo:
            return 1
        if x >= hi:
            return -1
        return self._split(x)

    def floor_div(self, w) -> int:
        """Exact floor(self / w) for a rational w > 0."""
        w = rat(w)
        while True:
            lo, hi = self.box
            k = math.floor(lo / w)
            m = (k + 1) * w             # the least multiple of w above lo
            if m >= hi:
                return k
            if hi - lo <= w:            # m is the only multiple in the box
                return k + 1 if self._split(m) > 0 else k
            self._step()

    def sign_of(self, q: Poly) -> int:
        """Exact sign of q evaluated at this number."""
        if q.is_zero:
            return 0
        chain = sturm_chain(q)
        g = None    # needed only once q has a root in the box
        # refine until q has no root in [lo, hi], then the sign is constant
        while True:
            lo, hi = self.box
            v = _sign_at(chain[0], lo.numerator, lo.denominator)
            if v and count_real_roots(q, lo, hi, chain) == 0:
                return v
            if g is None:
                g = gcd(self.p, q)
                if g.degree > 0 and count_real_roots(g, lo, hi) > 0:
                    # the only root of p in the box is shared with q
                    return 0
            self._step()

    def cmp_alg(self, other: "RealAlg") -> int:
        if self is other:
            return 0
        g = None    # needed only once the boxes overlap
        while True:
            (alo, ahi), (blo, bhi) = self.box, other.box
            if ahi <= blo:
                return -1
            if bhi <= alo:
                return 1
            if g is None:
                g = gcd(self.p, other.p)
            lo, hi = max(alo, blo), min(ahi, bhi)
            # a root of g in the overlap is the one root of each p there
            if (g.degree > 0
                    and count_real_roots(g, lo, hi) > 0
                    and count_real_roots(self.p, lo, hi) == 1
                    and count_real_roots(other.p, lo, hi) == 1):
                return 0
            (self if ahi - alo >= bhi - blo else other)._step()


RPoint = Union[Fraction, RealAlg]


def point_cmp(a, b) -> int:
    """Total order on the extended real line: NEG_INF below every rational
    and real algebraic point, INF above every one, and each infinity equal
    to itself."""
    if a is NEG_INF or b is INF:
        return -(a is not b)
    if a is INF or b is NEG_INF:
        return 1
    if isinstance(a, RealAlg):
        if isinstance(b, RealAlg):
            return a.cmp_alg(b)
        return a.cmp_rat(b)
    if isinstance(b, RealAlg):
        return -b.cmp_rat(a)
    a, b = rat(a), rat(b)
    return (a > b) - (a < b)


@dataclass(frozen=True)
class RootRecord:
    """A real or infinite zero/pole with its exact multiplicity."""

    point: object  # Fraction | RealAlg, or INF for the point at infinity
    mult: int

    @property
    def parity(self) -> str:
        return "odd" if self.mult % 2 else "even"

    @property
    def is_rational(self) -> bool:
        return isinstance(self.point, Fraction)


@dataclass(frozen=True)
class ConjugatePairBlock:
    """Count of the conjugate nonreal root pairs of ``factor``: the
    residual of one squarefree part after its rational roots are divided
    out.

    ``factor`` also holds the ``real_roots`` irrational real roots of that
    residual, so it is an exact polynomial witness of the pairs only when
    ``real_roots == 0``; otherwise the pairs are split off by factoring it
    over the rationals, where and when a caller needs them apart.
    """

    factor: Poly
    pairs: int
    mult: int
    real_roots: int


class RootStructure(NamedTuple):
    real: tuple[RootRecord, ...]            # finite real roots, ascending
    blocks: tuple[ConjugatePairBlock, ...]  # conjugate-pair content


@lru_cache(maxsize=ROOT_STRUCTURE_CACHE_SIZE)
def real_root_structure(p: Poly) -> RootStructure:
    """Real roots of p with exact multiplicities plus its conjugate-pair
    blocks.

    The real roots of each squarefree part g are isolated once, by the
    helper of :func:`isolate_real_roots`: rational roots become rational
    records, and the residual h it divides out, g without its rational
    linear factors, gives the rest.  Each irrational real root
    becomes a :class:`RealAlg` record on h, and when h also has nonreal
    roots they are one conjugate-pair block on h.  Nothing is factored
    here.  The result is memoised on the value of p and shared, so it is
    immutable; the isolating boxes of its RealAlg records only ever shrink.
    """
    real: list[RootRecord] = []
    blocks: list[ConjugatePairBlock] = []
    for g, m in squarefree_decomposition(p):
        rats, h, boxes = _real_roots(g)
        real.extend(RootRecord(r, m) for r in rats)
        real.extend(RootRecord(RealAlg(h, lo, hi), m) for lo, hi in boxes)
        if len(boxes) < h.degree:
            blocks.append(ConjugatePairBlock(
                h, (h.degree - len(boxes)) // 2, m, len(boxes)))
    real.sort(key=cmp_to_key(lambda a, b: point_cmp(a.point, b.point)))
    return RootStructure(tuple(real), tuple(blocks))


def interlaced_root_structure(p: Poly, poles: Sequence[Fraction],
                              left: bool, right: bool) -> RootStructure:
    """The root structure of a p with one real simple root between each
    pair of neighbouring rationals of ``poles`` (ascending), one below them
    if ``left`` and one above if ``right`` (with no poles, one if both),
    and no other: the zeros of a rational Nevanlinna function and its atoms.
    A cell without a rational root boxes an irrational root of the residual,
    the outer cells cut at the Cauchy bound of p.  No Sturm chain is taken;
    records not one per cell and deg p in all raise InvariantViolation."""
    if p.degree < 1:
        return RootStructure((), ())
    a, rats, _h, hp = _rational_split(p)
    k = (max(abs(c) for c in a[:-1]) // abs(a[-1]) + 1).bit_length()
    ends = [Fraction(-2**k)] + list(poles) + [Fraction(2**k)]
    cells = list(zip(ends, ends[1:]))       # every root in (-2^k, 2^k)
    cells = cells[0 if left else 1:len(cells) - (not right)]
    pts = []
    for lo, hi in cells:
        inside = [r for r in rats if lo < r < hi]
        pts.append(inside[0] if inside else RealAlg(hp, lo, hi))
    used = sum(isinstance(x, Fraction) for x in pts)
    if len(pts) != p.degree or used != len(rats):
        raise InvariantViolation("zeros do not interlace with the poles")
    return RootStructure(tuple(RootRecord(x, 1) for x in pts), ())


def rational_between(a: RPoint, b: RPoint) -> Fraction:
    """An exact rational strictly between the points a < b.

    For two rationals it is their midpoint.  When an endpoint is irrational
    it is the least dyadic rational with the smallest denominator in (a, b),
    so it depends only on the values of a and b."""
    if not (isinstance(a, RealAlg) or isinstance(b, RealAlg)):
        a, b = rat(a), rat(b)
        if not a < b:
            raise InvalidInput("need a < b")
        return (a + b) / 2
    if point_cmp(a, b) >= 0:
        raise InvalidInput("need a < b")
    w = Fraction(1)
    while True:
        # cand is the least multiple of w above a
        cand = (a.floor_div(w) + 1 if isinstance(a, RealAlg)
                else math.floor(rat(a) / w) + 1) * w
        if point_cmp(cand, b) < 0:
            return cand
        w /= 2


def rational_outside(p: RPoint) -> tuple[Fraction, Fraction]:
    """Rationals at least 1 below and above the point p: p - 1 and p + 1
    for a rational p, floor(p) - 1 and floor(p) + 2 for an irrational one."""
    if isinstance(p, RealAlg):
        f = p.floor_div(1)
        return Fraction(f - 1), Fraction(f + 2)
    p = rat(p)
    return p - 1, p + 1


def compose_fractional(p: Poly, num: Poly, den: Poly, pad_to: int) -> Poly:
    """p(num/den) * den**pad_to as a polynomial; requires pad_to >= deg p."""
    if pad_to < p.degree:
        raise InvalidInput("pad_to must be at least deg p")
    if p.is_zero:
        return Poly()
    acc = Poly()
    num_pow = Poly.const(1)
    dens = [Poly.const(1)]
    for _ in range(pad_to):
        dens.append(dens[-1] * den)
    for k, a in enumerate(p.n):
        if a:
            acc = acc + num_pow * dens[pad_to - k] * a
        num_pow = num_pow * num
    return _poly(acc.n, acc.d * p.d)
