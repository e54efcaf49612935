"""Dense univariate polynomials over the exact rationals.

A polynomial is stored in integer-primitive form: one positive integer
denominator and a tuple of integer numerators, so the arithmetic, the gcd
(a primitive remainder sequence) and the square-free machinery the
rational-function layer builds on all run on Python ints, and a Fraction is
made only where a coefficient or a value is read out.  On top of it sits
certified real-root location on the primitive integer form of a polynomial:
its rational roots are found exactly by lifting its roots modulo a small
prime p-adically, and the remaining real roots, those of the residual
without rational roots, are separated by Descartes' rule of signs on dyadic
cells (Vincent-Collins-Akritas bisection) into rational intervals,
represented as lazy :class:`RealAlg` values, which refine their interval
only as far as an exact sign query or comparison needs.  Root counts read
the same table.
:func:`real_root_structure` is the one place where the real roots and
conjugate-pair content of a polynomial are derived, as one table of
(point, multiplicity) and (residual, multiplicity) pairs, which a
:class:`~nevkit.ratfun.RatFun` keeps for its numerator and denominator.
Everything this module returns about an irrational point (comparisons,
signs, floors, the rationals of :func:`rational_between` and
:func:`rational_outside`) depends only on the point's value, never on how
far its interval happens to be refined.
"""

from __future__ import annotations


import math
import random
from fractions import Fraction
from functools import cmp_to_key, reduce
from itertools import combinations, zip_longest
from typing import Iterable, Sequence, Union

from .errors import ExactSplitUnavailable, InvalidInput, InvariantViolation
from .qmath import INF, NEG_INF, QC, as_float, is_float_point, rat

#: resolution w of the emitted approximations of irrational points: an
#: irrational x is emitted as (floor(x/w) + 1/2) * w
DEFAULT_ISOLATION_WIDTH = Fraction(1, 2**64)


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
    def from_roots(roots: Sequence, lead=1) -> "Poly":
        """lead * prod (z - r), as lead * prod (v z - u) / prod v in ints."""
        lead = rat(lead)
        n, d = [lead.numerator], lead.denominator
        for r in map(rat, roots):
            n = [r.denominator * y - r.numerator * x
                 for x, y in zip(n + [0], [0] + n)]
            d *= r.denominator
        return _poly(n, d)

    # -- basic queries ---------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.n) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.n

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
        if is_float_point(z):
            return self.eval_np(z)
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

    def eval_np(self, z):
        """p(z) at a float point by numpy's polyval recurrence."""
        c = self.float_coeffs() or [0.0]
        acc = c[-1] + z * 0
        for a in reversed(c[:-1]):
            acc = a + acc * z
        return acc

    def float_coeffs(self) -> list[float]:
        return [as_float(x, self.d) for x in self.n]


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


def nonreal_pieces(h: Poly) -> list[Poly]:
    """The monic factors over Q of a squarefree h that have no real root.

    h is factored only until every piece is pure, with only real roots or
    none, by :func:`_factor_squarefree`, which stops once the cofactor is
    pure.  Each distinct piece's real roots are counted once, by the stop
    test or the loop below, whichever sees it first.  A piece with both
    real and nonreal roots cannot be split exactly and raises
    ExactSplitUnavailable."""
    counts = {}

    def count(g: Poly) -> int:
        if g not in counts:
            counts[g] = count_real_roots(g)
        return counts[g]

    out = []
    for a in _factor_squarefree(_primitive(h.n),
                                lambda g: count(g) in (0, g.degree)):
        g = _poly(a, a[-1])
        n = count(g)
        if 0 < n < g.degree:
            raise ExactSplitUnavailable(
                "conjugate pairs share an odd-multiplicity factor "
                "with irrational real roots")
        if not n:
            out.append(g)
    return out


# -- Factoring over Z (Zassenhaus 1969; von zur Gathen and Gerhard, Modern
# Computer Algebra, ch. 14-15).  A polynomial mod m is a list of ascending
# residues in [0, m) without trailing zeros.

#: most subset trials of one recombination of modular factors, which can
#: otherwise take 2^(k-1) trials for k factors
RECOMBINATION_TRIALS = 1000


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
    the remaining cofactor passes it; that cofactor comes last, unsplit.
    More than RECOMBINATION_TRIALS trials raise ExactSplitUnavailable."""
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
    out, size, trials = [], 1, 0
    while 2 * size <= len(us) and not (done and done(_poly(f, f[-1]))):
        for sub in combinations(range(len(us)), size):
            trials += 1
            if trials > RECOMBINATION_TRIALS:
                raise ExactSplitUnavailable(
                    "factoring over the rationals needs more than "
                    f"{RECOMBINATION_TRIALS} recombination trials")
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
    """The rational roots of the primitive squarefree integer polynomial a,
    ascending.  Squarefreeness is the caller's to decide, as for every root
    kernel: a multiple rational root is a multiple root mod every prime, so
    the prime search below would not end.

    With L = lead(a), take the first odd prime p that does not divide L and
    at which every root of a mod p, found by trial, is simple; each prime
    dividing neither L nor the discriminant of a is one.  Each root lifts
    by Newton steps to a root rho mod p^(2^j) > 2 (|L| + max |a_i|), a
    bound on 2 |L x| for a root x.  A rational root x = u/v has v | L and
    reduces to one of them, so the symmetric residue c of L rho is L x:
    c/L is kept when it is an exact root."""
    lead = a[-1]
    da = [i * c for i, c in enumerate(a)][1:]
    for p in _odd_primes():
        if lead % p:
            ap, dap = _pnorm(a, p), _pnorm(da, p)
            roots = [r for r in range(p) if not _pval(ap, r, p)]
            if all(_pval(dap, r, p) for r in roots):
                break
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


# -- Real roots of primitive integer polynomials ------------------------------
#
# A polynomial is cleared of denominators and content, every sign at a
# rational u/v is read off the integer v^n a(u/v) by homogeneous Horner
# evaluation, and the real roots are isolated by Descartes' rule of signs on
# integer Taylor shifts, so the arithmetic on coefficients stays in ints.

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


def _variations(a: Iterable[int]) -> int:
    """Sign variations of the nonzero entries of a."""
    s = [x > 0 for x in a if x]
    return sum(x != y for x, y in zip(s, s[1:]))


def _taylor1(a: Sequence[int]) -> list[int]:
    """a(x + 1), ascending, by Horner steps on the coefficients."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def count_real_roots(p: Poly, lo=NEG_INF, hi=INF) -> int:
    """Number of distinct real roots of p in (lo, hi]: the points of p's
    table there.  The ends are rationals, NEG_INF or INF."""
    if p.degree < 1:
        return 0
    from .ratfun import RatFun     # ratfun builds on this module
    return sum(point_cmp(lo, x) < 0 <= point_cmp(hi, x)
               for x, _m in RatFun(p, Poly.const(1)).real_zeros)


def isolate_real_roots(p: Poly) -> list[tuple[Fraction, Fraction]]:
    """The real roots of a squarefree p, ascending: ``(r, r)`` for a
    rational root r, else an open interval with nonzero endpoint values
    holding exactly one root, which is irrational.

    Squarefreeness is decided on entry, by one gcd(p, p'): a p that is not
    squarefree raises :class:`InvalidInput` before any root search, and
    the kernels below rely on it.  The rational roots are found directly
    by p-adic lifting, and only the residual h, which has no rational
    root, is isolated by Descartes bisection (:func:`_boxes`).
    """
    if p.degree < 1:
        return []
    if gcd(p, p.deriv()).degree > 0:
        raise InvalidInput("polynomial is not squarefree")
    rats, h = _rational_split(_primitive(p.n))
    return sorted([(r, r) for r in rats] + _boxes(h, rats))


def _boxes(h: IntPoly, rats: Sequence[Fraction]
           ) -> list[tuple[Fraction, Fraction]]:
    """Isolating boxes of the real roots of a squarefree h without rational
    roots, whose closures hold none of the rationals rats.  Like
    :func:`_rational_roots`, it relies on its caller for squarefreeness.

    Vincent-Collins-Akritas bisection (Collins and Akritas 1976; Rouillier
    and Zimmermann 2004) on dyadic cells (lo, lo + w): a cell carries
    b(x) = h(lo + w x) in integers, and Descartes' rule bounds its roots in
    (0, 1) by the sign variations of (x + 1)^n b(1/(x + 1)), exactly when
    0 or 1.  A cell with one root is kept unless its closure holds one of
    rats; that one and a cell with more are halved.  h has no rational
    root, so none lies on a cell end.  The roots below 0 are those of h(-z)
    above it, their cells mirrored."""
    if len(h) < 3:                  # h has no rational root, so no degree 1
        return []
    k = _cauchy(h)
    boxes = []
    for s in (1, -1):
        stack = [(Fraction(0), Fraction(2**k),
                  _primitive([c * s**i << k * i for i, c in enumerate(h)]))]
        while stack:
            lo, w, b = stack.pop()
            v = _variations(_taylor1(b[::-1]))
            box = (lo, lo + w) if s > 0 else (-lo - w, -lo)
            if v == 1 and not any(box[0] <= r <= box[1] for r in rats):
                boxes.append(box)
            elif v:                 # halves: 2^n b(x/2) and its shift by 1
                n = len(b) - 1
                left = _primitive([c << n - i for i, c in enumerate(b)])
                w /= 2
                stack += [(lo, w, left), (lo + w, w, _taylor1(left))]
    return boxes


def _rational_split(a: IntPoly) -> tuple[list[Fraction], IntPoly]:
    """The rational roots of the primitive integer polynomial a of positive
    degree, ascending, and the residual h, a without its rational linear
    factors, in integers."""
    rats = _rational_roots(a)
    h = a
    for r in rats:
        h = _deflate(h, r.numerator, r.denominator)
    return rats, h


def _cauchy(a: IntPoly) -> int:
    """The k, for a of positive degree, such that every root of a lies in
    (-2^k, 2^k) (Cauchy)."""
    return (max(abs(c) for c in a[:-1]) // abs(a[-1]) + 1).bit_length()


class RealAlg:
    """A real algebraic number: a squarefree defining polynomial with no
    rational roots (not necessarily irreducible) and an open isolating
    interval, the box, that holds exactly one of its roots.

    The box is a private cache, not data.  Construction keeps the box it is
    given; each query (:meth:`cmp_rat`, :meth:`cmp_alg`, :meth:`floor_div`,
    ``float``) bisects it only until its exact answer is decided, and no
    answer depends on how far earlier queries refined it.  :meth:`sign_of`
    counts no roots: it locates the number among q's real roots.
    The box only ever shrinks and is replaced in a single attribute write,
    so concurrent refinement from several threads stays consistent."""

    __slots__ = ("p", "box", "_lo_neg")

    def __init__(self, p: Poly, lo: Fraction, hi: Fraction):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "box", (lo, hi))
        # inside the box p has one sign left of the root, so the sign at
        # the first lo holds at every later lo; p.n is d p, d > 0
        object.__setattr__(self, "_lo_neg",
                           _sign_at(p.n, lo.numerator, lo.denominator) < 0)

    def __setattr__(self, *a):
        raise AttributeError("RealAlg is immutable")

    def _split(self, x: Fraction) -> int:
        """Shrink the box to the side of x, strictly inside it, that holds
        the number; return the sign of (self - x)."""
        lo, hi = self.box
        # p has no rational roots, so p(x) != 0
        if (_sign_at(self.p.n, x.numerator, x.denominator) < 0) \
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
        """The correctly rounded double, +-inf beyond the float range as
        IEEE rounding gives: bisect until both ends of the box round to the
        same double."""
        while True:
            f, g = (_round_float(x) for x in self.box)
            if f == g:
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
        """Exact sign of q at this number, 0 at a root of q: the sign rule
        on q's table, which compares this number only with q's real
        roots."""
        from .ratfun import RatFun     # ratfun builds on this module
        return 0 if q.is_zero else RatFun(q, Poly.const(1)).sign_at(self)

    def cmp_alg(self, other: "RealAlg") -> int:
        """Sign of (self - other).  The numbers are equal exactly when g =
        gcd of the two polynomials changes sign over the overlap of the
        boxes: g divides both, so it is nonzero at every box end, and a
        root of g there is the one root of each polynomial in its box, a
        simple root of g."""
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
            if _changes_sign(g, max(alo, blo), min(ahi, bhi)):
                return 0
            (self if ahi - alo >= bhi - blo else other)._step()


def _round_float(x: Fraction) -> float:
    """x correctly rounded to a double, +-inf beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _changes_sign(g: Poly, lo: Fraction, hi: Fraction) -> bool:
    """Whether a nonconstant g has opposite signs at lo and hi."""
    return g.degree > 0 and (_sign_at(g.n, lo.numerator, lo.denominator)
                             != _sign_at(g.n, hi.numerator, hi.denominator))


RPoint = Union[Fraction, RealAlg]


def point_cmp(a, b) -> int:
    """Total order on the extended real line: NEG_INF below every rational
    and real algebraic point, INF above every one, and each infinity equal
    to itself.  Two Fractions compare by integer cross-multiplication."""
    if type(a) is Fraction and type(b) is Fraction:
        x, y = a.numerator * b.denominator, b.numerator * a.denominator
        return (x > y) - (x < y)
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


_BY_POINT = cmp_to_key(lambda x, y: point_cmp(x[0], y[0]))  # (point, m) pairs


def real_root_structure(p: Poly) -> tuple:
    """The table of the roots of p, (points, blocks): its finite real
    roots as ascending (point, multiplicity) and its conjugate-pair content
    as (monic residual h, multiplicity), the shape of
    :func:`interlaced_root_structure`.

    The real roots of each squarefree part g of Yun's decomposition, which
    decides squarefreeness here, are isolated once, as by
    :func:`isolate_real_roots`: rational roots are exact points, and the
    residual h, g without its rational linear factors, gives the rest.
    Each irrational real root becomes a :class:`RealAlg` point on h, and
    when h also has nonreal roots it is a block, whose (deg h - its RealAlg
    points) / 2 pairs nothing here splits off: nothing is factored.  Each
    call analyses p afresh: a RatFun keeps the table of its num and den,
    and the isolating boxes of its RealAlg points only ever shrink.
    """
    points, blocks = [], []
    for g, m in squarefree_decomposition(p):
        rats, h = _rational_split(_primitive(g.n))
        boxes, hp = _boxes(h, rats), _poly(h, h[-1])
        points += [(r, m) for r in rats]
        points += [(RealAlg(hp, lo, hi), m) for lo, hi in boxes]
        if len(boxes) < hp.degree:
            blocks.append((hp, m))
    points.sort(key=_BY_POINT)
    return tuple(points), tuple(blocks)


def interlaced_root_structure(p: Poly, poles: Sequence[Fraction],
                              left: bool, right: bool) -> tuple:
    """The table (see ratfun) of p / prod (z - t) over the ascending
    rationals t of ``poles``, simple poles, when p has one real simple root
    between each pair of neighbouring poles, one below them if ``left`` and
    one above if ``right`` (with no poles, one if both), and no other: the
    zeros of a rational Nevanlinna function interlaced with its atoms, so
    p is squarefree, as the root kernels need.  A cell without a rational
    root boxes an irrational root of the residual, the outer cells cut at
    the Cauchy bound of p.  Nothing is bisected; records not one per cell
    and deg p in all raise InvariantViolation."""
    if p.degree < 1:
        return tuple((t, -1) for t in poles), ()
    a = _primitive(p.n)
    rats, h = _rational_split(a)
    hp, k = _poly(h, h[-1]), _cauchy(a)
    ends = [Fraction(-2**k)] + list(poles) + [Fraction(2**k)]
    table = []                              # every root in (-2^k, 2^k)
    for i, (lo, hi) in enumerate(zip(ends, ends[1:])):
        if i:
            table.append((lo, -1))
        if (left or i) and (right or i < len(poles)):
            inside = [r for r in rats if lo < r < hi]
            table.append((inside[0] if inside else RealAlg(hp, lo, hi), 1))
    used = sum(isinstance(x, Fraction) for x, _e in table) - len(poles)
    if len(table) - len(poles) != p.degree or used != len(rats):
        raise InvariantViolation("zeros do not interlace with the poles")
    return tuple(table), ()


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
    """p(num/den) * den**pad_to as a polynomial; requires pad_to >= deg p.
    Homogeneous Horner on the integer numerators of p keeps one running
    power of den, as :meth:`Poly.eval_qc` keeps one of w."""
    if pad_to < p.degree:
        raise InvalidInput("pad_to must be at least deg p")
    acc, dk = Poly(), Poly.const(1)
    for a in reversed(p.n):
        acc, dk = acc * num + dk * a, dk * den
    acc = acc * den ** (pad_to - p.degree)
    return _poly(acc.n, acc.d * p.d)
