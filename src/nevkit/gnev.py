"""Generalized Nevanlinna functions as canonical pairs.

A :class:`GenNevFun` is a nonnegative rational factor together with an
ordinary Nevanlinna function; its negative index is read off the factor's
multiplicities.  The generalized zeros and poles of nonpositive type of a
symmetric rational function form one signed table, as its zeros and poles
do: (point, m) pairs, m > 0 at a zero and m < 0 at a pole.  One rule,
:func:`_type_mult`, decides m from the exact signed order and the sign just
right of the point, read off odd-order point counts, and the canonical
factorization of an arbitrary symmetric rational function is built from
that table alone.
"""

from __future__ import annotations

from .errors import (ConstantInput, ExactSplitUnavailable, InvalidInput,
                     NotNevanlinna, NotNevanlinnaTau)
from .nevfun import NevFun, _compose, nevfun_from_ratfun
from .poly import RealAlg, nonreal_pieces
from .qmath import INF
from .ratfun import RatFun, from_table


def _type_mult(order: int, sign: int) -> int:
    """Signed nonpositive-type multiplicity of a point where a function has
    the signed order (> 0 at a zero, < 0 at a pole) and the sign just right
    of the point: half the order, rounded away from zero at a negative
    point of odd order (sign < 0 at a zero, sign > 0 at a pole) and towards
    zero elsewhere."""
    k = abs(order)
    negative = sign < 0 if order > 0 else sign > 0
    m = k // 2 + (k % 2 == 1 and negative)
    return m if order > 0 else -m


def nonpositive_type_records(f: RatFun) -> list[tuple]:
    """The points of nonpositive type of a symmetric rational function as
    (point, m) pairs, m > 0 at a generalized zero and m < 0 at a generalized
    pole: the zeros ascending, then the poles ascending, then infinity,
    read in the variable -1/z, just right of whose 0 an odd order has the
    sign -sign(gamma)."""
    table = [(x, m) for x, e in [*f.critical_points(), (INF, f.ord_at_inf())]
             if (m := _type_mult(e, -f.gamma if x is INF
                                 else f.laurent_lead_sign(x)))]
    return sorted(table, key=lambda xm: (xm[0] is INF, xm[1] < 0))


class GenNevFun:
    """Canonical pair: nonnegative rational factor times a Nevanlinna
    function.  The factor is normalized to leading-coefficient one; any
    positive constant is folded into the Nevanlinna part."""

    __slots__ = ("phi", "q0", "kappa")

    def __init__(self, phi: RatFun, q0: NevFun):
        if phi.is_zero:
            raise InvalidInput("factor must be nonzero")
        g = phi.gamma
        if g != 1:
            if g <= 0:
                raise InvalidInput("factor must be positive at its leading order")
            phi = phi / g
            q0 = q0.scale(g)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "kappa", factor_index(phi))

    def __setattr__(self, *a):
        raise AttributeError("GenNevFun is immutable")

    @staticmethod
    def from_nevfun(q: NevFun) -> "GenNevFun":
        return GenNevFun(RatFun.const(1), q)

    def __eq__(self, other):
        return (isinstance(other, GenNevFun) and self.phi == other.phi
                and self.q0 == other.q0)

    def __repr__(self):
        return f"GenNevFun(kappa={self.kappa}, phi={self.phi!r}, q0={self.q0!r})"

    # -- evaluation -------------------------------------------------------------
    def evaluate(self, z):
        return self.phi(z) * self.q0.evaluate(z)

    __call__ = evaluate

    def to_ratfun(self) -> RatFun:
        return self.phi * self.q0.to_ratfun()

    # -- multiplicities -----------------------------------------------------------
    def balance_check(self) -> bool:
        """Total zero-type mass equals total pole-type mass, with infinity
        and the conjugate pairs (full multiplicity each) included: a pair of
        order m takes 2m of the degree the real points leave."""
        f = self.to_ratfun()
        if f.is_zero:               # no zeros or poles, and num has no degree
            return True
        pairs = ((f.num.degree - sum(m for _x, m in f.real_zeros)) // 2
                 - (f.den.degree - sum(m for _x, m in f.real_poles)) // 2)
        return sum(m for _x, m in nonpositive_type_records(f)) + pairs == 0


def factor_index(phi: RatFun) -> int:
    """The negative index carried by a nonnegative rational factor: the
    larger of its zero-type and pole-type multiplicity sums; validates
    nonnegativity on the real line.  With every real order even, each real
    point of order 2k and each conjugate pair of order k take 2k of the
    degree and carry k."""
    for kind, real in (("zero", phi.real_zeros), ("pole", phi.real_poles)):
        if any(m % 2 for _x, m in real):
            raise InvalidInput(f"factor has an odd-order real {kind}")
    return max(phi.num.degree, phi.den.degree) // 2


def _canonical_factor(f: RatFun):
    """The nonnegative factor of the canonical factorization of f, built
    from the finite nonpositive-type records of f, and those records.

    A rational point of type multiplicity k gives (z-p)^(2k).  Conjugate
    pairs and even-order irrational roots enter whole, as their defining
    polynomial to its multiplicity.  Only a pair block of odd multiplicity
    that also holds irrational real roots is factored over the rationals,
    and only until the rest is pure, with only real roots or none: its
    pieces without real roots enter, those with only real roots stay out.
    Exact arithmetic cannot split an odd-order irrational point that
    carries type multiplicity, nor conjugate pairs that share an irreducible
    factor with irrational real roots; both are refused.
    """
    records = [(x, m) for x, m in nonpositive_type_records(f)
               if x is not INF]
    # an irrational point's order is even, twice its type multiplicity
    if any(isinstance(x, RealAlg) and f.ord_at(x) % 2 for x, _m in records):
        raise ExactSplitUnavailable(
            "odd-order irrational point carries type multiplicity")
    table = [(x, 2 * m) for x, m in records]    # psi's (point, order)
    blocks = []                                 # and its (factor, order)
    crit = f.critical_points()
    for sgn, bs in ((1, f.complex_zero_blocks), (-1, f.complex_pole_blocks)):
        for factor, m in bs:
            # the irrational real roots of a block are points on its factor
            if m % 2 and any(isinstance(x, RealAlg) and x.p == factor
                             for x, _e in crit):
                blocks += [(h, sgn * m) for h in nonreal_pieces(factor)]
            else:
                blocks.append((factor, sgn * m))
    # an irrational point brings every real root of its polynomial, all of
    # one order, and a whole block its real roots too
    return from_table(table, blocks), records


def canonical_rational(s: RatFun):
    """Canonical factorization of a nonconstant symmetric rational function:
    a nonnegative factor, a rational Nevanlinna part, and the multiplicity
    records of the factor."""
    if s.is_constant:
        raise ConstantInput("constant functions admit no factorization")
    psi, records = _canonical_factor(s)
    # a constant factor is 1: s itself keeps its root structures
    return psi, s if psi.is_constant else s / psi, records


def canonical_pair(f: RatFun) -> GenNevFun:
    """Canonical pair of a nonzero symmetric rational function: the
    canonical factor, and the quotient certified as a Nevanlinna function."""
    if f.is_zero:
        raise InvalidInput("zero function has no canonical pair")
    phi, _records = _canonical_factor(f)
    return GenNevFun(phi, nevfun_from_ratfun(f if phi.is_constant
                                             else f / phi))


def compose_gen(g: GenNevFun, tau: RatFun) -> GenNevFun:
    """Composition with a degree-one Herglotz rational function; the pair
    composes componentwise and the index is preserved."""
    if tau.degree != 1:
        raise NotNevanlinnaTau("composition parameter must have degree one")
    try:
        q0_t = _compose(g.q0, tau)
    except NotNevanlinna:
        raise NotNevanlinnaTau(
            "composition parameter fails the Herglotz check") from None
    return GenNevFun(g.phi.compose_mobius(tau), q0_t)
