"""Generalized Nevanlinna functions as canonical pairs.

A :class:`GenNevFun` is a nonnegative rational factor together with an
ordinary Nevanlinna function; its negative index is read off the factor's
multiplicities.  Zero/pole multiplicities of nonpositive type are decided
symbolically from exact local orders and leading signs, the signs read off
odd-order point counts, and the canonical factorization of an arbitrary
symmetric rational function is built from those multiplicities alone.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (ConstantInput, ExactSplitUnavailable, InvalidInput,
                     NotNevanlinna, NotNevanlinnaTau)
from .nevfun import NevFun, _compose, nevfun_from_ratfun
from .poly import RealAlg, nonreal_pieces
from .qmath import INF, fmt_rat, record
from .ratfun import RatFun, from_table


@record
class MultiplicityRecord:
    """A real or infinite point carrying nonpositive-type multiplicity."""

    point: object          # Fraction | RealAlg | INF
    kind: str              # "GZNT" or "GPNT"
    mult: int

    def __repr__(self):
        p = self.point if not isinstance(self.point, Fraction) else fmt_rat(self.point)
        return f"{self.kind}({p}:{self.mult})"


def _zero_type_mult(order: int, lead_sign: int) -> int:
    """Nonpositive-type multiplicity carried by a zero of the given order
    (order >= 0) with the given nonzero leading-coefficient sign.  A pole
    carries that of a zero of its order with the opposite sign."""
    if order <= 0:
        return 0
    if order % 2 == 0:
        return order // 2
    return (order + 1) // 2 if lead_sign < 0 else (order - 1) // 2


def nonpositive_type_records(f: RatFun) -> list[MultiplicityRecord]:
    """All nonpositive-type zero/pole multiplicity records of a symmetric
    rational function, including the point at infinity."""
    out = []
    for kind, recs, k in (("GZNT", f.real_zeros, 1),
                          ("GPNT", f.real_poles, -1)):
        for x, order in recs:
            m = _zero_type_mult(order, k * f.laurent_lead_sign(x))
            if m:
                out.append(MultiplicityRecord(x, kind, m))
    e, lead = f.ord_at_inf(), 1 if f.gamma > 0 else -1
    # at infinity the sign convention flips
    m = _zero_type_mult(abs(e), -lead if e > 0 else lead)
    if m:
        out.append(MultiplicityRecord(INF, "GZNT" if e > 0 else "GPNT", m))
    return out


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
        pi_total, kappa_total = _factor_multiplicity_sums(phi)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "kappa", max(pi_total, kappa_total))

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
        recs = nonpositive_type_records(f)
        z = sum(r.mult for r in recs if r.kind == "GZNT")
        p = sum(r.mult for r in recs if r.kind == "GPNT")
        z += (f.num.degree - sum(m for _x, m in f.real_zeros)) // 2
        p += (f.den.degree - sum(m for _x, m in f.real_poles)) // 2
        return z == p


def _factor_multiplicity_sums(phi: RatFun) -> tuple[int, int]:
    """(sum of zero-type, sum of pole-type) multiplicities carried by a
    nonnegative rational factor; validates nonnegativity on the real line.
    With every real order even, each real point of order 2k and each
    conjugate pair of order k take 2k of the degree and carry k."""
    for kind, real in (("zero", phi.real_zeros), ("pole", phi.real_poles)):
        if any(m % 2 for _x, m in real):
            raise InvalidInput(f"factor has an odd-order real {kind}")
    return phi.num.degree // 2, phi.den.degree // 2


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
    records = [rec for rec in nonpositive_type_records(f)
               if rec.point is not INF]
    table, blocks = [], []      # psi's (point, order) and (factor, order)
    for rec in records:
        # an irrational point's order is even, twice its type multiplicity
        if isinstance(rec.point, RealAlg) and f.ord_at(rec.point) % 2:
            raise ExactSplitUnavailable(
                "odd-order irrational point carries type multiplicity")
        table.append((rec.point, 2 * rec.mult if rec.kind == "GZNT"
                      else -2 * rec.mult))
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
