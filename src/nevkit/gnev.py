"""Generalized Nevanlinna functions as canonical pairs.

A :class:`GenNevFun` is a nonnegative rational factor together with an
ordinary Nevanlinna function; its negative index is read off the factor's
multiplicities.  Zero/pole multiplicities of nonpositive type are decided
symbolically from exact local orders and leading signs, the signs read off
odd-order point counts, and the canonical factorization of an arbitrary
symmetric rational function is built from those multiplicities alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (ConstantInput, ExactSplitUnavailable, InvalidInput,
                     NotNevanlinna, NotNevanlinnaTau)
from .nevfun import NevFun, _compose, nevfun_from_ratfun
from .poly import (Poly, RealAlg, _factor_squarefree, _poly, _primitive,
                   count_real_roots)
from .qmath import INF, fmt_rat
from .ratfun import RatFun


@dataclass(frozen=True)
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
    (order >= 0) with the given leading-coefficient sign."""
    if order <= 0:
        return 0
    if order % 2 == 0:
        return order // 2
    return (order + 1) // 2 if lead_sign < 0 else (order - 1) // 2


def _pole_type_mult(order: int, lead_sign: int) -> int:
    """Nonpositive-type multiplicity carried by a pole of the given order."""
    if order <= 0:
        return 0
    if order % 2 == 0:
        return order // 2
    return (order - 1) // 2 if lead_sign < 0 else (order + 1) // 2


def nonpositive_type_records(f: RatFun) -> list[MultiplicityRecord]:
    """All nonpositive-type zero/pole multiplicity records of a symmetric
    rational function, including the point at infinity."""
    out = []
    for rec in f.real_zeros:
        m = _zero_type_mult(rec.mult, f.laurent_lead_sign(rec.point))
        if m:
            out.append(MultiplicityRecord(rec.point, "GZNT", m))
    for rec in f.real_poles:
        m = _pole_type_mult(rec.mult, f.laurent_lead_sign(rec.point))
        if m:
            out.append(MultiplicityRecord(rec.point, "GPNT", m))
    d = -f.ord_at_inf()          # growth order at infinity
    lead = 1 if f.gamma > 0 else -1
    if d < 0:                    # zero at infinity; sign convention flips
        m = _zero_type_mult(-d, -lead)
        if m:
            out.append(MultiplicityRecord(INF, "GZNT", m))
    elif d > 0:
        m = _pole_type_mult(d, -lead)
        if m:
            out.append(MultiplicityRecord(INF, "GPNT", m))
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
        and the conjugate-pair content (full multiplicity each) included."""
        f = self.to_ratfun()
        recs = nonpositive_type_records(f)
        z = sum(r.mult for r in recs if r.kind == "GZNT")
        p = sum(r.mult for r in recs if r.kind == "GPNT")
        z += sum(b.pairs * b.mult for b in f.complex_zero_blocks)
        p += sum(b.pairs * b.mult for b in f.complex_pole_blocks)
        return z == p


def _factor_multiplicity_sums(phi: RatFun) -> tuple[int, int]:
    """(sum of zero-type, sum of pole-type) multiplicities carried by a
    nonnegative rational factor; validates nonnegativity on the real line."""
    pi_total = 0
    for rec in phi.real_zeros:
        if rec.mult % 2:
            raise InvalidInput("factor has an odd-order real zero")
        pi_total += rec.mult // 2
    for blk in phi.complex_zero_blocks:
        pi_total += blk.pairs * blk.mult
    kappa_total = 0
    for rec in phi.real_poles:
        if rec.mult % 2:
            raise InvalidInput("factor has an odd-order real pole")
        kappa_total += rec.mult // 2
    for blk in phi.complex_pole_blocks:
        kappa_total += blk.pairs * blk.mult
    return pi_total, kappa_total


def _is_pure(h: Poly) -> bool:
    """Whether h has only real roots or none."""
    return count_real_roots(h) in (0, h.degree)


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
    parts = {"GZNT": {}, "GPNT": {}}      # kind -> {polynomial: exponent}
    for rec in records:
        if isinstance(rec.point, RealAlg):
            order = abs(f.ord_at(rec.point))
            if order % 2:
                raise ExactSplitUnavailable(
                    "odd-order irrational point carries type multiplicity")
            parts[rec.kind][rec.point.p] = order
        else:
            parts[rec.kind][Poly([-rec.point, 1])] = 2 * rec.mult
    for kind, blocks in (("GZNT", f.complex_zero_blocks),
                         ("GPNT", f.complex_pole_blocks)):
        for blk in blocks:
            if not (blk.real_roots and blk.mult % 2):
                parts[kind][blk.factor] = blk.mult
                continue
            pieces = _factor_squarefree(_primitive(blk.factor.n), _is_pure)
            for h in (_poly(a, a[-1]) for a in pieces):
                n = count_real_roots(h)
                if 0 < n < h.degree:
                    raise ExactSplitUnavailable(
                        "conjugate pairs share an odd-multiplicity factor "
                        "with irrational real roots")
                if not n:
                    parts[kind][h] = blk.mult
    # every polynomial here is monic, so the factor's gamma is one
    num, den = Poly.const(1), Poly.const(1)
    for h, e in parts["GZNT"].items():
        num = num * h ** e
    for h, e in parts["GPNT"].items():
        den = den * h ** e
    return RatFun(num, den), records


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
