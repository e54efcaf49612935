"""Generalized Nevanlinna functions as canonical pairs.

A :class:`GenNevFun` is a nonnegative rational factor together with an
ordinary Nevanlinna function; its negative index is read off the factor's
multiplicities.  Zero/pole multiplicities of nonpositive type are decided
symbolically from exact local order and leading-sign data, and the explicit
canonical factorization of an arbitrary symmetric rational function is
computed from odd-order point counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (ConstantInput, ExactSplitUnavailable,
                     InvariantViolation, NotNevanlinna, NotNevanlinnaTau)
from .nevfun import NevFun, is_nevanlinna, nevfun_from_ratfun
from .poly import Poly, RealAlg, rat
from .qmath import INF, QC, fmt_rat
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
            raise ValueError("factor must be nonzero")
        g = phi.gamma
        if g != 1:
            if g <= 0:
                raise ValueError("factor must be positive at its leading order")
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
        if isinstance(z, QC) or isinstance(z, complex):
            return self.phi(z) * self.q0.evaluate(z)
        z = rat(z)
        return self.phi.eval_q(z) * self.q0.evaluate(z)

    __call__ = evaluate

    def to_ratfun(self) -> RatFun:
        return self.phi * self.q0.to_ratfun()

    # -- multiplicities -----------------------------------------------------------
    def gznt_gpnt(self) -> list[MultiplicityRecord]:
        if self.phi.is_constant and self.q0.is_constant and \
                self.q0.alpha == 0:
            raise ValueError("records of the zero function are undefined")
        return nonpositive_type_records(self.to_ratfun())

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

    # -- composition -----------------------------------------------------------------
    def compose(self, tau: RatFun) -> "GenNevFun":
        return compose_gen(self, tau)


def _factor_multiplicity_sums(phi: RatFun) -> tuple[int, int]:
    """(sum of zero-type, sum of pole-type) multiplicities carried by a
    nonnegative rational factor; validates nonnegativity on the real line."""
    pi_total = 0
    for rec in phi.real_zeros:
        if rec.mult % 2:
            raise ValueError("factor has an odd-order real zero")
        pi_total += rec.mult // 2
    for blk in phi.complex_zero_blocks:
        pi_total += blk.pairs * blk.mult
    kappa_total = 0
    for rec in phi.real_poles:
        if rec.mult % 2:
            raise ValueError("factor has an odd-order real pole")
        kappa_total += rec.mult // 2
    for blk in phi.complex_pole_blocks:
        kappa_total += blk.pairs * blk.mult
    return pi_total, kappa_total


def canonical_rational(s: RatFun):
    """Canonical factorization of a nonconstant symmetric rational function:
    a nonnegative factor, a rational Nevanlinna part, and the multiplicity
    records of the factor.

    Even-order real points and conjugate pairs go wholly into the factor;
    each odd-order real point splits according to the parity of the count of
    odd-order points above it and the sign of the leading coefficient.
    """
    if s.is_constant:
        raise ConstantInput("constant functions admit no factorization")
    gamma_sign = 1 if s.gamma > 0 else -1
    psi_num = Poly.const(1)
    psi_den = Poly.const(1)
    s0_num = Poly.const(s.gamma)
    s0_den = Poly.const(1)
    records = []

    def handle(recs, is_zero: bool):
        nonlocal psi_num, psi_den, s0_num, s0_den
        for rec in recs:
            point, m = rec.point, rec.mult
            if m % 2 == 0:
                half = m // 2
                lin = Poly([-point, 1])
                if is_zero:
                    psi_num = psi_num * lin ** m
                    records.append(MultiplicityRecord(point, "GZNT", half))
                else:
                    psi_den = psi_den * lin ** m
                    records.append(MultiplicityRecord(point, "GPNT", half))
                continue
            eta = s.eta_count(point)
            iota = gamma_sign * (1 if eta % 2 == 0 else -1)
            lin = Poly([-point, 1])
            if is_zero:
                pi = (m - iota) // 2
                if pi:
                    psi_num = psi_num * lin ** (2 * pi)
                    records.append(MultiplicityRecord(point, "GZNT", pi))
                if iota > 0:
                    s0_num = s0_num * lin
                else:
                    s0_den = s0_den * lin
            else:
                ka = (m + iota) // 2
                if ka:
                    psi_den = psi_den * lin ** (2 * ka)
                    records.append(MultiplicityRecord(point, "GPNT", ka))
                # residual exponent at the pole is -m + 2*ka = iota
                if iota > 0:
                    s0_num = s0_num * lin
                else:
                    s0_den = s0_den * lin

    # what is left of num and den once the rational roots are divided out
    # (conjugate pairs and irrational even-order roots) goes wholly into the
    # nonnegative factor; an odd-order irrational root would need an exact
    # split, so it is refused
    zeros, poles = s.real_zeros, s.real_poles
    handle([rec for rec in zeros if rec.is_rational], True)
    handle([rec for rec in poles if rec.is_rational], False)
    psi_num = psi_num * _irrational_part(s.num, zeros, "zero")
    psi_den = psi_den * _irrational_part(s.den, poles, "pole")

    psi = RatFun(psi_num, psi_den)
    s0 = RatFun(s0_num, s0_den)
    if psi * s0 != s:
        raise InvariantViolation("canonical factors do not multiply back")
    return psi, s0, records


def _irrational_part(p: Poly, recs, kind: str) -> Poly:
    """Monic p with its rational roots divided out; refuses an odd-order
    irrational real root."""
    for rec in recs:
        if rec.is_rational:
            p = p.deflate(rec.point, rec.mult)
        elif rec.mult % 2:
            raise ExactSplitUnavailable(
                f"odd-order irrational real {kind} cannot be split exactly")
    return p.monic()


def canonical_pair(f: RatFun) -> GenNevFun:
    """Direct canonical extraction of an arbitrary nonzero symmetric rational
    function: collect every nonpositive-type multiplicity into a nonnegative
    factor and certify the quotient as a Nevanlinna function.

    Real points that carry nonzero type multiplicity must be rational, since
    only those enter the factor; conjugate-pair content must not share a
    squarefree factor with irrational real roots.
    """
    if f.is_zero:
        raise ValueError("zero function has no canonical pair")
    phi_num = Poly.const(1)
    phi_den = Poly.const(1)
    for rec in f.real_zeros:
        pi = _zero_type_mult(rec.mult, f.laurent_lead_sign(rec.point))
        if pi:
            if not rec.is_rational:
                raise ExactSplitUnavailable(
                    "irrational zero carries nonzero type multiplicity")
            phi_num = phi_num * Poly([-rec.point, 1]) ** (2 * pi)
    for rec in f.real_poles:
        ka = _pole_type_mult(rec.mult, f.laurent_lead_sign(rec.point))
        if ka:
            if not rec.is_rational:
                raise ExactSplitUnavailable(
                    "irrational pole carries nonzero type multiplicity")
            phi_den = phi_den * Poly([-rec.point, 1]) ** (2 * ka)
    for blk in f.complex_zero_blocks:
        if blk.real_roots:
            raise ExactSplitUnavailable(
                "conjugate pairs share a factor with irrational real roots")
        phi_num = phi_num * blk.factor ** blk.mult
    for blk in f.complex_pole_blocks:
        if blk.real_roots:
            raise ExactSplitUnavailable(
                "conjugate pairs share a factor with irrational real roots")
        phi_den = phi_den * blk.factor ** blk.mult
    phi = RatFun(phi_num, phi_den)
    q0 = nevfun_from_ratfun(f / phi)
    return GenNevFun(phi, q0)


def compose_gen(g: GenNevFun, tau: RatFun) -> GenNevFun:
    """Composition with a degree-one Herglotz rational function; the pair
    composes componentwise and the index is preserved."""
    if tau.degree != 1:
        raise NotNevanlinnaTau("composition parameter must have degree one")
    if not is_nevanlinna(tau):
        raise NotNevanlinnaTau("composition parameter fails the Herglotz check")
    phi_t = g.phi.compose_mobius(tau)
    q0_t = nevfun_from_ratfun(g.q0.to_ratfun().compose_mobius(tau))
    return GenNevFun(phi_t, q0_t)
