"""Minimal multiplication-operator realizations on weighted atomic spaces.

A :class:`L2Model` packages the data (mass at infinity, atomic measure,
anchor point, squared vector values, boundary constant) that realizes a
function locally integrable at the anchor.  The central operation rebuilds
the model of the product with a symmetric rational multiplier from the model
of the original function: atoms at the multiplier's zeros are removed, unit
atoms appear at its poles with the acquired point masses carried by the
vector, and the anchor moves to the last enumerated zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .classify import check_N00
from .errors import (InvalidInput, InvariantViolation, NotInN00,
                     NotKacMember, NotRationalAtoms, SpectrumHit)
from .nevfun import AtomicMeasure, NevFun, nevfun_from_ratfun
from .poly import Poly, RealAlg, point_cmp, rat
from .qmath import INF, QC, ExtSymbol, fmt_rat
from .ratfun import RatFun


@dataclass(frozen=True)
class L2Model:
    """Multiplication-model data: the realized function's representation
    measure and mass at infinity, the anchor, the squared values of the
    generating vector on the atoms (squares suffice for evaluation), the
    squared component along the mass at infinity, and the boundary value at
    the anchor."""

    beta: Fraction
    sigma: AtomicMeasure
    xi: Union[Fraction, ExtSymbol]
    eta: Fraction
    omega_sq: tuple[tuple[Fraction, Fraction], ...]
    omega_inf_sq: Fraction

    def omega_sq_at(self, t) -> Fraction:
        t = rat(t)
        for pos, v in self.omega_sq:
            if pos == t:
                return v
        raise InvariantViolation(f"no vector value at {fmt_rat(t)}")

    def induced_measure(self) -> list[tuple[Fraction, Fraction]]:
        """Spectral measure of the realized function on the finite atoms."""
        out = []
        for t, w in self.sigma:
            o2 = self.omega_sq_at(t)
            if self.xi is INF:
                out.append((t, w * o2))
            else:
                out.append((t, w * o2 * (t - self.xi) ** 2))
        return [(t, m) for t, m in out if m != 0]

    def induced_inf_mass(self) -> Fraction:
        """Linear growth rate of the realized function."""
        if self.xi is INF:
            return Fraction(0)
        return self.beta * self.omega_inf_sq

    def to_nevfun(self) -> NevFun:
        return nevfun_from_ratfun(self.weyl_ratfun())

    def weyl_ratfun(self) -> RatFun:
        """The realized function as an exact rational function."""
        acc = RatFun.const(self.eta)
        if self.xi is INF:
            for t, w in self.sigma:
                o2 = self.omega_sq_at(t)
                acc = acc + RatFun(Poly.const(w * o2), Poly([-t, 1])) * (-1)
            return acc
        lin = RatFun(Poly([-self.xi, 1]), Poly.const(1))
        acc = acc + lin * (self.beta * self.omega_inf_sq)
        for t, w in self.sigma:
            o2 = self.omega_sq_at(t)
            term = RatFun(Poly.const(w * o2 * (t - self.xi)), Poly([-t, 1]))
            acc = acc + lin * term * (-1)
        return acc


@dataclass(frozen=True)
class RealizationTransformReport:
    zetas: tuple                      # ((pole point | INF, mass), ...)
    case: str                         # both_finite | bn_infinite | an_infinite
    model_out: L2Model
    zeros_enum: tuple
    poles_enum: tuple


def minimal_model(q: NevFun, xi) -> L2Model:
    """Minimal model of a function at an anchor in its local class: the
    vector is 1/(t - xi) for a finite anchor and 1 at infinity."""
    if isinstance(xi, RealAlg):
        raise NotRationalAtoms("a model needs a rational anchor")
    if xi is not INF:
        xi = rat(xi)
    if not q.kac_membership(xi):
        raise NotKacMember(f"function is not locally integrable at {xi}")
    if xi is INF:
        omega_sq = tuple((t, Fraction(1)) for t, _ in q.sigma)
        eta = q.limit_at(INF, "value").value
    else:
        omega_sq = tuple((t, 1 / (t - xi) ** 2) for t, _ in q.sigma)
        eta = q.evaluate(xi)
    return L2Model(q.beta, q.sigma, xi, eta, omega_sq, Fraction(1))


def model_weyl(m: L2Model, lam):
    """Evaluate the realized function from the model data alone, at a
    rational, QC or complex point; Fraction mixes with QC and complex
    through their reflected operators."""
    if isinstance(lam, QC) and lam.is_real:
        lam = lam.re
    if not isinstance(lam, (QC, complex)):
        lam = rat(lam)
        if any(t == lam for t, _ in m.sigma):
            raise SpectrumHit(f"model spectrum contains {fmt_rat(lam)}")
    if m.xi is INF:
        acc = _lift(m.eta, lam)
        for t, w in m.sigma:
            acc = acc + w * m.omega_sq_at(t) / (t - lam)
        return acc
    acc = _lift(m.beta * m.omega_inf_sq, lam)
    for t, w in m.sigma:
        acc = acc + w * m.omega_sq_at(t) * (t - m.xi) / (t - lam)
    return _lift(m.eta, lam) + (lam - m.xi) * acc


def _lift(x: Fraction, like):
    """x as a value of like's type, so that a model without atoms still
    answers in the type of its argument."""
    if isinstance(like, QC):
        return QC.of(x)
    if isinstance(like, complex):
        return complex(float(x), 0.0)
    return x


def enumerate_zeros_poles(r: RatFun) -> tuple[tuple, tuple]:
    """Zeros and poles with multiplicity: double points first (two
    consecutive entries), then simple points ascending, the point at
    infinity last."""
    def enum(records, inf_mult):
        doubles = [rec for rec in records if rec.mult == 2]
        simples = [rec for rec in records if rec.mult == 1]
        out = []
        for rec in doubles:
            out.extend([rec.point, rec.point])
        out.extend(rec.point for rec in simples)
        out.extend([INF] * inf_mult)
        return tuple(out)

    m = r.ord_at_inf()
    zeros = enum(r.real_zeros, m if m > 0 else 0)
    poles = enum(r.real_poles, -m if m < 0 else 0)
    return zeros, poles


def transform_model(m: L2Model, r: RatFun, q: NevFun) -> RealizationTransformReport:
    """Model of the product from the model of the function.

    The acquired point masses at the multiplier's poles are the limits of
    (b - lam) r(lam) q(lam); they appear as unit atoms whose vector values
    carry the square roots, while atoms at the multiplier's zeros drop out
    and the anchor moves to the last enumerated zero.
    """
    rep = check_N00(q, r)
    if not rep.ok:
        raise NotInN00(f"pair fails the plain-pair test: {rep.describe()}")
    zeros_enum, poles_enum = enumerate_zeros_poles(r)
    if not poles_enum:
        raise NotInN00("multiplier has no pole on the extended line")
    b1 = poles_enum[0]
    if point_cmp(m.xi, b1) != 0:
        raise InvalidInput("input model must be anchored at the first pole")
    a_n = zeros_enum[-1]
    b_n = poles_enum[-1]
    if any(isinstance(p, RealAlg) for p in (a_n,) + poles_enum):
        raise NotRationalAtoms("the transferred model needs rational poles "
                               "and a rational anchor")

    rq = nevfun_from_ratfun(r * q.to_ratfun())

    zeta_map = {}                   # pole -> acquired mass, INF included
    for b in poles_enum:
        if b not in zeta_map:
            zeta_map[b] = rq.limit_at(b, "residue").value
    zetas = list(zeta_map.items())
    if any(z < 0 for _, z in zetas):
        raise InvariantViolation("negative acquired point mass")

    finite_zero_pts = {rec.point for rec in r.real_zeros if rec.is_rational}
    kept = [(t, w) for t, w in q.sigma if t not in finite_zero_pts]
    new_atoms = [(b, Fraction(1)) for b, z in zetas
                 if b is not INF and z > 0]
    sigma_e = AtomicMeasure.of(kept + new_atoms)

    if a_n is INF:
        case = "an_infinite"
        beta_e = Fraction(0)
    elif b_n is INF:
        case = "bn_infinite"
        beta_e = zeta_map[INF]
    else:
        case = "both_finite"
        beta_e = r.gamma * q.beta
    if beta_e != rq.beta:
        raise InvariantViolation("mass at infinity disagrees with the product")

    omega_sq = []
    for t, _w in kept:
        val = abs(r.eval_q(t))
        if a_n is not INF:
            val = val / (t - a_n) ** 2
        omega_sq.append((t, val))
    for b, _one in new_atoms:
        val = zeta_map[b]
        if a_n is not INF:
            val = val / (b - a_n) ** 2
        omega_sq.append((b, val))
    omega_sq.sort()

    if a_n is INF:
        eta_out = rq.limit_at(INF, "value").value
    else:
        eta_out = rq.evaluate(a_n)
    model_out = L2Model(beta_e, sigma_e, a_n, eta_out, tuple(omega_sq),
                        Fraction(1))
    if model_out.weyl_ratfun() != rq.to_ratfun():
        raise InvariantViolation("transferred model does not realize the "
                                 "product")
    return RealizationTransformReport(tuple(zetas), case, model_out,
                                      zeros_enum, poles_enum)


def model_spectral_check(m_in: L2Model, m_out: L2Model, r: RatFun) -> bool:
    """Exact comparison of induced spectral measures: off the poles of r the
    output measure is the multiplier times the input measure; at each pole
    it is the acquired point mass of the product."""
    induced_in = dict(m_in.induced_measure())
    induced_out = dict(m_out.induced_measure())
    rq = r * m_in.to_nevfun().to_ratfun()
    for t, mass in induced_out.items():
        if r.ord_at(t) < 0:
            zeta = -rq.laurent_lead(t)
            if mass != zeta:
                return False
        else:
            base = induced_in.get(t, Fraction(0))
            if mass != abs(r.eval_q(t)) * base:
                return False
    # every off-pole input atom must survive with the right mass unless the
    # multiplier vanishes there
    for t, mass in induced_in.items():
        if r.ord_at(t) == 0 and abs(r.eval_q(t)) * mass != \
                induced_out.get(t, Fraction(0)):
            return False
    # growth at infinity
    d = rq.num.degree - rq.den.degree
    inf_mass = rq.gamma if d == 1 else Fraction(0)
    if m_out.induced_inf_mass() != inf_mass:
        return False
    return True
