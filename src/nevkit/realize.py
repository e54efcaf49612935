"""Minimal multiplication-operator realizations on weighted atomic spaces.

A :class:`L2Model` packages the data (mass at infinity, atomic measure,
anchor point, squared vector values, boundary constant) that realizes a
function locally integrable at the anchor.  The realized function is one
:class:`NevFun`, built in closed form from that data by
:meth:`L2Model.to_nevfun`; evaluation, the certificate of a transferred
model and the spectral comparison all read it.  Every model is built by
one builder, ``_model``, the model of a :class:`NevFun` at an anchor on a
measure with its atoms, read off its representation.  The central operation
rebuilds the model of the product with a symmetric rational multiplier from
the model of the original function: it is ``_model`` of the product, whose
atoms at the multiplier's zeros are gone, with unit atoms at its poles
whose acquired point masses the vector carries, anchored at the last
enumerated zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .classify import plain_pair
from .errors import (InvalidInput, InvariantViolation, NotKacMember,
                     NotNevanlinna, NotRationalAtoms, SpectrumHit)
from .nevfun import AtomicMeasure, NevFun, _chain_step
from .poly import RealAlg, point_cmp, rat
from .qmath import INF, NEG_INF, QC, ExtSymbol, fmt_rat, record
from .ratfun import RatFun


@record
class L2Model:
    """Multiplication-model data: the realized function's representation
    measure and mass at infinity, the anchor, the squared values of the
    generating vector on the atoms (squares suffice for evaluation), the
    squared component along the mass at infinity, and the boundary value at
    the anchor.  The function it realizes is :meth:`to_nevfun`."""

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

    def to_nevfun(self) -> NevFun:
        """The realized function, eta + (z - xi) [beta' + sum w omega^2(t)
        (t - xi)/(t - z)] with the slope beta' = beta omega_inf^2, in closed
        form and built once per instance.  It has the measure m_t = w
        omega^2(t) (t - xi)^2, the slope beta' and the constant c0 = eta -
        beta' xi - sum m_t/(t - xi).  At xi = INF it is eta + sum w
        omega^2(t)/(t - z).  The memo lives outside the record fields."""
        memo = self.__dict__.get("_nevfun")
        if memo is not None:
            return memo
        xi = self.xi
        atoms = [(t, w * self.omega_sq_at(t)) for t, w in self.sigma]
        if xi is INF:
            c0, slope = self.eta, Fraction(0)
        else:
            slope = self.beta * self.omega_inf_sq
            c0 = self.eta - slope * xi - sum((v * (t - xi) for t, v in atoms),
                                             Fraction(0))
            atoms = [(t, v * (t - xi) ** 2) for t, v in atoms]
        memo = NevFun.from_partial_fractions(c0, slope, atoms)
        object.__setattr__(self, "_nevfun", memo)
        return memo


@record
class RealizationTransformReport:
    zetas: tuple                      # ((pole point | INF, mass), ...)
    case: str                         # both_finite | bn_infinite | an_infinite
    model_out: L2Model
    zeros_enum: tuple
    poles_enum: tuple


def minimal_model(q: NevFun, xi) -> L2Model:
    """Minimal model of a function at an anchor in its local class: the
    vector is 1/(t - xi) for a finite anchor and 1 at infinity, which
    NEG_INF names as INF does."""
    if isinstance(xi, RealAlg):
        raise NotRationalAtoms("a model needs a rational anchor")
    xi = INF if xi is INF or xi is NEG_INF else rat(xi)
    if not q.kac_membership(xi):
        raise NotKacMember(f"function is not locally integrable at {xi}")
    return _model(q, xi, q.sigma)


def _model(f: NevFun, xi, sigma: AtomicMeasure) -> L2Model:
    """The model of f anchored at xi in its local class, on a measure sigma
    with exactly f's atoms: omega^2(t) = m_t / (sigma_t (t - xi)^2), or
    m_t / sigma_t at xi = INF, for f's weights m_t, with eta = f(xi) (c0 at
    INF), f's slope and omega_inf^2 = 1.  Its :meth:`L2Model.to_nevfun` is
    f."""
    omega_sq = tuple((t, m / (w if xi is INF else w * (t - xi) ** 2))
                     for (t, m), (_t, w) in zip(f.sigma, sigma))
    eta = f.c0 if xi is INF else f.evaluate(xi)
    return L2Model(f.beta, sigma, xi, eta, omega_sq, Fraction(1))


def model_weyl(m: L2Model, lam):
    """The realized function at a rational, QC or complex point, in the
    type of the point.  A real point in the model spectrum, an atom of the
    model measure, raises SpectrumHit; elsewhere it reads
    :meth:`L2Model.to_nevfun`."""
    x = lam.re if isinstance(lam, QC) and lam.is_real else lam
    if not isinstance(x, (QC, complex)) and m.sigma.weight_at(x) != 0:
        raise SpectrumHit(f"model spectrum contains {fmt_rat(rat(x))}")
    return m.to_nevfun().evaluate(lam)


def enumerate_zeros_poles(r: RatFun) -> tuple[tuple, tuple]:
    """Zeros and poles with multiplicity: double points first (two
    consecutive entries), then simple points ascending, the point at
    infinity last."""
    def enum(points, inf_mult):
        out = [x for x, m in points if m == 2 for _ in range(2)]
        out.extend(x for x, m in points if m == 1)
        out.extend([INF] * inf_mult)
        return tuple(out)

    m = r.ord_at_inf()
    zeros = enum(r.real_zeros, m if m > 0 else 0)
    poles = enum(r.real_poles, -m if m < 0 else 0)
    return zeros, poles


def transform_model(m: L2Model, r: RatFun, q: NevFun) -> RealizationTransformReport:
    """Model of the product from the model of the function.

    The output model is ``_model`` of the product r q, which the plain-pair
    test carries, anchored at the last enumerated zero: q's atoms off the
    multiplier's zeros keep q's weight, and the acquired point masses at
    its poles, the limits of (b - lam) r(lam) q(lam), appear as unit atoms
    whose vector values carry the square roots.  The input model must
    be anchored at the first enumerated pole and realize q, or InvalidInput
    is raised; the output model must realize r q, or InvariantViolation is.
    """
    rq = plain_pair(q, r).product
    # poles_enum is not empty: a plain pair's r is nonconstant with only
    # real zeros and poles, so with no real pole it is a polynomial and has
    # its pole at infinity
    zeros_enum, poles_enum = enumerate_zeros_poles(r)
    b1 = poles_enum[0]
    if point_cmp(m.xi, b1) != 0:
        raise InvalidInput("input model must be anchored at the first pole")
    if m.to_nevfun() != q:
        raise InvalidInput("input model does not realize the function")
    a_n = zeros_enum[-1]
    if any(isinstance(p, RealAlg) for p in (a_n,) + poles_enum):
        raise NotRationalAtoms("the transferred model needs rational poles "
                               "and a rational anchor")

    # pole -> acquired mass, INF too; none is negative, as rq is a NevFun
    # and NevFun.of and AtomicMeasure.of refuse a negative beta or weight
    zeta_map = {b: rq.beta if b is INF else rq.sigma.weight_at(b)
                for b in poles_enum}
    # the product's atoms are q's atoms off the zeros of r, on q's weight,
    # and the poles of r with a positive acquired mass, on weight 1
    sigma_e = AtomicMeasure.of((t, 1 if t in zeta_map else
                                q.sigma.weight_at(t)) for t, _m in rq.sigma)
    model_out = _model(rq, a_n, sigma_e)
    if model_out.to_nevfun() != rq:
        raise InvariantViolation("transferred model does not realize the "
                                 "product")
    case = ("an_infinite" if a_n is INF else
            "bn_infinite" if poles_enum[-1] is INF else "both_finite")
    return RealizationTransformReport(tuple(zeta_map.items()), case,
                                      model_out, zeros_enum, poles_enum)


def model_spectral_check(m_in: L2Model, m_out: L2Model, r: RatFun) -> bool:
    """Exact comparison of the realized functions' spectral data: the
    output function has the measure and the slope of r times the input
    function, formed by the closed-form step ``_chain_step``; off the
    poles of r its atoms are the input's times r, at each pole the
    acquired point mass.  A product that is not a Nevanlinna function
    with rational atoms fails the check."""
    try:
        rq = _chain_step(r, m_in.to_nevfun())
    except (NotNevanlinna, NotRationalAtoms):
        return False
    q_out = m_out.to_nevfun()
    return q_out.sigma == rq.sigma and q_out.beta == rq.beta
