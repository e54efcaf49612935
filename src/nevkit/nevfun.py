"""Rational Herglotz-Nevanlinna functions in integral-representation form.

A :class:`NevFun` stores the representation data (alpha, beta, finite atomic
measure) exactly.  Everything here is closed form: evaluation, one-sided and
nontangential limits at real points and infinity, Kac-class membership, the
spectral-gap characterizations with their transformed representatives, and
the products with degree-one factors and compositions with degree-one
Herglotz maps they and the chains are built from.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, partial
from typing import Optional

from .errors import (GapViolated, InvalidInput, InvariantViolation,
                     NotNevanlinna, NotRationalAtoms, PoleHit)
from .poly import (Poly, RealAlg, _deflate, _poly, compose_fractional,
                   interlaced_root_structure, rat)
from .qmath import (INF, LIM_INF, LIM_NEG_INF, LIM_POS_INF, NEG_INF,
                    LimitValue, as_float, fmt_rat, is_float_point, record)
from .ratfun import RatFun


@record
class AtomicMeasure:
    """Finite nonnegative measure with finitely many rational atoms.

    Atoms carry their full mass; the half-sum convention for distribution
    functions at jump points only matters for endpoint handling in the
    numeric inversion routine, never here."""

    atoms: tuple[tuple[Fraction, Fraction], ...]  # (position, weight), sorted

    @staticmethod
    def of(pairs) -> "AtomicMeasure":
        items = [(rat(t), rat(w)) for t, w in pairs]
        items = [(t, w) for t, w in items if w != 0]
        items.sort()
        for (t1, _), (t2, _) in zip(items, items[1:]):
            if t1 == t2:
                raise InvalidInput(f"duplicate atom position {fmt_rat(t1)}")
        for _, w in items:
            if w < 0:
                raise InvalidInput("atom weights must be positive")
        return AtomicMeasure(tuple(items))

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)

    @property
    def positions(self) -> list[Fraction]:
        return [t for t, _ in self.atoms]

    def weight_at(self, t) -> Fraction:
        """The mass at t; 0 at an irrational point, as atoms are rational."""
        if isinstance(t, RealAlg):
            return Fraction(0)
        t = rat(t)
        for pos, w in self.atoms:
            if pos == t:
                return w
        return Fraction(0)

    def total_mass(self) -> Fraction:
        return sum((w for _, w in self.atoms), Fraction(0))


@record
class NevFun:
    """Nevanlinna function alpha + beta z + sum w ((t-z)^-1 - t/(1+t^2))."""

    alpha: Fraction
    beta: Fraction
    sigma: AtomicMeasure

    @staticmethod
    def of(alpha, beta, atoms=()) -> "NevFun":
        b = rat(beta)
        if b < 0:
            raise InvalidInput("beta must be nonnegative")
        return NevFun(rat(alpha), b, AtomicMeasure.of(atoms))

    @staticmethod
    def const(c) -> "NevFun":
        return NevFun.of(c, 0)

    @staticmethod
    def from_partial_fractions(c0, beta, atoms=()) -> "NevFun":
        """The function c0 + beta z + sum w/(t - z); inverse of :attr:`c0`."""
        atoms = [(rat(t), rat(w)) for t, w in atoms]
        q = NevFun.of(rat(c0) + _shift(atoms), beta, atoms)
        q.__dict__["c0"] = rat(c0)          # seeds the memo of NevFun.c0
        return q

    @cached_property
    def c0(self) -> Fraction:
        """The constant of the partial-fraction form c0 + beta z +
        sum w/(t - z), which is the limit at infinity when beta = 0.
        Memoised outside the record fields, like :meth:`to_ratfun`."""
        return self.alpha - _shift(self.sigma)

    @property
    def is_constant(self) -> bool:
        return self.beta == 0 and len(self.sigma) == 0

    def scale(self, c) -> "NevFun":
        """Positive rescaling, again a Nevanlinna function."""
        c = rat(c)
        if c <= 0:
            raise InvalidInput("scale factor must be positive")
        return NevFun(self.alpha * c, self.beta * c,
                      AtomicMeasure(tuple((t, w * c) for t, w in self.sigma)))

    # -- evaluation ---------------------------------------------------------------
    def __call__(self, z):
        return self.evaluate(z)

    def evaluate(self, z):
        """The value at z: a float point goes to :meth:`eval_np`, an exact
        one (rational or QC) to :meth:`to_ratfun` and its integer Horner
        evaluation, which raises PoleHit at an atom."""
        return self.eval_np(z) if is_float_point(z) else self.to_ratfun()(z)

    def eval_np(self, z):
        """The value at a float point, from the representation: at an atom
        a complex scalar raises PoleHit, an array gives inf or nan."""
        acc = as_float(self.alpha) + as_float(self.beta) * z
        for t, w in self.sigma:
            tf, wf = as_float(t), as_float(w)
            try:
                acc = acc + wf / (tf - z) - wf * tf / (1 + tf * tf)
            except ZeroDivisionError:
                raise PoleHit("float evaluation at an atom") from None
        return acc

    # -- structure ------------------------------------------------------------------
    def _local_at(self, x: Fraction) -> tuple[int, Fraction]:
        """(order, Laurent lead) at a rational x."""
        w = self.sigma.weight_at(x)
        return (-1, -w) if w else _local(self.to_ratfun(), x)

    def to_ratfun(self) -> RatFun:
        """The function as a reduced RatFun num/den, built once per
        instance.  den is the monic product of z - t over the atoms, and
        num/den needs no gcd (every weight is positive); both are built in
        integers: with t = u/v, D = prod (v z - u) = V den, c0 + beta z =
        (C + B z)/L and w v = W/L, num = (D (C + B z) - sum W D/(v z - u))
        / (V L).  The table is the one the representation states: the atoms
        are simple poles, and one simple zero lies between neighbouring
        atoms and one on an outer ray where q is < 0 at -inf or > 0 at
        +inf, located only when first read.  The memo lives outside the
        record fields, so equality, the hash and the repr do not see it."""
        memo = self.__dict__.get("_ratfun")
        if memo is not None:
            return memo
        c0, beta = self.c0, self.beta
        big = math.lcm(c0.denominator, beta.denominator,
                       *[w.denominator for _, w in self.sigma])
        den = Poly.from_roots(self.sigma.positions)
        dd = list(den.n)                     # D, primitive by Gauss's lemma
        cc, bb = (x.numerator * (big // x.denominator) for x in (c0, beta))
        nn = [cc * x + bb * y for x, y in zip(dd + [0], [0] + dd)]
        for t, w in self.sigma:
            ww = w.numerator * (big // w.denominator) * t.denominator
            for i, x in enumerate(_deflate(dd, t.numerator, t.denominator)):
                nn[i] -= ww * x
        num = _poly(nn, dd[-1] * big)
        memo = RatFun._with_table(num, den, partial(
            interlaced_root_structure, num, self.sigma.positions,
            beta > 0 or c0 < 0, beta > 0 or c0 > 0))
        object.__setattr__(self, "_ratfun", memo)
        return memo

    def support(self) -> list:
        """Spectral support: atom positions, plus INF when beta > 0."""
        return self.sigma.positions + [INF] * (self.beta > 0)

    def spectral_gaps(self) -> list[tuple]:
        """Maximal open intervals free of atoms, as (lo, hi) with the
        symbols NEG_INF / INF at the unbounded ends."""
        pos = self.sigma.positions
        bounds = [NEG_INF] + pos + [INF]
        return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

    # -- limits -----------------------------------------------------------------------
    def limit_at(self, c, mode: str, side: Optional[str] = None) -> LimitValue:
        """Closed-form limits of the representation.

        mode "residue": lim (c-z) Q(z) at finite c (the mass at c), or
        lim Q(z)/z = beta at infinity.  mode "value": the limit of Q itself;
        at an atom the side "-" (from below) or "+" (from above) selects the
        improper limit; at infinity the side selects the real direction.
        mode "slope": lim Q(z)/(z-c) at finite c, or lim z Q(z) at infinity.
        """
        if c is INF or c is NEG_INF:
            return self._limit_at_inf(mode, c, side)
        c = rat(c)
        w_c = self.sigma.weight_at(c)
        if mode == "residue":
            return LimitValue.finite(w_c)
        if mode == "value":
            if w_c != 0:
                if side == "-":
                    return LIM_POS_INF
                if side == "+":
                    return LIM_NEG_INF
                return LIM_INF
            return LimitValue.finite(self.evaluate(c))
        if mode == "slope":
            e, lead = self._local_at(c)
            return LimitValue.finite(lead) if e == 1 else LIM_INF
        raise InvalidInput(f"unknown limit mode {mode!r}")

    def _limit_at_inf(self, mode, c, side) -> LimitValue:
        direction = side if side is not None else ("-" if c is NEG_INF else None)
        if mode == "residue":
            return LimitValue.finite(self.beta)
        if mode == "value":
            if self.beta > 0:
                if direction == "-":
                    return LIM_NEG_INF
                if direction == "+":
                    return LIM_POS_INF
                return LIM_INF
            return LimitValue.finite(self.c0)
        if mode == "slope":
            if self.beta > 0 or self.c0:
                return LIM_INF
            return LimitValue.finite(-self.sigma.total_mass())
        raise InvalidInput(f"unknown limit mode {mode!r}")

    # -- Kac-Donoghue classes ------------------------------------------------------------
    def kac_membership(self, xi) -> bool:
        """Local integrability class at xi: for finite xi this needs no atom
        exactly at xi; at infinity it needs beta = 0."""
        if xi is INF:
            return self.beta == 0
        return self.sigma.weight_at(xi) == 0

    # -- spectral-gap characterizations ----------------------------------------------------
    def gap_characterize(self, c, d=None, shape: str = "bounded_gap") -> "CharacterizationReport":
        """The gap condition; each representative is one :func:`_chain_step`
        on q - eta, or for the left ray's first on the measure part."""
        c = rat(c)
        if shape == "left_ray":
            offenders = [t for t in self.sigma.positions if t < c]
            if offenders:
                raise GapViolated("atoms below the ray endpoint", offenders)
            eta = LimitValue.finite(self.c0)
            # representative with the linear part and the ray factor removed
            bare = NevFun.from_partial_fractions(0, 0, self.sigma)
            q_tilde = _chain_step(RatFun.from_points([c], []), bare)
            eta2 = self.limit_at(c, "value", side="-")
            q_tilde2 = None
            if eta2.is_finite:
                q_tilde2 = _chain_step(RatFun.from_points([], [c]), NevFun(
                    self.alpha - eta2.value, self.beta, self.sigma))
            return CharacterizationReport("left_ray", True, True, eta,
                                          q_tilde, None, eta2, q_tilde2)
        if shape not in ("bounded_gap", "complement_gap"):
            raise InvalidInput(f"unknown gap shape {shape!r}")
        if d is None or not c < rat(d):
            raise InvalidInput("need c < d")
        d, bounded = rat(d), shape == "bounded_gap"
        if bounded:
            offenders = [t for t in self.sigma.positions if c < t < d]
            if offenders:
                raise GapViolated("atoms inside the gap", offenders)
        else:
            offenders = [t for t in self.sigma.positions if not c <= t <= d]
            if offenders or self.beta > 0:
                msg = ("atoms outside the compact interval" if offenders
                       else "mass at infinity")
                raise GapViolated(msg, offenders)
        eta = self.limit_at(d, "value", side="-" if bounded else "+")
        q_tilde = None
        if eta.is_finite:
            s = RatFun.from_points([c], [d], 1 if bounded else -1)
            q_tilde = _chain_step(s, NevFun(self.alpha - eta.value,
                                            self.beta, self.sigma))
        return CharacterizationReport(
            shape, True, eta.is_finite, eta, q_tilde,
            None if q_tilde is None else q_tilde.sigma)

    def corollary_products(self, c, d=INF) -> "ProductMembership":
        """Exact decision of the four bounded-gap product memberships, or the
        two ray products when d is the point at infinity."""
        c = rat(c)
        if d is INF:
            ray_ok = all(t >= c for t in self.sigma.positions)
            lim_down = self.limit_at(INF, "value", side="-")
            lim_up_c = self.limit_at(c, "value", side="-")
            res = (ray_ok and self.beta == 0 and lim_down.finite_nonneg(),
                   ray_ok and lim_up_c.finite_nonpos())
            labels = ("(z-c)*Q", "Q/(z-c)")
            return ProductMembership(res, labels)
        if d is None or not c < rat(d):
            raise InvalidInput("need c < d")
        d = rat(d)
        gap_ok = all(not (c < t < d) for t in self.sigma.positions)
        comp_ok = (all(c <= t <= d for t in self.sigma.positions)
                   and self.beta == 0)
        lim_up_d = self.limit_at(d, "value", side="-")
        lim_down_c = self.limit_at(c, "value", side="+")
        lim_down_d = self.limit_at(d, "value", side="+")
        lim_up_c = self.limit_at(c, "value", side="-")
        res = (gap_ok and lim_up_d.finite_nonpos(),
               gap_ok and lim_down_c.finite_nonneg(),
               comp_ok and lim_down_d.finite_nonneg(),
               comp_ok and lim_up_c.finite_nonpos())
        labels = ("(z-c)/(z-d)*Q", "(z-d)/(z-c)*Q",
                  "(z-c)/(d-z)*Q", "(z-d)/(c-z)*Q")
        return ProductMembership(res, labels)

    def __repr__(self):
        atoms = ", ".join(f"({fmt_rat(t)},{fmt_rat(w)})" for t, w in self.sigma)
        return (f"NevFun(alpha={fmt_rat(self.alpha)}, beta={fmt_rat(self.beta)},"
                f" atoms=[{atoms}])")


def _shift(atoms) -> Fraction:
    """alpha - c0 = sum w t/(1 + t^2), with t = u/v and w = x/y summed in
    integers as x u v / (y (u^2 + v^2)) over one common denominator."""
    terms = [(w.numerator * t.numerator * t.denominator,
              w.denominator * (t.numerator ** 2 + t.denominator ** 2))
             for t, w in atoms]
    big = math.lcm(*[d for _, d in terms])
    return Fraction(sum(n * (big // d) for n, d in terms), big)


@record
class CharacterizationReport:
    shape: str
    gap_holds: bool
    condition_holds: bool
    eta: LimitValue
    q_tilde: Optional[NevFun]
    transformed_measure: Optional[AtomicMeasure]
    eta_secondary: Optional[LimitValue] = None
    q_tilde_secondary: Optional[NevFun] = None


@record
class ProductMembership:
    results: tuple[bool, ...]
    labels: tuple[str, ...]


# -- exact Herglotz representation check ------------------------------------------


def is_nevanlinna(f: RatFun) -> bool:
    """Exact check whether a symmetric rational function is a Nevanlinna
    function: at most linear growth with nonnegative slope, all poles real
    and simple, and every residue strictly negative.  The poles are read
    from f's root structure, an irrational pole's residue sign from its
    critical table."""
    try:
        _herglotz_parts(f)
        return True
    except NotNevanlinna:
        return False


def _herglotz_parts(f: RatFun):
    """(beta, c0, [(pole, weight)...]) of f = c0 + beta z + sum w/(t-z),
    weight None at an irrational pole.  The poles come from f's root
    structure; at a simple irrational pole t the residue has the sign of f
    just right of t, its Laurent sign.  Raises NotNevanlinna."""
    q = f.num // f.den
    if q.degree > 1:
        raise NotNevanlinna("superlinear growth at infinity")
    c0, beta = (q.c + (Fraction(0),) * 2)[:2]
    if beta < 0:
        raise NotNevanlinna("negative slope at infinity")
    poles, blocks = f.real_poles, f.complex_pole_blocks
    if blocks or any(m > 1 for _x, m in poles):
        multiple = any(m > 1 for _x, m in poles + blocks)
        raise NotNevanlinna("multiple pole" if multiple else "nonreal pole")
    pairs = []
    for t, _m in poles:
        # the residue num(t)/den'(t) must be negative: w = -residue > 0
        if isinstance(t, Fraction):
            resid = _local(f, t)[1]
            if resid >= 0:
                raise NotNevanlinna(f"nonnegative residue at {fmt_rat(t)}")
            pairs.append((t, -resid))
        elif f.laurent_lead_sign(t) >= 0:
            raise NotNevanlinna("nonnegative residue at irrational pole")
        else:
            pairs.append((t, None))
    return beta, c0, pairs


def nevfun_from_ratfun(f: RatFun) -> NevFun:
    """Exact extraction of representation data from a rational Nevanlinna
    function.  Raises NotNevanlinna when the function is not one, and
    NotRationalAtoms when it is but its poles are irrational."""
    beta, c0, pairs = _herglotz_parts(f)
    if any(w is None for _, w in pairs):
        raise NotRationalAtoms("pole is not rational")
    q = NevFun.from_partial_fractions(c0, beta, pairs)
    if q.to_ratfun() != f:
        raise InvariantViolation("representation extraction mismatch")
    return q


# -- closed-form products and compositions ----------------------------------------


def _certified(lhs: Poly, rhs: Poly, atoms, what: str) -> NevFun:
    """The NevFun lhs/rhs from its atoms, with the quotient of lhs by rhs
    as c0 + beta z.  A weight <= 0, beta < 0 or superlinear growth raises
    NotNevanlinna; the result (n', d') is certified by n' rhs = lhs d'."""
    lin = lhs.divmod(rhs)[0]
    c0, beta = (lin.c + (Fraction(0),) * 2)[:2]
    if lin.degree > 1 or beta < 0 or any(w <= 0 for _, w in atoms):
        raise NotNevanlinna(f"{what} is not a Nevanlinna function")
    q_next = NevFun.from_partial_fractions(c0, beta, atoms)
    f = q_next.to_ratfun()
    if f.num * rhs != lhs * f.den:
        raise InvariantViolation(f"{what}: the certificate identity fails")
    return q_next


def _ends(s: RatFun) -> tuple:
    """The zero and the pole of a degree-one s, INF when at infinity."""
    return tuple(-p.c[0] / p.c[1] if p.degree == 1 else INF
                 for p in (s.num, s.den))


def _local(f: RatFun, x: Fraction) -> tuple[int, Fraction]:
    """(order, Laurent lead) of f = n/d at a rational x where the order is
    -1, 0 or 1."""
    n, d = f.num, f.den
    u, v = n.eval_q(x), d.eval_q(x)
    if not v:
        return -1, u / d.deriv().eval_q(x)
    return (0, u / v) if u else (1, n.deriv().eval_q(x) / v)


def _chain_step(s: RatFun, q: NevFun, psi: Optional[dict] = None) -> NevFun:
    """s q / psi in closed form, for a degree-one s with zero a and pole b
    and psi = prod (z - y)^e over the items of psi, rational points y with
    even e (None: psi = 1).  An atom t of q off a, b and psi's points keeps
    its place with weight w s(t) / psi(t).  At b and psi's points the order
    ord s + ord q - ord psi decides (at a it is >= 0 unless psi has a): -1
    makes an atom of weight -lead(s) lead(q) / lead(psi); below -1 (for psi
    = 1, an atom of q at b), or any other failure, raises NotNevanlinna."""
    psi = psi or {}
    a, b = _ends(s)
    # ord s - ord psi at b and psi's points, where q's order is added
    points = {y: (y == a) - e for y, e in psi.items()}
    if b is not INF:
        points[b] = points.get(b, 0) - 1

    def over_psi(x, v):
        return math.prod(((x - y) ** -e for y, e in psi.items() if y != x),
                         start=v) if psi else v
    f = q.to_ratfun()
    atoms = []
    for x, e in points.items():
        eq, lq = q._local_at(x)
        if e + eq < -1:
            raise NotNevanlinna(f"multiple pole at {fmt_rat(x)}")
        if e + eq == -1:
            atoms.append((x, over_psi(x, -_local(s, x)[1] * lq)))
    atoms += [(t, over_psi(t, w * s.eval_q(t))) for t, w in q.sigma
              if t != a and t not in points]
    lhs, rhs = s.num * f.num, s.den * f.den
    if psi:                             # lhs times psi's poles, rhs its zeros
        zeros, poles = ([y for y, e in psi.items() for _ in range(k * e)]
                        for k in (1, -1))
        lhs, rhs = lhs * Poly.from_roots(poles), rhs * Poly.from_roots(zeros)
    return _certified(lhs, rhs, atoms,
                      "chain step: s q / psi" if psi else "chain step: s q")


def _compose(q: NevFun, tau: RatFun) -> NevFun:
    """q o tau in closed form, for a degree-one Herglotz tau.  For tau =
    c + b z an atom (t, w) goes to ((t - c)/b, w/b).  For tau = c + v/(s - z)
    one with t != c goes to s - v/(t - c) with weight w v/(t - c)^2, an atom
    at c becomes the slope, and beta an atom at s with weight beta v.  A tau
    that is not Herglotz raises NotNevanlinna."""
    b, c, poles = _herglotz_parts(tau)
    if b:
        atoms = [((t - c) / b, w / b) for t, w in q.sigma]
    else:
        [(s, v)] = poles
        atoms = [(s - v / (t - c), w * v / (t - c) ** 2)
                 for t, w in q.sigma if t != c]
        if q.beta:
            atoms.append((s, q.beta * v))
    f = q.to_ratfun()
    deg = max(f.num.degree, f.den.degree)
    return _certified(compose_fractional(f.num, tau.num, tau.den, deg),
                      compose_fractional(f.den, tau.num, tau.den, deg),
                      atoms, "q o tau")
