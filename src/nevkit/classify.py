"""Class machinery for products of generalized Nevanlinna functions with
symmetric rational functions.

Membership and witness construction, the constructive canonical
factorization of the product (single degree-one steps along a
disjoint-negative-set splitting of the multiplier's Nevanlinna part, each
computed in closed form on the representation data and certified by a
polynomial identity), the plain-pair characterization with clause-level
diagnostics, and ordered degree-one factor chains whose partial products all
stay Nevanlinna, each partial product computed once in closed form on the
representation of the one before and certified by a polynomial identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Optional

from .errors import (ConstantInput, ExactSplitUnavailable, InvalidInput,
                     InvariantViolation, NotInClass, NotInterlacing,
                     NotNevanlinna, NotRationalAtoms, PoleHit)
from .gnev import (GenNevFun, _pole_type_mult, _zero_type_mult,
                   canonical_pair, canonical_rational)
from .nevfun import (NevFun, _certified, _chain_step, _compose, _ends,
                     is_nevanlinna)
from .poly import CERTIFICATE_CACHE_SIZE, Poly, RealAlg, point_cmp
from .qmath import INF, NEG_INF, fmt_rat
from .ratfun import RatFun, strictly_between


@dataclass(frozen=True)
class ClassReport:
    member: bool
    kappa: int
    kappa_tilde: Optional[int]
    witness: Optional[GenNevFun]
    violations: tuple = ()
    exceptional_atoms: tuple = ()


@dataclass(frozen=True)
class FactorChain:
    factors: tuple[RatFun, ...]
    partial_certificates: tuple[NevFun, ...]


@dataclass(frozen=True)
class N00Report:
    ok: bool
    failures: tuple = ()
    kappa_tilde: Optional[int] = None
    product: Optional[NevFun] = None    # r q, when its index is 0

    def __bool__(self):
        return self.ok

    def describe(self) -> str:
        """The failed clauses as 'clause at point: detail', joined by '; ',
        with rational points in lowest terms and an irrational one as a
        decimal approximation."""
        def where(p) -> str:
            if p is None:
                return ""
            if isinstance(p, RealAlg):
                return f" at ~{float(p):.6g}"
            return " at inf" if p is INF else f" at {fmt_rat(p)}"
        return "; ".join(f"{clause}{where(p)}: {detail}"
                         for clause, p, detail in self.failures)


@dataclass(frozen=True)
class KacClosureReport:
    at_poles: tuple            # ((point, bool), ...) for the input function
    at_zeros: tuple            # ((point, bool), ...) for the product

    def all_hold(self) -> bool:
        return (all(ok for _, ok in self.at_poles)
                and all(ok for _, ok in self.at_zeros))


# -- membership and product factorization -----------------------------------------


def membership(g: GenNevFun, r: RatFun) -> ClassReport:
    """Decide class membership of the product with r and construct its
    canonical factorization as witness.

    With finite atomic data every support point where r is strictly negative
    is a pole of the Nevanlinna part, so the exception set is always finite
    and membership holds; the report lists those exceptional poles, which are
    exactly the mechanism that raises the product index.
    """
    if r.is_constant:
        raise ConstantInput("multiplier must be nonconstant")
    exceptional = _negative_at(r, g.q0.support())
    witness = product_factorization(g, r)
    return ClassReport(True, g.kappa, witness.kappa, witness,
                       (), tuple(exceptional))


def _negative_at(r: RatFun, points) -> list:
    """The points, INF included, at which r is strictly negative; r is not
    negative at its poles."""
    out = []
    for p in points:
        if p is INF:
            neg = r.ord_at_inf() == 0 and r.gamma < 0
        else:
            try:
                neg = r.sign_at(p) < 0
            except PoleHit:
                neg = False
        if neg:
            out.append(p)
    return out


def _zero_points(q: NevFun) -> list:
    return [rec.point for rec in q.zeros()]


def product_factorization(g: GenNevFun, r: RatFun) -> GenNevFun:
    """Canonical pair of r times the function: split the Nevanlinna part of
    r into degree-one pieces with pairwise disjoint closed negative sets and
    absorb them one at a time, collecting the squared factors each step
    produces.  Each step is computed in closed form from the representation
    data and certified exactly, without re-extracting a representation."""
    if r.is_constant:
        raise ConstantInput("multiplier must be nonconstant")
    if g.q0.is_constant and g.q0.alpha == 0:
        raise InvalidInput("zero function has no canonical pair")
    psi_r, s0, _ = canonical_rational(r)
    acc_phi = g.phi * psi_r
    q_cur = g.q0
    if s0.is_constant:
        c = s0.gamma
        if c > 0:
            return GenNevFun(acc_phi, q_cur.scale(c))
        # all-even multiplier with a negative sign: extract globally
        return canonical_pair(r * g.to_ratfun())
    for s_i in interlacing_factorize(s0):
        psi_i, q_cur = _degree_one_step(s_i, q_cur)
        acc_phi = acc_phi * psi_i
    return GenNevFun(acc_phi, q_cur)


def _degree_one_step(s: RatFun, q: NevFun) -> tuple[RatFun, NevFun]:
    """One multiplication by a degree-one simple factor s, in closed form on
    the representation data of q: the squared factor psi it contributes to
    the canonical pair and the Nevanlinna function q_next = s q / psi.

    psi carries the type multiplicities of s q at the finite zero and pole
    of s, and the atoms and zeros of q where s is negative; q's numerator is
    isolated only when sign changes put a zero there.  q_next has its atoms
    where ord s + ord q - ord psi = -1, with weight -lead(s) lead(q) /
    lead(psi), and the polynomial part of s q / psi as linear part.  It is
    certified exactly: positive weights, nonnegative slope and the Poly
    identity q_next psi = s q.  Any failure is an InvariantViolation."""
    a, b = _ends(s)

    def s_local(x) -> tuple[int, Fraction]:
        u, v = s.num.eval_q(x), s.den.eval_q(x)
        return (1, s.num.lead / v) if u == 0 else (-1, u) if v == 0 \
            else (0, u / v)

    def negative(x) -> bool:
        return s.num.eval_q(x) * s.den.eval_q(x) < 0

    n, d = q.num_den()

    def q_local(x) -> tuple[int, Fraction]:
        """(order, Laurent lead) of q at a non-atom; zeros are simple."""
        v, dx = n.eval_q(x), d.eval_q(x)
        return (0, v / dx) if v else (1, n.deriv().eval_q(x) / dx)

    # local data of q at every candidate atom of q_next
    q_loc = {t: (-1, -w) for t, w in q.sigma}
    q_loc.update((x, q_loc.get(x) or q_local(x)) for x in (a, b)
                 if x is not INF)
    psi = {t: -2 for t in q_loc if negative(t)}   # point -> even exponent
    for x, type_mult, sgn in ((a, _zero_type_mult, 1),
                              (b, _pole_type_mult, -1)):
        if x is not INF:
            e, lead = q_loc[x]
            m = type_mult(1 + sgn * e, s_local(x)[1] * lead)
            if m:
                psi[x] = 2 * sgn * m
    # The atoms and the finite ends of the set where s < 0 cut the line
    # into cells, each inside that set or outside it.  q increases on each
    # cell, so it vanishes inside one exactly when it is negative just right
    # of the left end and positive just left of the right end.  The outer
    # cells end at NEG_INF and INF, which are not in q_loc: there q takes its
    # signs as at an atom if beta > 0, else as at a regular point.
    at_inf = (-1, -1) if q.beta > 0 else (0, q.c0)

    def end_sign(x, right_of: bool) -> int:
        e, lead = q_loc.get(x, at_inf)                  # q ~ lead (z-x)^e
        sgn = (lead > 0) - (lead < 0)
        return sgn if right_of or e % 2 == 0 else -sgn

    ends = sorted(q_loc)                # not empty: s has a finite end
    insides = ([ends[0] - 1] + [(x + y) / 2 for x, y in zip(ends, ends[1:])]
               + [ends[-1] + 1])
    if any(negative(x) and end_sign(lo, True) < 0 < end_sign(hi, False)
           for lo, hi, x in zip([NEG_INF] + ends, ends + [INF], insides)):
        for x in _negative_at(s, _zero_points(q)):
            if isinstance(x, RealAlg):
                raise ExactSplitUnavailable(
                    "irrational zero inside the negative set of the factor")
            psi[x] = 2
            q_loc[x] = q_local(x)

    atoms = []
    for x, (eq, lq) in q_loc.items():
        es, ls = s_local(x)
        if es + eq - psi.get(x, 0) == -1:
            lead_psi = math.prod(((x - y) ** e for y, e in psi.items()
                                  if y != x), start=Fraction(1))
            atoms.append((x, -ls * lq / lead_psi))
    psi_num = Poly.from_roots([y for y, e in psi.items() for _ in range(e)])
    psi_den = Poly.from_roots([y for y, e in psi.items() for _ in range(-e)])
    return RatFun(psi_num, psi_den), _certified(
        s.num * n * psi_den, s.den * d * psi_num, atoms,      # s q / psi
        InvariantViolation, "degree-one step: s q / psi")


# -- splitting of simple interlacing functions ---------------------------------------


def interlacing_factorize(s: RatFun) -> list[RatFun]:
    """Split a simple symmetric rational function with real interlacing zeros
    and poles into degree-one factors whose closed negative sets are pairwise
    disjoint."""
    if s.degree < 1:
        raise ConstantInput("nothing to factor")
    crit = s.critical_points()
    if (any(m != 1 for _x, m, _k in crit) or s.complex_zero_blocks
            or s.complex_pole_blocks):
        raise NotInterlacing("zeros and poles must be real and simple")
    if any(isinstance(x, RealAlg) for x, _m, _k in crit):
        raise ExactSplitUnavailable("interlacing split needs rational points")
    for (x1, _m1, k1), (x2, _m2, k2) in zip(crit, crit[1:]):
        if k1 == k2:
            raise NotInterlacing(
                f"consecutive like points at {fmt_rat(x1)}, {fmt_rat(x2)}")
    a = [x for x, _m, k in crit if k == "zero"]
    b = [x for x, _m, k in crit if k == "pole"]
    l1, l2 = len(a), len(b)
    gamma = s.gamma
    if l1 == l2:
        if crit and crit[0][2] == "pole":
            return [f.inverse() for f in interlacing_factorize(s.inverse())]
        if gamma < 0:
            out = [RatFun.from_points([a[0]], [b[-1]], gamma)]
            out += [RatFun.from_points([a[i]], [b[i - 1]]) for i in range(1, l1)]
        else:
            out = [RatFun.from_points([a[0]], [b[0]], gamma)]
            out += [RatFun.from_points([a[i]], [b[i]]) for i in range(1, l1)]
    elif l2 == l1 + 1:
        # pole first and pole last
        if gamma < 0:
            out = [RatFun.from_points([a[i]], [b[i]]) for i in range(l1)]
            out += [RatFun.from_points([], [b[-1]], gamma)]
        else:
            out = [RatFun.from_points([a[i]], [b[i + 1]]) for i in range(l1)]
            out += [RatFun.from_points([], [b[0]], gamma)]
    elif l1 == l2 + 1:
        return [f.inverse() for f in interlacing_factorize(s.inverse())]
    else:
        raise NotInterlacing("zero/pole counts differ by more than one")
    if math.prod(out, start=RatFun.const(1)) != s:
        raise InvariantViolation("interlacing factors do not multiply back")
    return out


def negative_closed_pieces(f: RatFun) -> list[tuple]:
    """Closure in the real line of the set where f is negative, as closed
    intervals (lo, hi) with NEG_INF / INF allowed as endpoints."""
    return [(seg.lo, seg.hi)
            for seg in f.sign_on_interval().negative_segments()]


def pieces_disjoint(p1: list[tuple], p2: list[tuple]) -> bool:
    """Whether two closed piece lists have empty intersection."""
    for (a1, b1) in p1:
        for (a2, b2) in p2:
            lo = a1 if point_cmp(a2, a1) <= 0 else a2
            hi = b1 if point_cmp(b1, b2) <= 0 else b2
            if point_cmp(lo, hi) <= 0:
                return False
    return True


# -- plain-pair characterization ----------------------------------------------------


@lru_cache(maxsize=CERTIFICATE_CACHE_SIZE)
def check_N00(q: NevFun, r: RatFun) -> N00Report:
    """Clause-by-clause test that both the function and its product with r
    are Nevanlinna.  Diagnostics list every failed clause; the product index
    is reported alongside whenever it is computable, with r q as ``product``
    when it is 0, and the clause verdict is asserted against it.

    The report is memoised on the values of q and r.  Exceptions are not
    memoised, so invalid input and a failed cross-check raise again on
    every call."""
    if q.is_constant and q.alpha == 0:
        raise InvalidInput("the zero function is excluded")
    if r.is_constant:
        raise ConstantInput("multiplier must be nonconstant")
    failures = []
    q_rat = q.to_ratfun()

    # every finite zero and pole of r real, of order at most two
    if r.complex_zero_blocks or r.complex_pole_blocks:
        failures.append(("ii", None, "nonreal zero or pole"))
    for rec in r.real_zeros + r.real_poles:
        if rec.mult > 2:
            failures.append(("ii", rec.point, f"order {rec.mult} > 2"))

    # the multiplier is nonnegative on the spectral support and the function
    # does not vanish where the multiplier is strictly negative
    for t in _negative_at(r, q.support()):
        failures.append(("i", t, "negative multiplier at the mass at infinity"
                         if t is INF else "negative multiplier at an atom"))
    for a in _negative_at(r, _zero_points(q)):
        failures.append(("i", a,
                         "function vanishes where multiplier is negative"))

    # local clauses at the finite zeros and poles of r of order <= 2
    for rec in r.real_zeros:
        if rec.mult == 2:
            has_atom = rec.is_rational and q.sigma.weight_at(rec.point) > 0
            if not has_atom:
                failures.append(("ii(a)", rec.point,
                                 "double zero is not an isolated pole"))
            if r.laurent_lead_sign(rec.point) >= 0:
                failures.append(("ii(a)", rec.point,
                                 "double zero has nonnegative local limit"))
        elif rec.mult == 1:
            if not _order_one_clause(q, r, rec.point, is_zero=True):
                failures.append(("ii(b)", rec.point, "zero-side limit sign"))
    for rec in r.real_poles:
        if rec.mult == 2:
            ok = False
            if rec.is_rational and q.sigma.weight_at(rec.point) == 0:
                ok = q.evaluate(rec.point) == 0
            if not ok:
                failures.append(("ii(a)", rec.point,
                                 "double pole is not an isolated zero"))
            if r.laurent_lead_sign(rec.point) >= 0:
                failures.append(("ii(a)", rec.point,
                                 "double pole has nonnegative local limit"))
        elif rec.mult == 1:
            if not _order_one_clause(q, r, rec.point, is_zero=False):
                failures.append(("ii(b)", rec.point, "pole-side limit sign"))

    try:
        pair = canonical_pair(r * q_rat)
    except (ExactSplitUnavailable, NotRationalAtoms):
        pair = None
    kappa_tilde = None if pair is None else pair.kappa
    ok = not failures
    if kappa_tilde is not None and ok != (kappa_tilde == 0):
        raise InvariantViolation(
            f"clause verdict {ok} disagrees with product index {kappa_tilde}")
    # at index 0 the factor is 1, so the pair's q0 is r q
    return N00Report(ok, tuple(failures), kappa_tilde,
                     pair.q0 if kappa_tilde == 0 else None)


def _order_one_clause(q: NevFun, r: RatFun, point, is_zero: bool) -> bool:
    """Sign condition at an order-one zero or pole of the multiplier, with
    the improper limit of q taken from inside the adjacent negative set."""
    iota = r.laurent_lead_sign(point)
    # the multiplier is negative to the left of the point exactly when the
    # local leading coefficient is positive
    side = "-" if iota > 0 else "+"
    if isinstance(point, RealAlg):
        # atoms are rational, so q is regular at an irrational point
        val_sign = q.to_ratfun().sign_at(point)
        if is_zero:
            return iota * val_sign > 0
        return iota * val_sign <= 0
    lim = q.limit_at(point, "value", side=side)
    if is_zero:
        if lim.is_finite:
            return iota * lim.value > 0
        return (lim.kind == "+inf" and iota > 0) or \
               (lim.kind == "-inf" and iota < 0)
    if not lim.is_finite:
        return False
    return iota * lim.value <= 0


def productinNg_forms(q: NevFun, s: RatFun) -> tuple[bool, bool, bool, bool]:
    """The four equivalent membership forms for a simple multiplier (all
    zeros and poles real and simple, the point at infinity included)."""
    _require_simple(s)
    q_rat = q.to_ratfun()
    g_rat = s * q_rat

    form_i = is_nevanlinna(g_rat)

    ok_ii = not _negative_at(s, q.support() + _zero_points(q))
    for rec in s.real_zeros:
        e = g_rat.ord_at(rec.point)
        if _zero_type_mult(max(e, 0), g_rat.laurent_lead_sign(rec.point)):
            ok_ii = False
    for rec in s.real_poles:
        e = g_rat.ord_at(rec.point)
        if _pole_type_mult(max(-e, 0), g_rat.laurent_lead_sign(rec.point)):
            ok_ii = False
    form_ii = ok_ii

    form_iii = _interval_form(q, s)

    ok_iv = not _negative_at(s, q.support())
    for rec in s.real_poles:
        e = g_rat.ord_at(rec.point)
        if e < -1 or (e == -1 and g_rat.laurent_lead_sign(rec.point) > 0):
            ok_iv = False
    if s.ord_at_inf() < 0:
        d = g_rat.num.degree - g_rat.den.degree
        if d > 1 or (d == 1 and g_rat.gamma < 0):
            ok_iv = False
    form_iv = ok_iv

    return form_i, form_ii, form_iii, form_iv


def _require_simple(s: RatFun):
    if s.is_constant:
        raise ConstantInput("multiplier must be nonconstant")
    if (any(r.mult != 1 for r in s.real_zeros + s.real_poles)
            or s.complex_zero_blocks or s.complex_pole_blocks
            or abs(s.ord_at_inf()) > 1):
        raise NotInterlacing("multiplier must be simple, infinity included")


def _interval_form(q: NevFun, s: RatFun) -> bool:
    """Per maximal negative interval: holomorphic, nonvanishing, constant
    sign inside, with endpoint types matching that sign."""
    q_rat = q.to_ratfun()
    for comp in _negative_components(s):
        for t in q.support(include_inf=False):
            if _in_component(t, comp):
                return False
        for rec in q_rat.real_zeros:
            if _in_component(rec.point, comp):
                return False
        # q has no zero or pole inside, so its sign there is the one just
        # right of the left end
        sgn = q_rat.laurent_lead_sign(comp["left"])
        if comp["wraps"]:
            # the function must be holomorphic and nonvanishing at infinity
            if q.beta > 0:
                return False
            lim = q.limit_at(INF, "value")
            if not lim.is_finite or lim.value == 0:
                return False
        for role in ("left", "right"):
            # an end at NEG_INF or INF takes its kind from s at infinity
            kind = comp[f"{role}_kind"]
            want_zero = (sgn < 0) == (role == "left")
            if kind is None or want_zero != (kind == "zero"):
                return False
    return True


def _negative_components(s: RatFun):
    """Maximal arcs of the extended line where s is negative."""
    comps = []
    neg = s.sign_on_interval().negative_segments()
    left_unb = next((seg for seg in neg if seg.lo is NEG_INF), None)
    right_unb = next((seg for seg in neg if seg.hi is INF), None)
    wrap = (left_unb is not None and right_unb is not None
            and s.ord_at_inf() % 2 == 0)
    for seg in neg:
        if wrap and (seg is left_unb or seg is right_unb):
            continue
        comps.append({
            "left": seg.lo,
            "right": seg.hi,
            "left_kind": _point_kind(s, seg.lo),
            "right_kind": _point_kind(s, seg.hi),
            "wraps": False,
        })
    if wrap:
        comps.append({
            "left": right_unb.lo,
            "right": left_unb.hi,
            "left_kind": _point_kind(s, right_unb.lo),
            "right_kind": _point_kind(s, left_unb.hi),
            "wraps": True,
        })
    return comps


def _in_component(t, comp) -> bool:
    if comp["wraps"]:
        return (point_cmp(t, comp["left"]) > 0
                or point_cmp(t, comp["right"]) < 0)
    return strictly_between(t, comp["left"], comp["right"])


def _point_kind(s: RatFun, p) -> Optional[str]:
    if p is NEG_INF or p is INF:
        m = s.ord_at_inf()
        return "zero" if m > 0 else ("pole" if m < 0 else None)
    e = s.ord_at(p)
    return "zero" if e > 0 else ("pole" if e < 0 else None)


# -- ordered degree-one chains --------------------------------------------------------


def chain_factorize(q: NevFun, r: RatFun) -> FactorChain:
    """Ordered degree-one factors multiplying to r such that every partial
    product with q is a Nevanlinna function, each computed once in closed
    form from the one before and certified by a polynomial identity."""
    rep = check_N00(q, r)
    if not rep.ok:
        raise NotInClass(f"pair fails the plain-pair test: {rep.describe()}")
    factors, certs = _chain_build(q, r)
    if math.prod(factors, start=RatFun.const(1)) != r:
        raise InvariantViolation("chain factors do not multiply back")
    return FactorChain(tuple(factors), tuple(certs))


def _certify_chain(q: NevFun, factors) -> list[NevFun]:
    """The partial products of the factors with q, one closed-form step
    each; NotNevanlinna when one of them is not a Nevanlinna function."""
    return list(accumulate(factors, lambda acc, f: _chain_step(f, acc),
                           initial=q))[1:]


def _odd_part(r: RatFun) -> RatFun:
    """The simple symmetric function carrying r's odd-order finite points
    and its leading coefficient; r divided by it is nonnegative."""
    points = []
    for recs, what in ((r.real_zeros, "zero"), (r.real_poles, "pole")):
        points.append([rec.point for rec in recs if rec.mult % 2])
        if not all(isinstance(x, Fraction) for x in points[-1]):
            raise ExactSplitUnavailable(f"irrational odd-order {what}")
    return RatFun.from_points(*points, r.gamma)


def _chain_build(q: NevFun, r: RatFun) -> tuple[list[RatFun], list[NevFun]]:
    """The chain's factors and their partial products with q, in one pass:
    each negative component takes its factors from the last product."""
    s = _odd_part(r)
    if s.is_constant:
        return _degenerate_chain(q, r)
    comps = _negative_components(s)
    if any(c["wraps"] or c["left"] is NEG_INF or c["right"] is INF
           for c in comps):
        p = _positive_anchor(s, q, r)
        tau = RatFun(Poly([-1, p]), Poly([0, 1]))      # p - 1/lambda
        inner, _ = _chain_build(_compose(q, tau), r.compose_mobius(tau))
        tinv = tau.mobius_inverse()
        factors = [f.compose_mobius(tinv) for f in inner]
        return factors, _certify_chain(q, factors)
    factors, certs, q_cur = [], [], q
    for comp in sorted(comps, key=lambda c: c["left"]):
        fs = _interval_factors(q_cur, r, comp["left"], comp["right"])
        factors += fs
        certs += _certify_chain(q_cur, fs)
        q_cur = certs[-1]
    # the factors carry the zeros and poles of r, as chain_factorize checks
    c = r.gamma / math.prod((f.gamma for f in factors), start=Fraction(1))
    if c <= 0:
        raise InvariantViolation("negative leftover constant")
    if c != 1:
        factors[0] = factors[0] * c
        certs = [cert.scale(c) for cert in certs]
    return factors, certs


def _positive_anchor(s: RatFun, q: NevFun, r: RatFun) -> Fraction:
    """A rational point where s is strictly positive that is not a zero,
    pole or support point of anything involved: walk the cells of the
    common critical-point refinement, read the sign of s on each from its
    critical table, and draw one rational in the first positive cell."""
    from functools import cmp_to_key
    from .poly import rational_between, rational_outside
    pts = []
    for f in (s, q.to_ratfun(), r):
        pts.extend(p for (p, _m, _k) in f.critical_points())
    pts.sort(key=cmp_to_key(point_cmp))
    dedup = []
    for p in pts:
        if not dedup or point_cmp(dedup[-1], p) != 0:
            dedup.append(p)
    for a, b in zip([NEG_INF] + dedup, dedup + [INF]):
        if s.laurent_lead_sign(a) <= 0:
            continue
        if a is NEG_INF:                # s nonconstant: dedup is not empty
            return rational_outside(b)[0]
        return rational_outside(a)[1] if b is INF else rational_between(a, b)
    raise NotInClass("multiplier is nowhere positive")


def _interval_factors(q: NevFun, r: RatFun, a: Fraction, b: Fraction):
    """Factors for one bounded maximal negative interval: paired interior
    factors, the endpoint factors, then the paired factors again.

    The interior points are the entries of q's critical table inside
    (a, b), its poles being its atoms.  q's sign just right of a, flipped
    once per interior point, fixes the pattern: a leading zero stays
    unpaired when q goes from negative to positive, a trailing atom when it
    goes from positive to negative, and the rest pair up as (atom, zero)."""
    q_rat = q.to_ratfun()
    seq = [(x, kind) for x, _m, kind in q_rat.critical_points()
           if strictly_between(x, a, b)]
    if any(isinstance(x, RealAlg) for x, _k in seq):
        raise ExactSplitUnavailable("irrational zero inside the interval")
    left_pos = q_rat.laurent_lead_sign(a) > 0
    right_pos = left_pos != (len(seq) % 2 == 1)
    if right_pos and not left_pos:
        alpha0, seq = seq[0][0], seq[1:]
        ends = [RatFun.from_points([a], [alpha0]),
                RatFun.from_points([b], [alpha0])]
    elif left_pos and not right_pos:
        beta_last, seq = seq[-1][0], seq[:-1]
        ends = [RatFun.from_points([beta_last], [a]),
                RatFun.from_points([beta_last], [b])]
    elif left_pos:
        ends = [RatFun.from_points([b], [a])]
    else:
        ends = [RatFun.from_points([a], [b])]
    tilde = []
    for pair in zip(seq[::2], seq[1::2]):
        at = {kind: x for x, kind in pair}
        tilde.append(RatFun.from_points([at["pole"]], [at["zero"]]))
    expect = ("pole" if left_pos else "zero", "zero" if right_pos else "pole")
    got = (_point_kind(r, a), _point_kind(r, b))
    if got != expect:
        raise NotInClass(f"endpoint kinds {got} do not match the interior "
                         f"pattern {expect}")
    return tilde + ends + tilde


def _degenerate_chain(q: NevFun, r: RatFun) -> tuple[list[RatFun],
                                                     list[NevFun]]:
    """All-even multiplier with negative sign: pair the atoms and zeros of q
    across the whole line, certifying every candidate layout and keeping the
    first that passes, with its partial products."""
    gamma = r.gamma
    pts = []
    for recs, kind, what in ((r.real_zeros, "atom", "zero"),
                             (r.real_poles, "zero", "pole")):
        for rec in recs:
            if not rec.is_rational:
                raise ExactSplitUnavailable(f"irrational double {what}")
            pts.append((rec.point, kind))
    pts.sort()
    for (x1, k1), (x2, k2) in zip(pts, pts[1:]):
        if k1 == k2:
            raise NotInClass("degenerate layout does not alternate")

    # an even count pairs up whole; an odd one leaves its last or its
    # first point to a pair of factors of its own
    layouts = ([(pts, None)] if len(pts) % 2 == 0
               else [(pts[:-1], pts[-1]), (pts[1:], pts[0])])
    candidates = []
    for pairable, star in layouts:
        base = [RatFun.from_points([x], [y]) if k == "atom"
                else RatFun.from_points([y], [x])
                for (x, k), (y, _k) in zip(pairable[::2], pairable[1::2])]
        if star is None:
            for spot in range(len(base)):
                second = list(base)
                second[spot] = second[spot] * gamma
                candidates.append(base + second)
            continue
        lin, one = Poly([-star[0], 1]), Poly.const(1)
        num, den = (lin, one) if star[1] == "atom" else (one, lin)
        for e1 in (Fraction(1), Fraction(-1), gamma, -gamma):
            candidates.append(base + [RatFun(num * e1, den),
                                      RatFun(num * (gamma / e1), den)] + base)

    for chain in candidates:
        if math.prod(chain, start=RatFun.const(1)) != r:
            continue
        try:
            return chain, _certify_chain(q, chain)
        except NotNevanlinna:
            continue
    raise NotInClass("no certified degenerate chain layout found")


# -- local class closure --------------------------------------------------------------


def kac_closure(q: NevFun, r: RatFun) -> KacClosureReport:
    """Local integrability of q at every pole of r and of the product at
    every zero of r; the plain-pair precondition is required."""
    rep = check_N00(q, r)
    if not rep.ok:
        raise NotInClass("pair fails the plain-pair test")
    rq = rep.product
    if rq is None:
        raise NotRationalAtoms("pole is not rational")
    at_poles = tuple((rec.point, _kac_at(q, rec.point)) for rec in r.poles())
    at_zeros = tuple((rec.point, _kac_at(rq, rec.point)) for rec in r.zeros())
    return KacClosureReport(at_poles, at_zeros)


def _kac_at(q: NevFun, point) -> bool:
    # atoms are rational, so no mass sits at an irrational point
    return isinstance(point, RealAlg) or q.kac_membership(point)
