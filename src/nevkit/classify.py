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
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import accumulate
from typing import Optional

from .errors import (ConstantInput, ExactSplitUnavailable, InvalidInput,
                     InvariantViolation, NotInClass, NotInterlacing,
                     NotNevanlinna, NotRationalAtoms)
from .gnev import GenNevFun, _type_mult, canonical_pair, canonical_rational
from .nevfun import NevFun, _chain_step, is_nevanlinna
from .poly import RealAlg, point_cmp, rational_between, rational_outside
from .qmath import INF, NEG_INF, ExtSymbol, fmt_rat, record
from .ratfun import RatFun, from_table, strictly_between


@record
class ClassReport:
    kappa: int
    kappa_tilde: int
    witness: GenNevFun
    exceptional_atoms: tuple


@record
class FactorChain:
    factors: tuple[RatFun, ...]
    partial_certificates: tuple[NevFun, ...]


@record
class N00Report:
    ok: bool
    failures: tuple = ()
    kappa_tilde: Optional[int] = None
    product: Optional[NevFun] = None    # r q, when its index is 0

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


@record
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
    exceptional = _negative_at(r, g.q0.support())
    witness = product_factorization(g, r)
    return ClassReport(g.kappa, witness.kappa, witness, tuple(exceptional))


def _negative_at(r: RatFun, points) -> list:
    """The points, INF included, at which r is strictly negative, read from
    its critical table; r is not negative at its zeros and poles."""
    return [p for p in points
            if r.ord_at(p) == 0 and r.laurent_lead_sign(p) < 0]


def _zero_points(q: NevFun) -> list:
    """The finite real zeros of q."""
    return [x for x, _m in q.to_ratfun().real_zeros]


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
    the canonical pair, from the type multiplicities of s q at the finite
    zero and pole of s and the atoms and zeros of q where s is negative, all
    read off the critical tables of s and q, and q_next = s q / psi, the
    chain step with the multiplier s / psi, which carries the merged table
    of s and psi.  A step that does not certify is an InvariantViolation."""
    a, b = _ends(s)
    q_rat = q.to_ratfun()
    # point -> even exponent: -2 at an atom and +2 at a zero of q inside
    # the one negative arc of s, INF left out
    (arc,) = _negative_arcs(s)
    exps = {}
    for x, e in _arc_entries(q, *arc):
        if isinstance(x, RealAlg):              # atoms are rational
            raise ExactSplitUnavailable(
                "irrational zero inside the negative set of the factor")
        if x is not INF:
            exps[x] = 2 * e
    # the type multiplicity of s q at the zero (k = 1) and the pole (k = -1)
    # of s, where its order is k + ord q and its sign that of s times q's
    for x, k in ((a, 1), (b, -1)):
        if x is not INF and (m := _type_mult(
                k + q_rat.ord_at(x),
                s.laurent_lead_sign(x) * q_rat.laurent_lead_sign(x))):
            exps[x] = 2 * m
    psi = from_table(exps.items(), ())
    try:
        q_next = _chain_step(s / psi, q)
    except NotNevanlinna as exc:
        raise InvariantViolation(f"degree-one step: {exc}") from exc
    return psi, q_next


def _ends(s: RatFun) -> tuple:
    """The zero and the pole of a degree-one s, INF when at infinity."""
    return tuple(-p.c[0] / p.c[1] if p.degree == 1 else INF
                 for p in (s.num, s.den))


# -- splitting of simple interlacing functions ---------------------------------------


def interlacing_factorize(s: RatFun) -> list[RatFun]:
    """Split a simple symmetric rational function with real interlacing zeros
    and poles into degree-one factors whose closed negative sets are pairwise
    disjoint."""
    if s.degree < 1:
        raise ConstantInput("nothing to factor")
    crit = s.critical_points()
    if (any(abs(e) != 1 for _x, e in crit) or s.complex_zero_blocks
            or s.complex_pole_blocks):
        raise NotInterlacing("zeros and poles must be real and simple")
    if any(isinstance(x, RealAlg) for x, _e in crit):
        raise ExactSplitUnavailable("interlacing split needs rational points")
    for (x1, e1), (x2, e2) in zip(crit, crit[1:]):
        if e1 == e2:
            raise NotInterlacing(
                f"consecutive like points at {fmt_rat(x1)}, {fmt_rat(x2)}")
    # one monic factor per negative arc, from its zero end to its pole
    # end; the arc through INF first, gamma on the arc that reaches INF
    arcs = _negative_arcs(s)
    a, b = arcs[-1]
    if point_cmp(a, b) > 0:
        arcs.insert(0, arcs.pop())
    out = [_unit_factor(x, y, INF) if _point_kind(s, x) > 0
           else _unit_factor(y, x, INF) for x, y in arcs]
    k = -1 if a is NEG_INF or b is INF else 0
    out[k] = out[k] * s.gamma
    if math.prod(out, start=RatFun.const(1)) != s:
        raise InvariantViolation("interlacing factors do not multiply back")
    return out


def negative_closed_pieces(f: RatFun) -> list[tuple]:
    """Closure in the real line of the set where f is negative, as closed
    intervals (lo, hi) with NEG_INF / INF allowed as endpoints."""
    return [(a, b) for a, b, sgn in f.sign_on_interval() if sgn < 0]


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

#: number of pairs whose plain-pair report is kept by check_N00
CERTIFICATE_CACHE_SIZE = 1024


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
    for x, m in r.real_zeros + r.real_poles:
        if m > 2:
            failures.append(("ii", x, f"order {m} > 2"))

    # the multiplier is nonnegative on the spectral support and the function
    # does not vanish where the multiplier is strictly negative
    for t in _negative_at(r, q.support()):
        failures.append(("i", t, "negative multiplier at the mass at infinity"
                         if t is INF else "negative multiplier at an atom"))
    for a in _negative_at(r, _zero_points(q)):
        failures.append(("i", a,
                         "function vanishes where multiplier is negative"))

    # local clauses at the finite zeros and poles of r of order <= 2
    for k, kind, other in ((1, "zero", "pole"), (-1, "pole", "zero")):
        for x, m in r.real_zeros if k > 0 else r.real_poles:
            if m == 2:
                if k * q_rat.ord_at(x) >= 0:
                    failures.append(("ii(a)", x, f"double {kind} is not an "
                                     f"isolated {other}"))
                if r.laurent_lead_sign(x) >= 0:
                    failures.append(("ii(a)", x, f"double {kind} has "
                                     "nonnegative local limit"))
            elif m == 1 and not _order_one_clause(q_rat, r, x, k > 0):
                failures.append(("ii(b)", x, f"{kind}-side limit sign"))

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


def plain_pair(q: NevFun, r: RatFun) -> N00Report:
    """The memoised plain-pair report of q and r when the pair passes;
    NotInClass naming the failed clauses when it does not."""
    rep = check_N00(q, r)
    if not rep.ok:
        raise NotInClass(f"pair fails the plain-pair test: {rep.describe()}")
    return rep


def _order_one_clause(q_rat: RatFun, r: RatFun, point,
                      is_zero: bool) -> bool:
    """Sign condition at an order-one zero or pole of the multiplier, read
    from the critical tables: at an atom of q the limit of q from inside
    the adjacent negative set is infinite, of the sign that a zero needs
    and a pole cannot have; elsewhere q is regular there."""
    if q_rat.ord_at(point) < 0:
        return is_zero
    v = r.laurent_lead_sign(point) * q_rat.sign_at(point)
    return v > 0 if is_zero else v <= 0


def productinNg_forms(q: NevFun, s: RatFun) -> tuple[bool, bool, bool, bool]:
    """The four equivalent membership forms for a simple multiplier (all
    zeros and poles real and simple, the point at infinity included)."""
    _require_simple(s)
    q_rat = q.to_ratfun()
    g_rat = s * q_rat

    form_i = is_nevanlinna(g_rat)

    form_ii = not _negative_at(s, q.support() + _zero_points(q))
    for x, _k in s.critical_points():
        if _type_mult(g_rat.ord_at(x), g_rat.laurent_lead_sign(x)):
            form_ii = False

    form_iii = _interval_form(q, s)

    form_iv = not _negative_at(s, q.support())
    for x, _m in s.real_poles:
        e = g_rat.ord_at(x)
        if e < -1 or (e == -1 and g_rat.laurent_lead_sign(x) > 0):
            form_iv = False
    if s.ord_at_inf() < 0:
        d = g_rat.num.degree - g_rat.den.degree
        if d > 1 or (d == 1 and g_rat.gamma < 0):
            form_iv = False

    return form_i, form_ii, form_iii, form_iv


def _require_simple(s: RatFun):
    if s.is_constant:
        raise ConstantInput("multiplier must be nonconstant")
    if (any(m != 1 for _x, m in s.real_zeros + s.real_poles)
            or s.complex_zero_blocks or s.complex_pole_blocks
            or abs(s.ord_at_inf()) > 1):
        raise NotInterlacing("multiplier must be simple, infinity included")


def _interval_form(q: NevFun, s: RatFun) -> bool:
    """Per maximal negative arc: holomorphic, nonvanishing, constant
    sign inside, with endpoint types matching that sign."""
    q_rat = q.to_ratfun()
    for a, b in _negative_arcs(s):
        if _arc_entries(q, a, b):
            return False
        # q has no zero or pole inside, so its sign there is the one just
        # right of a; an end at NEG_INF or INF takes its kind from s there
        want = (1, -1) if q_rat.sign_right_of(a) < 0 else (-1, 1)
        if (_point_kind(s, a), _point_kind(s, b)) != want:
            return False
    return True


def _negative_arcs(s: RatFun) -> list[tuple]:
    """The maximal arcs of the extended line where s < 0, as (a, b): the
    bounded ones in ascending order, then the one through INF, if any,
    which runs from a through INF to b < a, from a to b = INF, or from
    INF to b with a = NEG_INF."""
    arcs = negative_closed_pieces(s)
    if arcs and arcs[0][0] is NEG_INF:
        b = arcs.pop(0)[1]
        arcs.append((arcs.pop()[0] if arcs and arcs[-1][1] is INF
                     else NEG_INF, b))
    return arcs


def _arc_entries(q: NevFun, a, b) -> list[tuple]:
    """The entries of q's critical table inside the arc from a to b (see
    _negative_arcs), its poles being its atoms, in order from a to b;
    through INF, INF is one of them when q has a zero or pole there."""
    q_rat = q.to_ratfun()
    crit = q_rat.critical_points()
    if point_cmp(a, b) < 0:
        return [(x, e) for x, e in crit if strictly_between(x, a, b)]
    k = q_rat.ord_at(INF)
    return ([(x, e) for x, e in crit if point_cmp(x, a) > 0]
            + [(INF, k)] * (k != 0)
            + [(x, e) for x, e in crit if point_cmp(x, b) < 0])


def _point_kind(s: RatFun, p) -> int:
    """The sign of the order of s at p, NEG_INF and INF being infinity:
    1 at a zero, -1 at a pole, 0 elsewhere."""
    e = s.ord_at(p)
    return (e > 0) - (e < 0)


# the kinds of _point_kind as messages name them
_KIND_NAMES = {1: "zero", -1: "pole", 0: None}


# -- ordered degree-one chains --------------------------------------------------------


def chain_factorize(q: NevFun, r: RatFun) -> FactorChain:
    """Ordered degree-one factors multiplying to r such that every partial
    product with q is a Nevanlinna function, each computed once in closed
    form from the one before and certified by a polynomial identity."""
    plain_pair(q, r)
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
        points.append([x for x, m in recs if m % 2])
        if not all(isinstance(x, Fraction) for x in points[-1]):
            raise ExactSplitUnavailable(f"irrational odd-order {what}")
    return RatFun.from_points(*points, r.gamma)


def _chain_build(q: NevFun, r: RatFun) -> tuple[list[RatFun], list[NevFun]]:
    """The chain's factors and their partial products with q, in one pass
    over the negative arcs of r's odd part s, each taking its factors from
    the last product.  Every factor is 1 at one anchor, INF when s > 0
    there and else a rational p with s(p) > 0; the first then carries the
    constant left over, r(p) at p."""
    s = _odd_part(r)
    if s.is_constant:
        return _degenerate_chain(q, r)
    anchor = (INF if s.gamma > 0 < s.sign_right_of(NEG_INF)
              else _positive_anchor(s, q, r))
    factors, certs, q_cur = [], [], q
    for a, b in _negative_arcs(s):
        fs = _interval_factors(q_cur, r, a, b, anchor)
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
    common critical-point refinement of q and r, which holds s's points,
    r's odd-order ones, read the sign of s on each from its critical
    table, and draw one rational in the first positive cell."""
    pts = []
    for f in (q.to_ratfun(), r):
        pts.extend(p for p, _e in f.critical_points())
    pts.sort(key=cmp_to_key(point_cmp))
    dedup = []
    for p in pts:
        if not dedup or point_cmp(dedup[-1], p) != 0:
            dedup.append(p)
    # s is nonconstant with simple points, so it changes sign at its first
    # point, and some cell is positive
    a, b = next((a, b) for a, b in zip([NEG_INF] + dedup, dedup + [INF])
                if s.sign_right_of(a) > 0)
    if a is NEG_INF:                    # s nonconstant: dedup is not empty
        return rational_outside(b)[0]
    return rational_outside(a)[1] if b is INF else rational_between(a, b)


def _interval_factors(q: NevFun, r: RatFun, a, b, anchor):
    """Factors for the negative arc of s from a to b (see _negative_arcs):
    paired interior factors, the endpoint factors, then the paired factors
    again, each 1 at the anchor.

    The interior points are those of _arc_entries.  q's sign just right
    of a, flipped once per interior point, fixes the pattern:
    a leading zero stays unpaired when q goes from negative to positive, a
    trailing atom when it goes from positive to negative, and the rest
    pair up as (atom, zero).

    Cyclic-pattern lemma: on an arc that reaches INF, and so misses p,
    this reading gives factors whose partial products are all Nevanlinna,
    as on a bounded interval.  Proof: tau(w) = p - 1/w is Herglotz and
    increasing on each half-line, and maps a bounded interval I onto the
    arc from a to b, w = 0 to INF.  q o tau is Nevanlinna, and its
    critical table on I is the arc's sequence, with the same kinds and the
    same sign just right of the left end.  So the bounded pattern holds on
    I, and its factor (w - x)/(w - y), 1 at w = INF, composed with
    tau^-1(z) = -1/(z - p) is the factor here for tau(x) and tau(y), 1 at
    p, a point w = 0 dropping its linear factor.  Each partial product is
    the one on I composed with the Herglotz tau^-1, so it is Nevanlinna."""
    seq = _arc_entries(q, a, b)
    if any(isinstance(x, RealAlg) for x, _e in seq):
        raise ExactSplitUnavailable("irrational zero inside the interval")
    left_pos = q.to_ratfun().sign_right_of(a) > 0
    right_pos = left_pos != (len(seq) % 2 == 1)
    if right_pos and not left_pos:
        alpha0, seq = seq[0][0], seq[1:]
        ends = [(a, alpha0), (b, alpha0)]
    elif left_pos and not right_pos:
        beta_last, seq = seq[-1][0], seq[:-1]
        ends = [(beta_last, a), (beta_last, b)]
    elif left_pos:
        ends = [(b, a)]
    else:
        ends = [(a, b)]
    tilde = _pair_factors(seq, anchor)
    expect = (-1 if left_pos else 1, 1 if right_pos else -1)
    got = (_point_kind(r, a), _point_kind(r, b))
    if got != expect:
        got, expect = (tuple(map(_KIND_NAMES.get, k)) for k in (got, expect))
        raise NotInClass(f"endpoint kinds {got} do not match the interior "
                         f"pattern {expect}")
    return tilde + [_unit_factor(x, y, anchor) for x, y in ends] + tilde


def _unit_factor(x, y, anchor) -> RatFun:
    """(z - x)/(z - y) for points of the extended line, a point at infinity
    dropping its linear factor, scaled to 1 at the anchor."""
    zeros, poles = ([] if isinstance(t, ExtSymbol) else [t] for t in (x, y))
    gamma = 1 if anchor is INF else (math.prod(anchor - t for t in poles)
                                     / math.prod(anchor - t for t in zeros))
    return RatFun.from_points(zeros, poles, gamma)


def _pair_factors(seq, anchor) -> list[RatFun]:
    """(z - atom)/(z - zero), 1 at the anchor, for each consecutive two
    (point, order) entries of a run of q's critical table, its poles being
    its atoms."""
    return [_unit_factor(x, y, anchor) if e < 0
            else _unit_factor(y, x, anchor)
            for (x, e), (y, _e) in zip(seq[::2], seq[1::2])]


def _degenerate_chain(q: NevFun, r: RatFun) -> tuple[list[RatFun],
                                                     list[NevFun]]:
    """All-even multiplier: the plain-pair test makes q's atoms r's double
    zeros and q's zeros r's double poles, so q's critical table lists r's
    points.  The chain is the pairs, the first pair times gamma and the
    others; an odd count puts z - x at a last atom x, 1/(z - x) at a last
    zero, and gamma times it between.  Each factor removes or restores one
    adjacent pair, so every partial product is Nevanlinna."""
    seq = q.to_ratfun().critical_points()
    if any(isinstance(x, RealAlg) for x, _e in seq):
        raise ExactSplitUnavailable("irrational double pole")
    pairs, gamma = _pair_factors(seq, INF), r.gamma
    if len(seq) % 2 == 0:
        factors = pairs + [pairs[0] * gamma] + pairs[1:]
    else:
        x, e = seq[-1]
        lone = RatFun.from_points(*([x], []) if e < 0 else ([], [x]))
        factors = pairs + [lone, lone * gamma] + pairs
    try:
        return factors, _certify_chain(q, factors)
    except NotNevanlinna as exc:
        raise InvariantViolation(
            f"degenerate chain does not certify: {exc}") from exc


# -- local class closure --------------------------------------------------------------


def kac_closure(q: NevFun, r: RatFun) -> KacClosureReport:
    """Local integrability of q at every pole of r and of the product at
    every zero of r; the plain-pair precondition is required."""
    rq = plain_pair(q, r).product
    if rq is None:
        raise NotRationalAtoms("pole is not rational")
    at_poles = tuple((x, q.kac_membership(x)) for x, _m in r.poles())
    at_zeros = tuple((x, rq.kac_membership(x)) for x, _m in r.zeros())
    return KacClosureReport(at_poles, at_zeros)
