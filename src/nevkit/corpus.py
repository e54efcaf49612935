"""Seeded generators for the regression corpus.

Everything is driven by ``random.Random`` so corpora are reproducible; the
plain-pair generator works constructively, extending a function by exactly
verified degree-one factors so that the resulting pairs are members by
construction rather than by rejection sampling.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import (ExactSplitUnavailable, InvariantViolation,
                     NotNevanlinna)
from .gnev import GenNevFun
from .nevfun import NevFun, _chain_step
from .poly import Poly
from .ratfun import RatFun

GRID = sorted({Fraction(n, d) for n in range(-8, 9) for d in (1, 2, 3)})


def _distinct_points(rng: random.Random, k: int, pool=None) -> list[Fraction]:
    pool = list(pool or GRID)
    rng.shuffle(pool)
    return sorted(pool[:k])


def random_symmetric_ratfun(rng: random.Random, max_degree: int = 8) -> RatFun:
    """Symmetric rational function with rational roots: real points with
    multiplicities, optional conjugate pairs, either leading sign."""
    while True:
        num = Poly.const(Fraction(rng.choice([1, -1])) * rng.choice([1, 2, 3]))
        den = Poly.const(1)
        deg_num = deg_den = 0
        pts = _distinct_points(rng, rng.randint(1, 5))
        for p in pts:
            m = rng.choice([1, 1, 1, 2, 2, 3])
            if rng.random() < 0.5 and deg_num + m <= max_degree:
                num = num * Poly([-p, 1]) ** m
                deg_num += m
            elif deg_den + m <= max_degree:
                den = den * Poly([-p, 1]) ** m
                deg_den += m
        if rng.random() < 0.3 and deg_num + 2 <= max_degree:
            a, b = rng.randint(-3, 3), rng.randint(1, 4)
            num = num * Poly([a * a + b * b, -2 * a, 1])   # (z-a)^2 + b^2
            deg_num += 2
        if rng.random() < 0.2 and deg_den + 2 <= max_degree:
            a, b = rng.randint(-3, 3), rng.randint(1, 4)
            den = den * Poly([a * a + b * b, -2 * a, 1])
            deg_den += 2
        r = RatFun(num, den)
        if not r.is_constant and r.degree <= max_degree:
            return r


def random_nevfun(rng: random.Random, max_atoms: int = 6) -> NevFun:
    k = rng.randint(0, max_atoms)
    pts = _distinct_points(rng, k)
    atoms = [(t, Fraction(rng.randint(1, 12), rng.randint(1, 4)))
             for t in pts]
    beta = Fraction(0)
    if rng.random() < 0.3:
        beta = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    alpha = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if k == 0 and beta == 0 and alpha == 0:
        alpha = Fraction(1)
    return NevFun.of(alpha, beta, atoms)


def random_gennev(rng: random.Random, max_atoms: int = 6) -> GenNevFun:
    q0 = random_nevfun(rng, max_atoms)
    phi = RatFun.const(1)
    style = rng.random()
    if style < 0.4:
        p = rng.choice(GRID)
        phi = phi * RatFun(Poly([-p, 1]) ** 2, Poly.const(1))
    if 0.2 < style < 0.5:
        p = rng.choice(GRID)
        phi = phi / RatFun(Poly([-p, 1]) ** 2, Poly.const(1))
    if style >= 0.8:
        a, b = rng.randint(-2, 2), rng.randint(1, 3)
        phi = phi * RatFun(Poly([a * a + b * b, -2 * a, 1]), Poly.const(1))
    return GenNevFun(phi, q0)


def _candidate_factors(rng: random.Random, q: NevFun) -> list[RatFun]:
    """Degree-one factor candidates anchored to the structure of q."""
    pts = list(q.sigma.positions)
    pool = sorted(set(GRID) | set(pts))
    cands = []
    for _ in range(40):
        kind = rng.randint(0, 3)
        u = rng.choice(pool)
        v = rng.choice(pool)
        if u == v:
            continue
        if kind == 0:
            cands.append(RatFun.from_points([u], [v]))
        elif kind == 1:
            cands.append(RatFun.from_points([u], [v],
                                            Fraction(rng.choice([1, 2]))))
        elif kind == 2:
            cands.append(RatFun.from_points([u], [],
                                            Fraction(rng.choice([1, -1]))))
        else:
            cands.append(RatFun.from_points([], [u],
                                            Fraction(rng.choice([1, -1]))))
    return cands


def random_plain_pair(rng: random.Random, max_factors: int = 4,
                      simple_only: bool = False):
    """A pair (q, r) with both q and r*q Nevanlinna, built by closed-form
    chain steps, one degree-one factor at a time."""
    for _attempt in range(200):
        q = random_nevfun(rng, max_atoms=4)
        r = RatFun.const(1)
        cur = q
        n_target = rng.randint(1, max_factors)
        factors = 0
        for cand in _candidate_factors(rng, q):
            if factors >= n_target:
                break
            try:
                cur = _chain_step(cand, cur)
            except NotNevanlinna:
                continue
            r = r * cand
            factors += 1
        if factors == 0 or r.is_constant:
            continue
        if simple_only and (any(m != 1 for _x, m in
                                r.real_zeros + r.real_poles)
                            or abs(r.ord_at_inf()) > 1):
            continue
        return q, r
    raise InvariantViolation("plain-pair generation failed")


def structured_plain_pair(rng: random.Random):
    """A pair with interior double-point structure: q = C (z - x)/(z - t)
    has its atom at t and its zero at x, and r = phi (z - b)/(z - a), with
    phi the double zero at t over the double pole at x, for rational
    a < t < x < b.  q's residue C (t - x) at t is negative, so C > 0, and
    r q = C (z - t)(z - b)/((z - a)(z - x)) has its points interlacing
    upward from the pole a: a Nevanlinna function, so every draw is a plain
    pair.  (The other orientation, (z - a)/(z - b), puts a positive residue
    at b and never is.)"""
    a, t, x, b = _distinct_points(rng, 4, pool=[Fraction(n) for n in range(-6, 7)])
    w = Fraction(rng.randint(1, 4))
    # the additive constant that makes q(x) = 0 exactly
    base = NevFun.of(0, 0, [(t, w)])
    q = NevFun.of(-base.evaluate(x), 0, [(t, w)])
    phi = RatFun(Poly([-t, 1]) ** 2, Poly([-x, 1]) ** 2)
    return q, phi * RatFun.from_points([b], [a])


def random_interlacing_simple(rng: random.Random, max_degree: int = 5) -> RatFun:
    """Simple symmetric rational function with interlacing real points,
    either leading sign and either parity of the zero/pole counts."""
    n = rng.randint(2, 2 * max_degree - 1)
    pts = _distinct_points(rng, n, pool=[Fraction(k, 2) for k in range(-16, 17)])
    start_with_zero = rng.random() < 0.5
    zeros, poles = [], []
    for i, p in enumerate(pts):
        if (i % 2 == 0) == start_with_zero:
            zeros.append(p)
        else:
            poles.append(p)
    gamma = Fraction(rng.choice([1, -1]) * rng.randint(1, 3),
                     rng.randint(1, 2))
    return RatFun.from_points(zeros, poles, gamma)


def random_member_pair(rng: random.Random, max_atoms: int = 6,
                       max_degree: int = 4):
    """A generalized function and a multiplier whose product stays in the
    generalized class; negative regions of the multiplier are arranged to
    avoid the irrational zeros of the function."""
    for _attempt in range(400):
        g = random_gennev(rng, max_atoms)
        r = random_symmetric_ratfun(rng, max_degree)
        from .classify import product_factorization
        try:
            product_factorization(g, r)
        except ExactSplitUnavailable:
            continue
        return g, r
    raise InvariantViolation("member pair generation failed")
