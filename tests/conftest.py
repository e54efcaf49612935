import os
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from nevkit.nevfun import NevFun
from nevkit.poly import (IntPoly, Poly, RealAlg, _changes_sign, _neg_prem,
                         _primitive, _sign_at, _variations, gcd)
from nevkit.qmath import INF, NEG_INF, QC, rat
from nevkit.ratfun import RatFun


def child_env() -> dict:
    """The environment with this checkout's nevkit first on PYTHONPATH,
    for tests that run nevkit in a fresh process."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


@pytest.fixture
def rng():
    return random.Random(20240817)


def rationals(max_num=20, max_den=6):
    return st.builds(Fraction, st.integers(-max_num, max_num),
                     st.integers(1, max_den))


def small_polys(max_degree=4, nonzero=False):
    base = st.lists(rationals(8, 3), min_size=1, max_size=max_degree + 1) \
        .map(Poly)
    if nonzero:
        return base.filter(lambda p: not p.is_zero)
    return base


def ratfuns(max_degree=4):
    return st.builds(
        lambda n, d: RatFun(n, d),
        small_polys(max_degree, nonzero=True),
        small_polys(max_degree, nonzero=True),
    )


def nevfuns(max_atoms=4):
    def build(alpha, beta_on, beta, atoms):
        positions = sorted({t for t, _ in atoms})
        uniq = []
        seen = set()
        for t, w in atoms:
            if t not in seen:
                seen.add(t)
                uniq.append((t, w))
        q = NevFun.of(alpha, beta if beta_on else 0, uniq)
        return q
    return st.builds(
        build,
        rationals(6, 3),
        st.booleans(),
        st.fractions(min_value=0, max_value=4).map(Fraction),
        st.lists(st.tuples(rationals(8, 2),
                           st.builds(Fraction, st.integers(1, 9),
                                     st.integers(1, 3))),
                 max_size=max_atoms),
    )


def upper_half_points():
    return st.builds(QC.of, rationals(10, 4),
                     st.builds(Fraction, st.integers(1, 10),
                               st.integers(1, 4)))


def sturm_chain(p: Poly) -> tuple[IntPoly, ...]:
    """Sturm chain of p as primitive integer polynomials: p, p' and the
    negated remainders, each a positive multiple of its classical term, so
    sign variations are those of the classical chain.  The reference for
    the root counts of the package, which read root tables instead."""
    chain = [_primitive(p.n)]
    nxt = _primitive([i * c for i, c in enumerate(chain[0])][1:])
    while nxt:
        chain.append(nxt)
        nxt = _neg_prem(chain[-2], chain[-1])
    return tuple(chain)


def _variations_at(chain, x) -> int:
    """Sign variations of the chain at the rational x, NEG_INF or INF."""
    if x is NEG_INF or x is INF:
        at_inf = -1 if x is NEG_INF else 1
        return _variations((1 if a[-1] > 0 else -1)
                           * (at_inf if len(a) % 2 == 0 else 1)
                           for a in chain)
    x = rat(x)
    return _variations(_sign_at(a, x.numerator, x.denominator)
                       for a in chain)


def sturm_count(p: Poly, lo=NEG_INF, hi=INF) -> int:
    """Number of distinct real roots of p in (lo, hi] by its Sturm chain,
    when p is squarefree or neither end is a multiple root of p."""
    if p.degree < 1:
        return 0
    chain = sturm_chain(p)
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def sturm_sign_of(x: RealAlg, q: Poly) -> int:
    """The sign of q at x by Sturm counts, as RealAlg.sign_of took it
    before it read q's table: the reference for the sign rule.  The box of
    x is bisected until q has no root in its closure, or until the gcd of
    x's polynomial and q changes sign over it, a root shared with q."""
    if q.is_zero:
        return 0
    chain = sturm_chain(q)
    g = None    # needed only once q has a root in the box
    while True:
        lo, hi = x.box
        v = _sign_at(chain[0], lo.numerator, lo.denominator)
        if v and _variations_at(chain, lo) == _variations_at(chain, hi):
            return v
        if g is None:
            g = gcd(x.p, q)
            if _changes_sign(g, lo, hi):
                return 0
        x._step()
