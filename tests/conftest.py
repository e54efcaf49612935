import os
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from nevkit.nevfun import NevFun
from nevkit.poly import Poly
from nevkit.qmath import QC
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
