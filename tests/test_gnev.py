import itertools
import math
import random
from fractions import Fraction

import pytest

import nevkit.poly
import nevkit.ratfun
from nevkit.corpus import random_symmetric_ratfun
from nevkit.errors import (ConstantInput, ExactSplitUnavailable,
                           InvalidInput, NotNevanlinnaTau, NotRationalAtoms)
from nevkit.gnev import (GenNevFun, _type_mult, canonical_pair,
                         canonical_rational, compose_gen,
                         nonpositive_type_records)
from nevkit.nevfun import NevFun, is_nevanlinna, nevfun_from_ratfun
from nevkit.oracle import negative_squares
from nevkit.poly import Poly
from nevkit.qmath import INF, QC
from nevkit.ratfun import RatFun
from test_classify import _zero_type_mult

Z = NevFun.of(0, 1)
CUBE = GenNevFun(RatFun(Poly([0, 0, 1]), Poly.const(1)), Z)   # z^3


def test_evaluate_examples():
    assert GenNevFun.from_nevfun(Z).evaluate(QC.of(0, 1)) == QC.of(0, 1)
    assert CUBE.evaluate(2) == 8
    q0 = nevfun_from_ratfun(RatFun(Poly([-1, -1]), Poly([0, 1])))   # -(z+1)/z
    g = GenNevFun(RatFun(Poly([0, 0, 1]), Poly([1, 2, 1])), q0)
    assert g.evaluate(1) == Fraction(-1, 2)


def test_records_examples():
    recs = nonpositive_type_records(CUBE.to_ratfun())
    assert set(recs) == {(Fraction(0), 1), (INF, -1)}
    assert nonpositive_type_records(
        GenNevFun.from_nevfun(Z).to_ratfun()) == []
    q0 = nevfun_from_ratfun(RatFun(Poly([-1, -1]), Poly([0, 1])))
    g = GenNevFun(RatFun(Poly([0, 0, 1]), Poly([1, 2, 1])), q0)
    assert set(nonpositive_type_records(g.to_ratfun())) == \
        {(Fraction(0), 1), (Fraction(-1), -1)}


def test_type_mult_matches_the_unsigned_rule():
    for e in range(-6, 7):
        for s in (1, -1):
            # a pole carried the multiplicity of a zero of its order with
            # the opposite sign
            want = _zero_type_mult(e, s) if e >= 0 else \
                -_zero_type_mult(-e, -s)
            assert _type_mult(e, s) == want
    # at infinity the unsigned rule read a zero with -sign(gamma) and a
    # pole with sign(gamma)
    for f, want in ((RatFun.from_points([0] * 3, []), [(INF, -1)]),
                    (RatFun.from_points([0] * 3, [], -1), [(INF, -2)]),
                    (RatFun.from_points([], [0]), [(INF, 1)]),
                    (RatFun.from_points([], [0], -1), [])):
        e, lead = f.ord_at_inf(), 1 if f.gamma > 0 else -1
        m = _zero_type_mult(abs(e), -lead if e > 0 else lead)
        assert want == ([(INF, m if e > 0 else -m)] if m else [])
        assert [(x, m) for x, m in nonpositive_type_records(f)
                if x is INF] == want


def test_kappa_and_normalization():
    assert CUBE.kappa == 1
    # positive constants fold into the representation part
    g = GenNevFun(RatFun(Poly([0, 0, 3]), Poly.const(1)), Z)
    assert g.phi.gamma == 1
    assert g.q0.beta == 3
    with pytest.raises(ValueError):
        GenNevFun(RatFun(Poly([0, 1]), Poly.const(1)), Z)   # odd-order zero


def test_canonical_rational_examples():
    s = RatFun.from_points([1], [2])
    psi, s0, recs = canonical_rational(s)
    assert psi == RatFun.from_points([1, 1], [2, 2])
    assert s0 == RatFun.from_points([2], [1])
    assert set(recs) == {(Fraction(1), 1), (Fraction(2), -1)}

    s2 = RatFun.from_points([2], [1])
    psi2, s02, recs2 = canonical_rational(s2)
    assert psi2.is_constant and s02 is s2      # no division by 1
    assert recs2 == []

    r3 = RatFun.from_points([2, 2, 0], [1, 1, 3])
    psi3, s03, recs3 = canonical_rational(r3)
    assert s03 == RatFun.from_points([3], [0])
    assert psi3 * s03 == r3
    assert is_nevanlinna(s03)
    assert dict(recs3) == {Fraction(2): 1, Fraction(1): -1,
                           Fraction(0): 1, Fraction(3): -1}


def test_canonical_rational_constant_input():
    with pytest.raises(ConstantInput):
        canonical_rational(RatFun.const(3))


def test_canonical_pair_of_the_zero_function_is_invalid_input():
    with pytest.raises(InvalidInput,
                       match="^zero function has no canonical pair$"):
        canonical_pair(RatFun.const(0))


def test_canonical_rational_interlacing_residual(rng=None):
    rng = random.Random(7)
    for _ in range(25):
        r = random_symmetric_ratfun(rng, max_degree=8)
        psi, s0, _ = canonical_rational(r)
        assert psi * s0 == r
        assert is_nevanlinna(s0)
        pts = sorted([(x, "z") for x, _m in s0.real_zeros]
                     + [(x, "p") for x, _m in s0.real_poles])
        for (x1, k1), (x2, k2) in zip(pts, pts[1:]):
            assert k1 != k2, "emitted representation part must interlace"


def test_canonical_pair_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        r = random_symmetric_ratfun(rng, max_degree=8)
        g = canonical_pair(r)
        again = canonical_pair(g.to_ratfun())
        assert again.phi == g.phi and again.q0 == g.q0


def test_balance_identity():
    rng = random.Random(13)
    for _ in range(25):
        r = random_symmetric_ratfun(rng, max_degree=8)
        g = canonical_pair(r)
        assert g.balance_check()
    # the zero function has no zeros or poles to balance
    assert GenNevFun.from_nevfun(NevFun.of(0, 0)).balance_check()


def test_kappa_matches_oracle_small():
    rng = random.Random(17)
    for _ in range(15):
        r = random_symmetric_ratfun(rng, max_degree=6)
        g = canonical_pair(r)
        assert negative_squares(r, seed=3) == g.kappa


def test_compose_examples():
    tau = RatFun(Poly([-1]), Poly([0, 1]))     # -1/lambda
    g = compose_gen(GenNevFun.from_nevfun(Z), tau)
    assert g.q0 == NevFun.of(0, 0, [(0, 1)])

    shift = RatFun(Poly([1, 1]), Poly.const(1))
    g2 = compose_gen(CUBE, shift)
    assert g2.to_ratfun() == RatFun(Poly([1, 3, 3, 1]), Poly.const(1))
    assert set(nonpositive_type_records(g2.to_ratfun())) == \
        {(Fraction(-1), 1), (INF, -1)}
    assert g2.kappa == CUBE.kappa


def test_compose_kappa_preserved_random():
    rng = random.Random(23)
    tau = RatFun(Poly([1, 2]), Poly([3, 1]))   # Herglotz: det = 2*3-1 > 0
    assert is_nevanlinna(tau)
    for _ in range(10):
        r = random_symmetric_ratfun(rng, max_degree=5)
        g = canonical_pair(r)
        assert compose_gen(g, tau).kappa == g.kappa


def test_compose_rejects_non_herglotz():
    herglotz = "^composition parameter fails the Herglotz check$"
    bad = RatFun(Poly([2, 1]), Poly([1, 1]))   # det = 1-2 < 0
    with pytest.raises(NotNevanlinnaTau, match=herglotz):
        compose_gen(CUBE, bad)
    with pytest.raises(NotNevanlinnaTau, match=herglotz):
        compose_gen(CUBE, RatFun(Poly([3, -2]), Poly.const(1)))   # 3 - 2z
    with pytest.raises(NotNevanlinnaTau,
                       match="^composition parameter must have degree one$"):
        compose_gen(CUBE, RatFun.from_points([1, 2], [0]))


P = lambda *c: Poly(list(c))   # noqa: E731  ascending coefficients
SQRT2_SQ = P(-2, 0, 1)          # z^2 - 2


def test_canonical_pair_even_irrational_roots():
    f = RatFun(SQRT2_SQ ** 2 * P(0, 1), Poly.const(1))      # (z^2-2)^2 z
    g = canonical_pair(f)
    assert g.phi == RatFun(SQRT2_SQ ** 2, Poly.const(1))
    assert g.q0 == Z
    assert g.kappa == 2


def test_canonical_rational_odd_irrational_without_type():
    # (z^2-2)(z-1): the simple zeros at -+sqrt(2) carry no type
    # multiplicity, so only the zero at 1 enters the factor
    f = RatFun(SQRT2_SQ * P(-1, 1), Poly.const(1))
    psi, s0, recs = canonical_rational(f)
    assert psi == RatFun(P(-1, 1) ** 2, Poly.const(1))
    assert s0 == RatFun(SQRT2_SQ, P(-1, 1))
    assert recs == [(Fraction(1), 1)]
    assert canonical_pair(f).phi == psi


def test_canonical_split_refusals():
    # the mixed cube carries an irrational real root and a conjugate pair
    # in one odd-multiplicity factor
    mixed = RatFun(P(-2, 0, 0, 1) * P(-1, 1), Poly.const(1))
    with pytest.raises(ExactSplitUnavailable):
        canonical_rational(mixed)
    with pytest.raises(ExactSplitUnavailable):
        canonical_pair(mixed)
    # a simple irrational pole that carries type multiplicity: gamma > 0
    # and no odd-order point above sqrt(2)
    odd = RatFun(Poly.const(1), SQRT2_SQ)
    with pytest.raises(ExactSplitUnavailable):
        canonical_rational(odd)
    with pytest.raises(ExactSplitUnavailable):
        canonical_pair(odd)


def _swinnerton_dyer(n: int) -> RatFun:
    """SD_n (z^2 + 1) over one simple pole between each pair of neighbouring
    roots of SD_n, the Swinnerton-Dyer polynomial of the first n primes.
    SD_n is irreducible with only real roots, and it splits into linear and
    quadratic factors mod every prime, so its modular factors recombine
    into irreducible ones only after many trials."""
    primes = [2, 3, 5, 7, 11][:n]
    sd = z = P(0, 1)
    for p in primes:
        # sd(z + sqrt(p)) = u + sqrt(p) v, and sd <- u^2 - p v^2
        u = v = Poly([])
        for c in reversed(sd.c):
            u, v = u * z + v * p + Poly.const(c), u + v * z
        sd = u * u - v * v * p
    roots = sorted(sum(s * math.sqrt(p) for s, p in zip(signs, primes))
                   for signs in itertools.product((1, -1), repeat=n))
    poles = [Fraction((a + b) / 2).limit_denominator(10**6)
             for a, b in zip(roots, roots[1:])]
    return RatFun(sd * P(1, 0, 1), Poly.from_roots(poles))


@pytest.mark.parametrize("n, trials", [(4, 2), (5, 17)])
def test_canonical_split_stops_once_the_rest_is_pure(monkeypatch, n,
                                                     trials):
    # the pair block is SD_n (z^2 + 1): once z^2 + 1 is split off, the
    # cofactor SD_n has only real roots and is not factored further
    f = _swinnerton_dyer(n)
    subsets = []
    combinations = nevkit.poly.combinations

    def counted(*args):
        for sub in combinations(*args):
            subsets.append(sub)
            yield sub
    monkeypatch.setattr(nevkit.poly, "combinations", counted)
    psi, s0, _recs = canonical_rational(f)
    assert len(subsets) == trials
    assert psi.num.divmod(P(1, 0, 1))[1].is_zero and psi * s0 == f
    if n == 4:
        # factoring into irreducibles gives the same split, in 164 trials
        factor = nevkit.poly._factor_squarefree
        monkeypatch.setattr(nevkit.poly, "_factor_squarefree",
                            lambda a, _done: factor(a))
        assert canonical_rational(f)[:2] == (psi, s0)
        assert len(subsets) == trials + 164


@pytest.mark.parametrize("n, degrees", [(4, [18, 16, 2]), (5, [34, 32, 2])])
def test_nonreal_split_counts_each_piece_once(monkeypatch, n, degrees):
    # SD_n (z^2 + 1) is counted by the stop test, then its cofactor SD_n,
    # which the stop test passes, and the split-off z^2 + 1 by the loop:
    # the cofactor is not counted again
    analysed, analyse = [], nevkit.ratfun.real_root_structure

    def recorded(p):
        if p.degree > 0:
            analysed.append(p.degree)
        return analyse(p)
    monkeypatch.setattr(nevkit.ratfun, "real_root_structure", recorded)
    assert nevkit.poly.nonreal_pieces(_swinnerton_dyer(n).num) == \
        [P(1, 0, 1)]
    assert analysed == degrees


def test_recombination_past_its_cap_is_refused(monkeypatch):
    # the split of SD_5 (z^2 + 1) takes 17 trials, the full factorization
    # of SD_4 164: both stay below the cap
    assert nevkit.poly.RECOMBINATION_TRIALS > 166
    monkeypatch.setattr(nevkit.poly, "RECOMBINATION_TRIALS", 16)
    with pytest.raises(ExactSplitUnavailable,
                       match="more than 16 recombination trials"):
        canonical_rational(_swinnerton_dyer(5))


def _irrational_corpus(rng, n):
    """Random symmetric functions times quadratics with irrational real
    roots or conjugate pairs, in both the numerator and the denominator."""
    quads = [P(-2, 0, 1), P(-3, 0, 1), P(-1, -1, 1), P(1, 0, 1),
             P(-5, 2, 1)]
    out = []
    for _ in range(n):
        f = random_symmetric_ratfun(rng, max_degree=5)
        for _k in range(rng.randint(0, 2)):
            q = RatFun(rng.choice(quads) ** rng.choice([1, 1, 2]),
                       Poly.const(1))
            f = f * q if rng.random() < 0.5 else f / q
        if not f.is_constant:
            out.append(f)
    return out


def test_canonical_rational_and_pair_agree():
    rng = random.Random(29)
    paired = 0
    for f in _irrational_corpus(rng, 60):
        try:
            psi, s0, recs = canonical_rational(f)
        except ExactSplitUnavailable:
            with pytest.raises(ExactSplitUnavailable):
                canonical_pair(f)
            continue
        assert psi * s0 == f and is_nevanlinna(s0)
        assert recs == [(x, m) for x, m in nonpositive_type_records(f)
                        if x is not INF]
        try:
            g = canonical_pair(f)
        except NotRationalAtoms:
            # the same split, but representation data needs rational poles
            assert any(not isinstance(x, Fraction) for x, _m in s0.real_poles)
            continue
        paired += 1
        assert psi == g.phi and s0 == g.q0.to_ratfun()
        # the finite records and the conjugate pairs account for kappa, a
        # pair of order m taking 2m of the degree the real points leave
        zeros = sum(m for _x, m in recs if m > 0) + \
            (f.num.degree - sum(m for _x, m in f.real_zeros)) // 2
        poles = sum(-m for _x, m in recs if m < 0) + \
            (f.den.degree - sum(m for _x, m in f.real_poles)) // 2
        assert g.kappa == max(zeros, poles)
    assert paired >= 30
