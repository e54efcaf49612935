from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (nevfuns, rationals, small_polys, sturm_count,
                      sturm_sign_of, upper_half_points)
import nevkit.nevfun
from nevkit.errors import (GapViolated, InvalidInput, InvariantViolation,
                           NotNevanlinna, PoleHit)
from nevkit.gnev import GenNevFun
from nevkit.nevfun import (AtomicMeasure, NevFun, is_nevanlinna,
                           nevfun_from_ratfun)
from nevkit.poly import (Poly, RealAlg, compose_fractional, gcd, point_cmp,
                         rational_between, real_root_structure)
from nevkit.qmath import INF, LIM_INF, NEG_INF, QC, fmt_rat
from nevkit.ratfun import RatFun

MINUS_INV = NevFun.of(0, 0, [(0, 1)])            # -1/z
LINE = NevFun.of(0, 1)                            # z
WORKED = NevFun.of(Fraction(-3, 5), 0, [(2, 1)])  # (z-1)/(2-z)


def test_evaluate_examples():
    assert MINUS_INV.evaluate(QC.of(0, 1)) == QC.of(0, 1)   # -1/i = i
    assert LINE.evaluate(QC.of(2, 3)) == QC.of(2, 3)
    assert WORKED.evaluate(0) == Fraction(-1, 2)
    with pytest.raises(PoleHit):
        WORKED.evaluate(2)


def test_float_scalar_on_a_pole_raises_polehit():
    """A complex scalar on a real pole raises PoleHit, as an exact point
    does, on a RatFun, a NevFun and a GenNevFun; an array there gives inf."""
    pole = RatFun.from_points([], [2])
    gen = GenNevFun(RatFun(Poly([1, -2, 1]), Poly.const(1)), MINUS_INV)
    for f, z in [(pole, 2 + 0j), (MINUS_INV, 0j), (gen, 0j)]:
        with pytest.raises(PoleHit):
            f(z)
    with np.errstate(all="ignore"):
        for f, z in [(pole, 2.0), (MINUS_INV, 0.0)]:
            assert np.isinf(f(np.array([z + 0j]))[0])


def test_to_ratfun_closed_form():
    assert WORKED.to_ratfun() == RatFun(Poly([1, -1]), Poly([-2, 1]))


def test_limit_examples():
    assert MINUS_INV.limit_at(0, "residue").value == 1
    assert LINE.limit_at(INF, "residue").value == 1
    assert WORKED.limit_at(NEG_INF, "value").value == -1
    assert repr(WORKED.limit_at(NEG_INF, "value")) == "Limit(-1)"
    assert repr(MINUS_INV.limit_at(0, "value")) == "Limit(inf)"


def test_limit_slope_forms():
    q = NevFun.of(0, Fraction(1, 2), [(1, 2), (-1, 3)])
    # at a point where q vanishes the slope limit is the derivative formula
    c = Fraction(0)
    val = q.evaluate(c)
    q0 = NevFun.of(q.alpha - val, q.beta, list(q.sigma))
    lim = q0.limit_at(c, "slope")
    assert lim.value == Fraction(1, 2) + 2 + 3
    # divergent case
    assert q.limit_at(Fraction(1, 3), "slope").kind == "inf"
    # slope at infinity recovers the negated total mass once the value is 0
    flat = NevFun.of(0, 0, [(0, 2)])
    assert flat.limit_at(INF, "slope").value == -2


def test_value_sides_at_atom():
    assert MINUS_INV.limit_at(0, "value", side="-").kind == "+inf"
    assert MINUS_INV.limit_at(0, "value", side="+").kind == "-inf"
    assert LINE.limit_at(INF, "value", side="-").kind == "-inf"
    assert LINE.limit_at(INF, "value", side="+").kind == "+inf"


def test_limits_diverging_without_a_sign():
    """With no side, the value at an atom and at infinity with beta > 0
    diverges in modulus only; so does the slope at infinity unless beta = 0
    and the value there is 0."""
    assert MINUS_INV.limit_at(0, "value") is LIM_INF
    assert LINE.limit_at(INF, "value") is LIM_INF
    assert LINE.limit_at(INF, "slope") is LIM_INF
    assert WORKED.limit_at(INF, "slope") is LIM_INF


def test_kac_examples():
    assert MINUS_INV.kac_membership(INF) is True
    assert MINUS_INV.kac_membership(0) is False
    assert LINE.kac_membership(INF) is False


def test_gap_characterize_examples():
    rep = WORKED.gap_characterize(-1, 2, "bounded_gap")
    assert rep.gap_holds and not rep.condition_holds
    assert rep.eta.kind == "+inf"

    rep2 = MINUS_INV.gap_characterize(0, shape="left_ray")
    assert rep2.condition_holds and rep2.eta.value == 0
    # off the atoms the value from below at the endpoint is finite, and the
    # secondary representative is (q - eta_secondary)/(z - 1)
    rep4 = WORKED.gap_characterize(1, shape="left_ray")
    assert rep4.eta_secondary.value == 0
    assert rep4.q_tilde_secondary == \
        NevFun.from_partial_fractions(0, 0, [(2, 1)])          # 1/(2 - z)
    assert WORKED.spectral_gaps() == [(NEG_INF, 2), (2, INF)]

    q3 = NevFun.of(Fraction(1, 2), 0, [(1, 1)])
    rep3 = q3.gap_characterize(2, 3, "bounded_gap")
    assert rep3.condition_holds
    assert rep3.eta.value == q3.evaluate(3)
    # measure transform w*(t-c)/(t-d) at t=1: 1*(1-2)/(1-3) = 1/2
    assert rep3.transformed_measure.atoms == ((Fraction(1), Fraction(1, 2)),)
    assert rep3.q_tilde.sigma.atoms == ((Fraction(1), Fraction(1, 2)),)


def test_gap_violated():
    with pytest.raises(GapViolated) as exc:
        WORKED.gap_characterize(0, 3, "bounded_gap")
    assert exc.value.atoms == (Fraction(2),)


@pytest.mark.parametrize("q, args, message, atoms", [
    (WORKED, (3, None, "left_ray"), "atoms below the ray endpoint", (2,)),
    (WORKED, (-1, 1, "complement_gap"),
     "atoms outside the compact interval", (2,)),
    (NevFun.of(0, 1, [(0, 1)]), (-1, 1, "complement_gap"),
     "mass at infinity", ()),
])
def test_gap_violated_on_the_ray_and_the_complement(q, args, message, atoms):
    with pytest.raises(GapViolated, match=f"^{message}$") as exc:
        q.gap_characterize(*args)
    assert exc.value.atoms == atoms


def test_gap_identity_bounded():
    # the representative reproduces the function: Q = eta + (z-d)/(z-c) Qt
    q = NevFun.of(Fraction(1, 2), 0, [(1, 1), (5, 2)])
    c, d = Fraction(2), Fraction(4)
    rep = q.gap_characterize(c, d, "bounded_gap")
    assert rep.condition_holds
    lhs = q.to_ratfun()
    rhs = RatFun.const(rep.eta.value) + \
        RatFun(Poly([-d, 1]), Poly([-c, 1])) * rep.q_tilde.to_ratfun()
    assert lhs == rhs


def test_gap_identity_complement():
    q = NevFun.of(0, 0, [(1, 1), (2, 3)])
    rep = q.gap_characterize(0, 3, "complement_gap")
    assert rep.condition_holds
    lhs = q.to_ratfun()
    rhs = RatFun.const(rep.eta.value) + \
        RatFun(Poly([3, -1]), Poly([0, 1])) * rep.q_tilde.to_ratfun()
    assert lhs == rhs


def _extracted_representatives(q: NevFun, c, d, shape: str):
    """(q_tilde, transformed measure, q_tilde_secondary) as extractions of
    RatFun expressions, with the measures by their formulas."""
    f = q.to_ratfun()
    if shape == "left_ray":
        bare = f - RatFun(Poly([q.c0, q.beta]), Poly.const(1))
        eta2 = q.limit_at(c, "value", side="-")
        second = None
        if eta2.is_finite:
            second = nevfun_from_ratfun((f - eta2.value)
                                        / RatFun(Poly([-c, 1]), Poly.const(1)))
        return (nevfun_from_ratfun(bare * RatFun(Poly([-c, 1]),
                                                 Poly.const(1))),
                None, second)
    eta = q.limit_at(d, "value", side="-" if shape == "bounded_gap" else "+")
    if not eta.is_finite:
        return None, None, None
    if shape == "bounded_gap":
        s = RatFun.from_points([c], [d])
        measure = [(t, w * (t - c) / (t - d)) for t, w in q.sigma
                   if not (c < t <= d)]
    else:
        s = RatFun(Poly([-c, 1]), Poly([d, -1]))
        measure = [(t, w * (t - c) / (d - t)) for t, w in q.sigma
                   if c <= t < d]
    return (nevfun_from_ratfun((f - eta.value) * s),
            AtomicMeasure.of(measure), None)


FRACTIONS_01 = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                Fraction(1)]


@settings(max_examples=150, deadline=None)
@given(nevfuns(4), st.sampled_from(["bounded_gap", "complement_gap",
                                    "left_ray"]),
       st.integers(0, 4), st.sampled_from(FRACTIONS_01),
       st.sampled_from(FRACTIONS_01))
def test_gap_representatives_match_extraction(q, shape, i, x, y):
    pos = q.sigma.positions
    lo, hi = (min(pos), max(pos)) if pos else (Fraction(-1), Fraction(1))
    if shape == "bounded_gap":         # inside the closure of one gap
        ends = [lo - 3] + pos + [hi + 3]
        i = min(i, len(ends) - 2)
        a, b = ends[i], ends[i + 1]
        x, y = sorted((x, y))
        assume(x < y)
        c, d = a + (b - a) * x, a + (b - a) * y
    else:                              # around all atoms, or below them
        c, d = lo - x, hi + y
        if shape == "complement_gap":
            assume(c < d)
            q = NevFun(q.alpha, Fraction(0), q.sigma)
    rep = q.gap_characterize(c, d, shape)
    want = _extracted_representatives(q, c, d, shape)
    assert (rep.q_tilde, rep.transformed_measure,
            rep.q_tilde_secondary) == want


def test_corollary_products_examples():
    res = MINUS_INV.corollary_products(0)
    assert res.results == (True, False)

    res2 = WORKED.corollary_products(1, 2)
    assert res2.results[1] is True     # (z-d)/(z-c) form

    res3 = LINE.corollary_products(0)
    assert res3.results == (False, True)


@settings(max_examples=40, deadline=None)
@given(nevfuns(3))
def test_corollary_products_match_direct_check(q):
    assume(not (q.is_constant and q.alpha == 0))
    pos = q.sigma.positions
    c = (min(pos) - 2) if pos else Fraction(-1)
    d = (max(pos) + 2) if pos else Fraction(1)
    res = q.corollary_products(c, d)
    q_rat = q.to_ratfun()
    f1 = RatFun(Poly([-c, 1]), Poly([-d, 1])) * q_rat
    f2 = RatFun(Poly([-d, 1]), Poly([-c, 1])) * q_rat
    f3 = RatFun(Poly([-c, 1]), Poly([d, -1])) * q_rat
    f4 = RatFun(Poly([-d, 1]), Poly([c, -1])) * q_rat
    assert res.results == tuple(is_nevanlinna(f) for f in (f1, f2, f3, f4))
    ray = q.corollary_products(c)
    g1 = RatFun(Poly([-c, 1]), Poly.const(1)) * q_rat
    g2 = RatFun(Poly.const(1), Poly([-c, 1])) * q_rat
    assert ray.results == (is_nevanlinna(g1), is_nevanlinna(g2))


@settings(max_examples=50, deadline=None)
@given(nevfuns(4), upper_half_points())
def test_symmetry_and_herglotz(q, z):
    v = q.evaluate(z)
    assert q.evaluate(z.conj()) == v.conj()
    assert v.im >= 0
    if not q.is_constant:
        assert v.im > 0


@settings(max_examples=30, deadline=None)
@given(nevfuns(4))
def test_monotone_on_gaps(q):
    assume(not q.is_constant)
    for lo, hi in q.spectral_gaps():
        a = (lo + 1) if lo is not NEG_INF else \
            ((hi - 3) if hi is not INF else Fraction(0))
        samples = [a + Fraction(k, 37) for k in range(6)]
        if hi is not INF:
            samples = [x for x in samples if x < hi]
        if lo is not NEG_INF:
            samples = [x for x in samples if x > lo]
        vals = [q.evaluate(x) for x in samples]
        assert all(u < v for u, v in zip(vals, vals[1:]))


@settings(max_examples=40, deadline=None)
@given(nevfuns(4))
def test_residue_equals_weight(q):
    for t, w in q.sigma:
        assert q.limit_at(t, "residue").value == w


@settings(max_examples=40, deadline=None)
@given(nevfuns(4))
def test_roundtrip_through_ratfun(q):
    assert nevfun_from_ratfun(q.to_ratfun()) == q


@settings(max_examples=40, deadline=None)
@given(nevfuns(4))
def test_partial_fraction_constant_roundtrip(q):
    """c0 + beta z is the polynomial part of q, and c0 + beta z +
    sum w/(t - z) with c0 = q.c0 is q again."""
    f = q.to_ratfun()
    lin = f.num.divmod(f.den)[0]
    assert lin == Poly([q.c0, q.beta])
    assert NevFun.from_partial_fractions(q.c0, q.beta, q.sigma) == q


def test_is_nevanlinna_negatives():
    assert not is_nevanlinna(RatFun(Poly([0, -1]), Poly.const(1)))      # -z
    assert not is_nevanlinna(RatFun(Poly([0, 0, 1]), Poly.const(1)))    # z^2
    assert not is_nevanlinna(RatFun(Poly.const(1), Poly([0, 1])))       # 1/z
    assert not is_nevanlinna(RatFun(Poly.const(1), Poly([1, 0, 1])))    # cplx poles
    assert is_nevanlinna(RatFun(Poly([5]), Poly.const(1)))              # const
    with pytest.raises(NotNevanlinna):
        nevfun_from_ratfun(RatFun(Poly([0, -1]), Poly.const(1)))


def test_is_nevanlinna_irrational_poles():
    # -(z^2-2)' style: w/(sqrt2 - z) + w/(-sqrt2 - z) = -2z/(z^2-2)
    f = RatFun(Poly([0, -2]), Poly([-2, 0, 1]))
    assert is_nevanlinna(f)
    from nevkit.errors import NotRationalAtoms
    with pytest.raises(NotRationalAtoms):
        nevfun_from_ratfun(f)


@pytest.mark.parametrize("den, message", [
    (Poly.from_roots([1, 1]), "multiple pole"),
    (Poly.from_roots([1]) * Poly([1, 0, 1]), "nonreal pole"),
    (Poly.from_roots([1, 1]) * Poly([1, 0, 1]), "multiple pole"),
])
def test_herglotz_pole_messages(den, message):
    with pytest.raises(NotNevanlinna, match=f"^{message}$"):
        nevfun_from_ratfun(RatFun(Poly.const(-1), den))


IRRATIONAL_ATOMS = RatFun(Poly([0, -2]), Poly([-2, 0, 1]))    # -2z/(z^2-2)
IRRATIONAL_POSITIVE = RatFun(Poly([0, 2]), Poly([-2, 0, 1]))  # 2z/(z^2-2)


def test_herglotz_check_takes_no_sturm_sequence(monkeypatch):
    import nevkit.poly as poly
    from nevkit.errors import NotRationalAtoms
    calls = []

    def counted(name, fn):
        return lambda *a, **k: calls.append(name) or fn(*a, **k)

    rejected = [
        (IRRATIONAL_POSITIVE, "nonnegative residue at irrational pole"),
        (RatFun(Poly.const(1), Poly.from_roots([1])),
         "nonnegative residue at 1"),
        (RatFun(Poly.const(-1), Poly.from_roots([1, 1])), "multiple pole"),
        (RatFun(Poly.const(-1), Poly([1, 0, 1])), "nonreal pole"),
        (RatFun(Poly.const(-1), Poly([-2, 0, 1]) ** 2), "multiple pole"),
    ]
    worked = WORKED.to_ratfun()
    # each root structure is isolated once, by Descartes bisection where a
    # residual has irrational roots; the check itself only reads it
    for f in [worked, IRRATIONAL_ATOMS] + [f for f, _m in rejected]:
        f.critical_points()
    for name in ("count_real_roots", "_boxes"):
        monkeypatch.setattr(poly, name, counted(name, getattr(poly, name)))
    monkeypatch.setattr(RealAlg, "sign_of",
                        counted("sign_of", RealAlg.sign_of))
    assert nevfun_from_ratfun(worked) == WORKED
    assert is_nevanlinna(IRRATIONAL_ATOMS)
    with pytest.raises(NotRationalAtoms):
        nevfun_from_ratfun(IRRATIONAL_ATOMS)
    for f, message in rejected:
        assert not is_nevanlinna(f)
        with pytest.raises(NotNevanlinna, match=f"^{message}$"):
            nevfun_from_ratfun(f)
    assert calls == []


def _sturm_herglotz_parts(f: RatFun):
    """The check as it read Sturm sequences: a count of the denominator's
    real roots, a gcd for the message and Sturm signs at irrational
    poles."""
    q, rem = f.num.divmod(f.den)
    if q.degree > 1:
        raise NotNevanlinna("superlinear growth at infinity")
    beta = q.c[1] if q.degree == 1 else Fraction(0)
    if beta < 0:
        raise NotNevanlinna("negative slope at infinity")
    c0 = q.c[0] if not q.is_zero else Fraction(0)
    den = f.den
    dp = den.deriv()
    if sturm_count(den) != den.degree:
        raise NotNevanlinna("multiple pole" if gcd(den, dp).degree > 0
                            else "nonreal pole")
    pairs = []
    for t, _m in f.real_poles:
        if isinstance(t, Fraction):
            resid = rem.eval_q(t) / dp.eval_q(t)
            if resid >= 0:
                raise NotNevanlinna(f"nonnegative residue at {fmt_rat(t)}")
            pairs.append((t, -resid))
        else:
            if sturm_sign_of(t, rem) * sturm_sign_of(t, dp) >= 0:
                raise NotNevanlinna("nonnegative residue at irrational pole")
            pairs.append((t, None))
    return beta, c0, pairs


def herglotz_candidates():
    """A polynomial part of degree up to 2, mostly a line of nonnegative
    slope, plus one to four terms: w/(t - z) at a rational t,
    (b - az)/(z^2 - n)^k with irrational real (n = 2, 3, 8) or nonreal
    (n = -1) poles, and w/(t - z)^2.  Residues take either sign, negative
    ones more often, so that many draws are accepted."""
    def signed(r):
        return st.tuples(r.filter(bool), st.sampled_from([1, 1, 1, -1])).map(
            lambda xs: abs(xs[0]) * xs[1])
    atom = st.tuples(rationals(6, 2), signed(rationals(4, 3))).map(
        lambda tw: RatFun(Poly.const(tw[1]), Poly([tw[0], -1])))
    double = st.tuples(rationals(6, 2), signed(rationals(4, 3))).map(
        lambda tw: RatFun(Poly.const(tw[1]), Poly([tw[0], -1]) ** 2))
    # at k = 1 the residues at +-sqrt n are -a/2 +- b/(2 sqrt n), both
    # negative when |b| < a sqrt n
    quadratic = st.tuples(st.sampled_from([2, 3, 8, -1]),
                          signed(rationals(4, 2)), rationals(2, 3),
                          st.sampled_from([1, 1, 1, 2])).map(
        lambda nabk: RatFun(Poly([nabk[2], -nabk[1]]),
                            Poly([-nabk[0], 0, 1]) ** nabk[3]))
    line = st.tuples(rationals(4, 2), rationals(2, 2)).map(
        lambda cb: Poly([cb[0], abs(cb[1])]))
    polynomial = st.one_of(small_polys(2), line, line).map(
        lambda p: RatFun(p, Poly.const(1)))
    return st.builds(lambda p, terms: sum(terms, p), polynomial,
                     st.lists(st.one_of(quadratic, atom, double),
                              min_size=1, max_size=4))


def _verdict(check, f):
    """The parts, or the message of the rejection; both checks read the
    poles of the same root structure, so a RealAlg pole compares by
    identity."""
    try:
        return check(f)
    except NotNevanlinna as e:
        return str(e)


@settings(max_examples=200, deadline=None)
@given(herglotz_candidates())
def test_herglotz_check_matches_sturm_reference(f):
    assert (_verdict(nevkit.nevfun._herglotz_parts, f)
            == _verdict(_sturm_herglotz_parts, f))


def _count_herglotz_parts(monkeypatch) -> list:
    calls = []
    parts = nevkit.nevfun._herglotz_parts
    monkeypatch.setattr(nevkit.nevfun, "_herglotz_parts",
                        lambda f: calls.append(f) or parts(f))
    return calls


def test_rejections_are_not_memoised(monkeypatch):
    from nevkit.errors import NotRationalAtoms
    calls = _count_herglotz_parts(monkeypatch)
    positive_residue = RatFun(Poly.const(1), Poly.from_roots([1]))
    irrational_poles = RatFun(Poly([0, -2]), Poly([-2, 0, 1]))
    for f, error in ((positive_residue, NotNevanlinna),
                     (irrational_poles, NotRationalAtoms)):
        for _ in range(2):
            with pytest.raises(error):
                nevfun_from_ratfun(f)
    assert len(calls) == 4


def test_an_extraction_that_misses_its_input_is_a_defect(monkeypatch):
    build = NevFun.from_partial_fractions
    monkeypatch.setattr(NevFun, "from_partial_fractions", staticmethod(
        lambda c0, beta, atoms=(): build(c0 + 1, beta, atoms)))
    with pytest.raises(InvariantViolation,
                       match="^representation extraction mismatch$"):
        nevfun_from_ratfun(RatFun(Poly([1, -1]), Poly([-2, 1])))


def test_a_closed_form_with_atoms_off_its_identity_is_a_defect():
    """lhs/rhs = 1, but the atom (0, 1) makes the NevFun 1 - 1/z."""
    with pytest.raises(InvariantViolation,
                       match="^planted: the certificate identity fails$"):
        nevkit.nevfun._certified(Poly.const(1), Poly.const(1),
                                 [(Fraction(0), Fraction(1))], "planted")


def test_float_evaluation_matches_exact_values():
    np = pytest.importorskip("numpy")
    q = NevFun.of(Fraction(1, 3), Fraction(2, 7),
                  [(-1, Fraction(1, 3)), (2, 5), (Fraction(7, 2), 1)])
    zs = [QC.of(Fraction(3, 10), Fraction(7, 10)), QC.of(-2, Fraction(1, 8)),
          QC.of(1000, 2)]
    exact = [complex(q.evaluate(z)) for z in zs]
    floats = [complex(z) for z in zs]
    assert [q.evaluate(z) for z in floats] == pytest.approx(exact, rel=1e-12)
    assert list(q.evaluate(np.array(floats))) == \
        pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda: Poly([1, 1]) ** -1,
    lambda: rational_between(2, 1),
    lambda: rational_between(RealAlg(Poly([-2, 0, 1]), 1, 2), 1),
    lambda: compose_fractional(Poly([1, 2, 3]), Poly([0, 1]), Poly([1]), 1),
    lambda: WORKED.scale(0),
    lambda: WORKED.limit_at(0, "bogus"),
    lambda: WORKED.limit_at(INF, "bogus"),
    lambda: WORKED.gap_characterize(1, 0),
    lambda: WORKED.gap_characterize(1, 0, "complement_gap"),
    lambda: WORKED.gap_characterize(0, shape="bogus"),
    lambda: WORKED.gap_characterize(0),
    lambda: WORKED.gap_characterize(0, shape="complement_gap"),
    lambda: WORKED.corollary_products(3, 1),
    lambda: WORKED.corollary_products(1, 1),
    lambda: WORKED.corollary_products(1, None),
], ids=["negative_power", "rational_between", "rational_between_alg",
        "compose_fractional", "scale", "limit_mode", "limit_mode_inf",
        "bounded_gap", "complement_gap", "gap_shape", "bounded_gap_no_d",
        "complement_gap_no_d", "corollary_reversed", "corollary_empty",
        "corollary_no_d"])
def test_domain_errors_are_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


def test_atomic_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure.of([(1, 1), (1, 2)])
    with pytest.raises(ValueError):
        AtomicMeasure.of([(1, -1)])


def test_to_ratfun_is_built_once_and_invisible():
    q = NevFun.of(Fraction(-3, 5), 0, [(2, 1)])
    before = (repr(q), hash(q))
    r = q.to_ratfun()
    assert q.to_ratfun() is r
    assert r == RatFun.from_points([1], [2], -1)
    assert (repr(q), hash(q)) == before
    assert q == WORKED and NevFun.of(Fraction(-3, 5), 0, [(2, 1)]) == q


def _fraction_num_den(q: NevFun) -> tuple[Poly, Poly]:
    """(num, den) built one atom at a time in Fraction arithmetic, the
    reference for the integer assembly of NevFun.to_ratfun."""
    num, den = Poly.const(0), Poly.const(1)
    for t, w in q.sigma:
        lin = Poly([-t, 1])
        num, den = num * lin - den * w, den * lin
    return num + Poly([q.c0, q.beta]) * den, den


def _check_seeded_structures(q: NevFun):
    """q's RatFun is RatFun(num, den) of its own num and den, and the
    root structures it was given equal those of the root analysis entry by
    entry."""
    fresh = NevFun.of(q.alpha, q.beta, q.sigma)      # no memo of any kind
    f = fresh.to_ratfun()
    assert (f.num, f.den) == _fraction_num_den(fresh)
    assert f == RatFun(f.num, f.den)
    for seeded, p in ((f.real_zeros, f.num), (f.real_poles, f.den)):
        ref_points, ref_blocks = real_root_structure(p)
        assert ref_blocks == () and len(seeded) == len(ref_points)
        for (got, m), (want, n) in zip(seeded, ref_points):
            assert point_cmp(got, want) == 0
            assert type(got) is type(want)
            assert m == n == 1
    assert f.complex_zero_blocks == f.complex_pole_blocks == []


@pytest.mark.parametrize("q", [
    NevFun.from_partial_fractions(-1, 0, [(0, 1)]),         # zero -1 < atom 0
    NevFun.from_partial_fractions(1, 0, [(0, 1)]),          # zero 1 > atom 0
    NevFun.from_partial_fractions(0, 1, [(0, 4)]),          # zeros -2, 2
    NevFun.from_partial_fractions(0, 1, [(0, 2), (5, 1)]),  # irrational ends
    NevFun.of(3, 2),                                        # no atoms
    NevFun.of(3, 0), NevFun.of(0, 0),                       # constants
], ids=["left_ray", "right_ray", "beta_rational", "beta_irrational",
        "no_atoms", "constant", "zero"])
def test_seeded_root_structure_cases(q):
    _check_seeded_structures(q)


@settings(max_examples=150, deadline=None)
@given(nevfuns(5), rationals(30, 4))
def test_seeded_root_structures_match_root_analysis(q, x):
    _check_seeded_structures(q)
    if not q.sigma.weight_at(x):                    # a rational zero at x
        _check_seeded_structures(NevFun.of(q.alpha - q.evaluate(x), q.beta,
                                           q.sigma))


def test_interlacing_is_checked():
    from nevkit.errors import InvariantViolation
    from nevkit.poly import interlaced_root_structure
    p = Poly.from_roots([1, 2])                     # both zeros in (0, 3)
    with pytest.raises(InvariantViolation):
        interlaced_root_structure(p, [Fraction(0), Fraction(3)], True, False)


def test_weight_at_an_irrational_point_is_zero():
    sqrt2 = real_root_structure(Poly([-2, 0, 1]))[0][1][0]
    q = NevFun.of(0, 1, [(1, 2), (Fraction(3, 2), 1)])
    assert q.sigma.weight_at(sqrt2) == 0
    assert q.sigma.weight_at(1) == 2 and q.kac_membership(sqrt2)
