import random
from fractions import Fraction

import pytest

from nevkit.corpus import (random_nevfun, random_plain_pair,
                           structured_plain_pair)
from nevkit.errors import (InvalidInput, InvariantViolation, NotKacMember,
                           PoleHit, SpectrumHit)
from nevkit.gnev import GenNevFun
from nevkit.nevfun import AtomicMeasure, NevFun
from nevkit.poly import Poly
from nevkit.qmath import INF, NEG_INF, QC
from nevkit.ratfun import RatFun
from nevkit.realize import (L2Model, _model, enumerate_zeros_poles,
                            minimal_model, model_spectral_check, model_weyl,
                            transform_model)

MINUS_INV = NevFun.of(0, 0, [(0, 1)])
WORKED_Q = NevFun.of(Fraction(-3, 5), 0, [(2, 1)])
WORKED_R = RatFun.from_points([2, 2, 0], [1, 1, 3])

UHP = [QC.of(Fraction(n, 7), Fraction(d, 3))
       for n in range(-25, 25) for d in (1, 2)][:50]


def test_minimal_model_examples():
    m = minimal_model(MINUS_INV, INF)
    assert m.beta == 0 and m.sigma.atoms == ((Fraction(0), Fraction(1)),)
    assert m.omega_sq == ((Fraction(0), Fraction(1)),)
    assert m.eta == 0

    m2 = minimal_model(WORKED_Q, 0)
    assert m2.sigma.atoms == ((Fraction(2), Fraction(1)),)
    assert m2.omega_sq_at(2) == Fraction(1, 4)      # omega(2) = 1/2
    assert m2.eta == Fraction(-1, 2)

    m3 = minimal_model(NevFun.const(Fraction(5, 7)), 3)
    assert len(m3.sigma) == 0 and m3.eta == Fraction(5, 7)


def test_minimal_model_requires_membership():
    with pytest.raises(NotKacMember):
        minimal_model(MINUS_INV, 0)          # atom at the anchor
    with pytest.raises(NotKacMember):
        minimal_model(NevFun.of(0, 1), INF)  # mass at infinity


def test_model_weyl_examples():
    m = minimal_model(MINUS_INV, INF)
    z = QC.of(0, 1)
    assert model_weyl(m, z) == MINUS_INV.evaluate(z) == QC.of(0, 1)

    m2 = minimal_model(WORKED_Q, 0)
    assert model_weyl(m2, z) == WORKED_Q.evaluate(z)

    m3 = minimal_model(NevFun.const(Fraction(2)), 1)
    assert model_weyl(m3, QC.of(5, 3)) == QC.of(2)


def test_model_weyl_spectrum_hit():
    m = minimal_model(WORKED_Q, 0)
    with pytest.raises(SpectrumHit):
        model_weyl(m, Fraction(2))


# (function, model anchor); the last model has no atoms
EVAL_CASES = [
    (NevFun.of(Fraction(-3, 5), Fraction(1, 2),
               [(-1, 2), (Fraction(1, 3), 1), (2, Fraction(5, 4))]), 0),
    (NevFun.of(1, 0, [(0, 1), (Fraction(7, 2), 3)]), INF),
    (NevFun.const(Fraction(5, 7)), 1),
]
EVAL_PHI = RatFun.from_points([Fraction(1, 2)] * 2, [3, 3])
EVAL_POINTS = [Fraction(-7, 3), Fraction(5), QC.of(Fraction(1, 3), 2),
               QC.of(-2, Fraction(1, 7)), QC.of(Fraction(3, 2)),
               complex(0.25, 1.5), complex(-3.0, 1e-3), complex(1.7, 0.0)]


def _partial_fractions(q, z):
    """alpha + beta z + sum w (1/(t - z) - t/(1 + t^2)) in z's arithmetic."""
    acc = q.alpha + q.beta * z
    for t, w in q.sigma:
        acc = acc + w / (t - z) - w * t / (1 + t * t)
    return acc


def _agree(got, want) -> bool:
    if isinstance(want, complex):
        return abs(got - want) <= 1e-12 * abs(want)
    return QC.coerce(got) == QC.coerce(want)


@pytest.mark.parametrize("q, xi", EVAL_CASES)
def test_evaluation_agrees_with_partial_fractions(q, xi):
    m = minimal_model(q, xi)
    g = GenNevFun(EVAL_PHI, q)
    for z in EVAL_POINTS:
        want = _partial_fractions(q, z)
        phi = (z - Fraction(1, 2)) * (z - Fraction(1, 2)) / ((z - 3) * (z - 3))
        assert _agree(q.evaluate(z), want), z
        assert _agree(q.to_ratfun()(z), want), z
        assert _agree(model_weyl(m, z), want), z
        assert _agree(g.evaluate(z), phi * want), z
        assert type(model_weyl(m, z)) is type(z)
    for t in q.sigma.positions:
        for call in (q.evaluate, q.to_ratfun(), g.evaluate):
            with pytest.raises(PoleHit):
                call(t)
        with pytest.raises(PoleHit):
            q.evaluate(QC.of(t))
        with pytest.raises(SpectrumHit):
            model_weyl(m, t)


def test_faithfulness_random():
    rng = random.Random(61)
    for _ in range(15):
        q, _r = random_plain_pair(rng)
        anchors = [INF] if q.beta == 0 else []
        gaps = [t - 1 for t in q.sigma.positions[:1]]
        anchors += [g for g in gaps if q.kac_membership(g)]
        for xi in anchors:
            m = minimal_model(q, xi)
            for z in UHP[:6]:
                assert model_weyl(m, z) == q.evaluate(z)


def test_enumeration_order():
    zs, ps = enumerate_zeros_poles(WORKED_R)
    assert zs == (Fraction(2), Fraction(2), Fraction(0))
    assert ps == (Fraction(1), Fraction(1), Fraction(3))
    zs2, ps2 = enumerate_zeros_poles(RatFun.x())
    assert zs2 == (Fraction(0),) and ps2 == (INF,)


def test_transform_worked_instance():
    m = minimal_model(WORKED_Q, 1)
    rep = transform_model(m, WORKED_R, WORKED_Q)
    assert rep.case == "both_finite"
    assert dict(rep.zetas) == {Fraction(1): Fraction(1, 2),
                               Fraction(3): Fraction(3, 2)}
    out = rep.model_out
    assert out.xi == 0 and out.eta == 0
    assert out.sigma.atoms == ((Fraction(1), Fraction(1)),
                               (Fraction(3), Fraction(1)))
    assert out.omega_sq_at(1) == Fraction(1, 2)
    assert out.omega_sq_at(3) == Fraction(1, 6)
    # the order-two zero removed the atom of the input measure at 2
    assert all(t != 2 for t in out.sigma.positions)
    for lam in UHP:
        assert model_weyl(out, lam) == \
            WORKED_R.eval_qc(lam) * WORKED_Q.evaluate(lam)
    assert model_spectral_check(m, out, WORKED_R)


def test_neg_inf_anchor_is_the_point_at_infinity():
    # NEG_INF names the point at infinity, as in RatFun.ord_at
    assert WORKED_Q.kac_membership(NEG_INF) is True
    assert NevFun.of(0, 1).kac_membership(NEG_INF) is False
    assert minimal_model(WORKED_Q, NEG_INF) == minimal_model(WORKED_Q, INF)
    with pytest.raises(NotKacMember):
        minimal_model(NevFun.of(0, 1), NEG_INF)


def test_transform_requires_the_first_pole_as_anchor():
    with pytest.raises(InvalidInput):
        transform_model(minimal_model(WORKED_Q, 3), WORKED_R, WORKED_Q)


def test_transform_pole_at_infinity():
    m = minimal_model(MINUS_INV, INF)
    rep = transform_model(m, RatFun.x(), MINUS_INV)
    assert rep.case == "bn_infinite"
    out = rep.model_out
    assert out.xi == 0 and out.eta == -1 and len(out.sigma) == 0
    assert out.beta == 0
    for lam in UHP[:5]:
        assert model_weyl(out, lam) == QC.of(-1)
    assert model_spectral_check(m, out, RatFun.x())


def test_transform_zero_at_infinity():
    # r = 1/z has its zero at infinity and its pole at 0; the worked q
    # satisfies q(0) < 0 with its zero and atom on the positive axis
    q = WORKED_Q
    r = RatFun(Poly.const(1), Poly([0, 1]))
    m = minimal_model(q, 0)
    rep = transform_model(m, r, q)
    assert rep.case == "an_infinite"
    out = rep.model_out
    assert out.xi is INF and out.beta == 0
    rq = r * q.to_ratfun()
    for lam in UHP[:8]:
        assert model_weyl(out, lam) == rq.eval_qc(lam)
    assert model_spectral_check(m, out, r)


def test_transform_random_pairs():
    rng = random.Random(67)
    done = 0
    while done < 10:
        q, r = random_plain_pair(rng)
        _zs, ps = enumerate_zeros_poles(r)
        if not ps:
            continue
        try:
            m = minimal_model(q, ps[0])
        except NotKacMember:
            continue
        rep = transform_model(m, r, q)
        rq = r * q.to_ratfun()
        for lam in UHP[:5]:
            assert model_weyl(rep.model_out, lam) == rq.eval_qc(lam)
        assert model_spectral_check(m, rep.model_out, r)
        assert all(z >= 0 for _b, z in rep.zetas)
        # minimality: no atom at any zero of r; atoms at poles only when the
        # acquired mass is positive
        zero_pts = {x for x, _m in r.real_zeros if isinstance(x, Fraction)}
        for t in rep.model_out.sigma.positions:
            assert t not in zero_pts
        for b, z in rep.zetas:
            if b is INF:
                continue
            has_atom = any(t == b for t in rep.model_out.sigma.positions)
            assert has_atom == (z > 0)
        done += 1


def test_transform_structured_pairs():
    rng = random.Random(71)
    for _ in range(4):
        q, r = structured_plain_pair(rng)
        _zs, ps = enumerate_zeros_poles(r)
        m = minimal_model(q, ps[0])
        rep = transform_model(m, r, q)
        rq = r * q.to_ratfun()
        for lam in UHP[:5]:
            assert model_weyl(rep.model_out, lam) == rq.eval_qc(lam)
        assert model_spectral_check(m, rep.model_out, r)


def test_transform_refuses_a_model_of_another_function():
    # anchored at the first pole of r, but it realizes another function
    m = minimal_model(NevFun.of(5, 0, [(2, 3)]), 1)
    with pytest.raises(InvalidInput, match="does not realize"):
        transform_model(m, WORKED_R, WORKED_Q)


def test_a_transferred_model_off_the_product_is_a_defect(monkeypatch):
    import nevkit.realize
    m = minimal_model(WORKED_Q, 1)
    monkeypatch.setattr(nevkit.realize, "L2Model",
                        lambda beta, sigma, xi, eta, *rest:
                        L2Model(beta, sigma, xi, eta + 1, *rest))
    with pytest.raises(InvariantViolation,
                       match="^transferred model does not realize the "
                             "product$"):
        transform_model(m, WORKED_R, WORKED_Q)


@pytest.mark.parametrize("q_in, q_out", [
    # the acquired mass at the pole 3 of r is 3/2, not 5
    (WORKED_Q, NevFun.of(0, 0, [(3, 5)])),
    # an output atom at 5, off the poles, where the input has none
    (WORKED_Q, NevFun.of(0, 0, [(5, 1)])),
    # the input atom at 5, where r is finite and nonzero, dropped
    (NevFun.of(0, 0, [(5, 1)]), NevFun.const(0)),
    # the atom at the pole 1 right, the acquired mass 3/2 at 3 missing
    (WORKED_Q, NevFun.of(0, 0, [(1, Fraction(1, 2))])),
], ids=["pole-mass", "new-atom", "lost-atom", "lost-pole-mass"])
def test_spectral_check_fails_on_a_wrong_measure(q_in, q_out):
    assert not model_spectral_check(minimal_model(q_in, INF),
                                    minimal_model(q_out, INF), WORKED_R)


def test_spectral_check_fails_on_a_nonreal_pole():
    # r q = 1/(z^2 + 1) is no Nevanlinna function, whatever the measures
    m = minimal_model(NevFun.const(1), INF)
    assert not model_spectral_check(m, m, RatFun(Poly.const(1),
                                                 Poly([1, 0, 1])))


def _weyl_ratfun(m: L2Model) -> RatFun:
    """Reference: eta + (z - xi) [beta omega_inf^2 + sum w omega^2(t)
    (t - xi)/(t - z)], or eta + sum w omega^2(t)/(t - z) at xi = INF,
    summed term by term as RatFuns."""
    acc = RatFun.const(m.eta)
    if m.xi is INF:
        for t, w in m.sigma:
            acc = acc + RatFun(Poly.const(w * m.omega_sq_at(t)),
                               Poly([t, -1]))
        return acc
    lin = RatFun(Poly([-m.xi, 1]), Poly.const(1))
    acc = acc + lin * (m.beta * m.omega_inf_sq)
    for t, w in m.sigma:
        term = RatFun(Poly.const(w * m.omega_sq_at(t) * (t - m.xi)),
                      Poly([t, -1]))
        acc = acc + lin * term
    return acc


def _criterion_5_pairs():
    """The worked pair and the 50 plain pairs of acceptance criterion 5."""
    pairs = [(WORKED_Q, WORKED_R)]
    rng = random.Random(1005)
    while len(pairs) < 51:
        q, r = random_plain_pair(rng)
        _zs, ps = enumerate_zeros_poles(r)
        if ps and q.kac_membership(ps[0]):
            pairs.append((q, r))
    return pairs


def test_closed_form_matches_the_term_by_term_sum_on_transferred_models():
    for q, r in _criterion_5_pairs():
        m_in = minimal_model(q, enumerate_zeros_poles(r)[1][0])
        m_out = transform_model(m_in, r, q).model_out
        assert m_in.to_nevfun() == q
        for m in (m_in, m_out):
            assert m.to_nevfun().to_ratfun() == _weyl_ratfun(m)


def _random_model(rng, xi) -> L2Model:
    ts = rng.sample(range(-6, 7), rng.randint(0, 4))
    atoms = [(Fraction(t, 2), Fraction(rng.randint(1, 9), rng.randint(1, 4)))
             for t in ts if xi is INF or Fraction(t, 2) != xi]
    omega_sq = tuple((t, Fraction(rng.randint(1, 9), rng.randint(1, 5)))
                     for t, _ in sorted(atoms))
    return L2Model(Fraction(rng.randint(0, 3), 2), AtomicMeasure.of(atoms), xi,
                   Fraction(rng.randint(-9, 9), rng.randint(1, 4)), omega_sq,
                   Fraction(rng.randint(0, 4), 3))


@pytest.mark.parametrize("finite", [True, False])
def test_closed_form_matches_the_term_by_term_sum_on_random_models(finite):
    rng = random.Random(79)
    for _ in range(30):
        xi = Fraction(rng.randint(-9, 9), rng.randint(1, 3)) if finite else INF
        m = _random_model(rng, xi)
        ref = _weyl_ratfun(m)
        assert m.to_nevfun().to_ratfun() == ref
        for z in UHP[::10]:
            assert model_weyl(m, z) == ref.eval_qc(z)


def test_the_model_of_a_function_realizes_it():
    # _model is the right inverse of L2Model.to_nevfun on any measure with
    # the function's atoms, and on the function's own measure it is the
    # minimal model; INF is an anchor in the local class only when beta = 0
    rng = random.Random(83)
    for _ in range(200):
        f = random_nevfun(rng)
        xi = None
        while xi is None or not f.kac_membership(xi):
            xi = INF if rng.random() < 0.3 else \
                Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        sigma = AtomicMeasure.of(
            (t, Fraction(rng.randint(1, 9), rng.randint(1, 5)))
            for t, _m in f.sigma)
        assert _model(f, xi, sigma).to_nevfun() == f
        assert minimal_model(f, xi) == _model(f, xi, f.sigma)


def test_vanishing_vector_value_keeps_the_atom_in_the_spectrum():
    # omega(1) = 0: the realized function has no atom at 1, but 1 is still
    # in the spectrum of the model
    m = L2Model(Fraction(1), AtomicMeasure.of([(1, 2), (3, 1)]), Fraction(0),
                Fraction(1, 2), ((Fraction(1), Fraction(0)),
                                 (Fraction(3), Fraction(1, 9))), Fraction(1))
    q = m.to_nevfun()
    assert q.to_ratfun() == _weyl_ratfun(m)
    assert q.sigma.positions == [Fraction(3)]
    for lam in (Fraction(1), 1, QC.of(1)):
        with pytest.raises(SpectrumHit):
            model_weyl(m, lam)
    assert model_weyl(m, Fraction(2)) == q.evaluate(Fraction(2))
