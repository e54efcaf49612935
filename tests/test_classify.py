import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env, nevfuns, rationals
import nevkit.classify as cl
from nevkit.classify import (FactorChain, chain_factorize, check_N00,
                             interlacing_factorize, kac_closure, membership,
                             negative_closed_pieces, pieces_disjoint,
                             product_factorization, productinNg_forms,
                             _certify_chain, _degree_one_step, _zero_points)
from nevkit.corpus import (random_gennev, random_interlacing_simple,
                           random_member_pair, random_plain_pair,
                           random_symmetric_ratfun, structured_plain_pair)
from nevkit import serialize as ser
from nevkit.errors import (ConstantInput, ExactSplitUnavailable, InvalidInput,
                           InvariantViolation, NevkitError, NotInClass,
                           NotInterlacing, NotNevanlinna, NotRationalAtoms,
                           PoleHit)
from nevkit.gnev import GenNevFun, canonical_pair, canonical_rational
from nevkit.nevfun import (NevFun, _compose, is_nevanlinna,
                           nevfun_from_ratfun)
from nevkit.oracle import negative_squares
from nevkit.poly import Poly, RealAlg, point_cmp
from nevkit.qmath import INF, NEG_INF, QC
from nevkit.ratfun import RatFun, strictly_between
from nevkit.realize import (enumerate_zeros_poles, minimal_model,
                            model_spectral_check, transform_model)

MINUS_INV = NevFun.of(0, 0, [(0, 1)])                              # -1/z
WORKED_Q = NevFun.of(Fraction(-3, 5), 0, [(2, 1)])                 # (z-1)/(2-z)
WORKED_R = RatFun.from_points([2, 2, 0], [1, 1, 3])
SHIFT_INV = nevfun_from_ratfun(RatFun(Poly.const(1), Poly([-1, -1])))  # 1/(-1-z)
Z = RatFun.x()

UHP_POINTS = [QC.of(Fraction(n, 3), Fraction(d, 2))
              for n in range(-10, 10) for d in (1, 3)][:20]


def eval_gen(g: GenNevFun, z: QC) -> QC:
    return g.evaluate(z)


def test_membership_examples():
    rep = membership(GenNevFun.from_nevfun(MINUS_INV), Z)
    assert rep.kappa == 0 and rep.kappa_tilde == 0
    assert rep.witness.to_ratfun() == RatFun.const(-1)

    rep2 = membership(GenNevFun.from_nevfun(SHIFT_INV), Z)
    assert rep2.kappa_tilde == 1
    assert rep2.exceptional_atoms == (Fraction(-1),)

    rep3 = membership(GenNevFun.from_nevfun(NevFun.of(0, 1)), Z)
    assert rep3.kappa_tilde == 1


def test_product_factorization_examples():
    w = product_factorization(GenNevFun.from_nevfun(SHIFT_INV), Z)
    assert w.phi == RatFun(Poly([0, 0, 1]), Poly([1, 2, 1]))
    assert w.q0.to_ratfun() == RatFun(Poly([-1, -1]), Poly([0, 1]))

    w2 = product_factorization(GenNevFun.from_nevfun(MINUS_INV), Z)
    assert w2.phi.is_constant and w2.q0.to_ratfun() == RatFun.const(-1)

    w3 = product_factorization(GenNevFun.from_nevfun(WORKED_Q), WORKED_R)
    assert w3.phi.is_constant and w3.kappa == 0
    assert w3.q0.to_ratfun() == RatFun(Poly([0, 2, -1]), Poly.from_roots([1, 3]))
    assert w3.q0.sigma.atoms == ((Fraction(1), Fraction(1, 2)),
                                 (Fraction(3), Fraction(3, 2)))


def test_check_n00_examples():
    assert check_N00(WORKED_Q, WORKED_R).ok
    assert check_N00(MINUS_INV, Z).ok
    rep = check_N00(SHIFT_INV, Z)
    assert not rep.ok
    assert rep.kappa_tilde == 1
    assert any(cl == "i" for cl, _p, _d in rep.failures)


def test_interlacing_factorize_examples():
    s = RatFun.from_points([1, 3], [2, 4])
    fs = interlacing_factorize(s)
    assert fs == [RatFun.from_points([1], [2]), RatFun.from_points([3], [4])]
    pieces = [negative_closed_pieces(f) for f in fs]
    assert pieces == [[(Fraction(1), Fraction(2))],
                      [(Fraction(3), Fraction(4))]]
    assert pieces_disjoint(pieces[0], pieces[1])
    # closed pieces that touch at 2 intersect
    assert not pieces_disjoint(pieces[0], [(Fraction(2), Fraction(3))])

    single = RatFun.from_points([1], [2])
    assert interlacing_factorize(single) == [single]

    neg = RatFun.from_points([1, 3], [2, 4], -1)
    fs2 = interlacing_factorize(neg)
    assert fs2 == [RatFun.from_points([1], [4], -1),
                   RatFun.from_points([3], [2])]
    p2 = [negative_closed_pieces(f) for f in fs2]
    assert pieces_disjoint(p2[0], p2[1])


def test_interlacing_rejects():
    with pytest.raises(NotInterlacing):
        interlacing_factorize(RatFun.from_points([1, 2], [3]))
    with pytest.raises(NotInterlacing):
        interlacing_factorize(RatFun.from_points([1, 1], [2]))
    with pytest.raises(ConstantInput, match="^nothing to factor$"):
        interlacing_factorize(RatFun.const(2))


def test_interlacing_factors_that_do_not_multiply_back_are_a_defect(
        monkeypatch):
    monkeypatch.setattr(cl, "_unit_factor", lambda x, y, anchor: Z)
    with pytest.raises(InvariantViolation,
                       match="^interlacing factors do not multiply back$"):
        interlacing_factorize(RatFun.from_points([1, 3], [2, 4]))


def test_a_degree_one_step_that_fails_is_a_defect(monkeypatch):
    def refused(s, q, psi):
        raise NotNevanlinna("planted")
    monkeypatch.setattr(cl, "_chain_step", refused)
    with pytest.raises(InvariantViolation, match="^degree-one step: planted$"):
        _degree_one_step(RatFun.from_points([1], [2]), MINUS_INV)


def _four_case_split(s: RatFun) -> list[RatFun]:
    """The interlacing split as it was chosen from the zero and pole counts,
    with two inversions, kept as the reference for the split by arcs."""
    crit = s.critical_points()
    a = [x for x, e in crit if e > 0]
    b = [x for x, e in crit if e < 0]
    l1, l2, gamma = len(a), len(b), s.gamma
    if l1 == l2 + 1 or (l1 == l2 and crit[0][1] < 0):
        return [f.inverse() for f in _four_case_split(s.inverse())]
    if l1 == l2:
        if gamma < 0:
            return ([RatFun.from_points([a[0]], [b[-1]], gamma)]
                    + [RatFun.from_points([a[i]], [b[i - 1]])
                       for i in range(1, l1)])
        return ([RatFun.from_points([a[0]], [b[0]], gamma)]
                + [RatFun.from_points([a[i]], [b[i]]) for i in range(1, l1)])
    # pole first and pole last
    if gamma < 0:
        return ([RatFun.from_points([a[i]], [b[i]]) for i in range(l1)]
                + [RatFun.from_points([], [b[-1]], gamma)])
    return ([RatFun.from_points([a[i]], [b[i + 1]]) for i in range(l1)]
            + [RatFun.from_points([], [b[0]], gamma)])


def test_interlacing_corpus():
    rng = random.Random(5)
    for _ in range(60):
        s = random_interlacing_simple(rng)
        fs = interlacing_factorize(s)
        prod = RatFun.const(1)
        for f in fs:
            assert f.degree == 1
            prod = prod * f
        assert prod == s
        pieces = [negative_closed_pieces(f) for f in fs]
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                assert pieces_disjoint(pieces[i], pieces[j])
    # the split by negative arcs gives the factors of the four-case split,
    # in the same order, with gamma on the same factor
    shapes = set()
    for seed in range(20):
        rng = random.Random(seed)
        for _ in range(100):
            s = random_interlacing_simple(rng, 6)
            assert interlacing_factorize(s) == _four_case_split(s), s
            crit = s.critical_points()
            shapes.add((s.gamma > 0, len(crit) % 2, crit[0][1]))
    # both signs of gamma, both parities of the count, either kind first
    assert len(shapes) == 8


def test_chain_worked_instance():
    chain = chain_factorize(WORKED_Q, WORKED_R)
    assert list(chain.factors) == [RatFun.from_points([2], [1]),
                                   RatFun.from_points([0], [3]),
                                   RatFun.from_points([2], [1])]
    # first partial product is the constant -1
    assert chain.partial_certificates[0].to_ratfun() == RatFun.const(-1)
    assert chain.partial_certificates[-1].to_ratfun() == \
        RatFun(Poly([0, 2, -1]), Poly.from_roots([1, 3]))


def test_chain_trivial():
    chain = chain_factorize(MINUS_INV, Z)
    assert list(chain.factors) == [Z]


def test_chain_reordering_fails():
    bad = [RatFun.from_points([0], [3]), RatFun.from_points([2], [1]),
           RatFun.from_points([2], [1])]
    with pytest.raises(NotNevanlinna):
        _certify_chain(WORKED_Q, bad)


def test_chain_unbounded_interval_uses_conjugation():
    # negative set of z is (-inf, 0): the chain must still certify
    chain = chain_factorize(MINUS_INV, RatFun.from_points([0], [], 2))
    prod = RatFun.const(1)
    for f in chain.factors:
        prod = prod * f
    assert prod == RatFun.from_points([0], [], 2)


def test_chain_degenerate_all_even():
    # r = -(z-1)^2/z^2 with q = gamma0 (1 + 1/(z-1)), gamma0 < 0
    q = nevfun_from_ratfun(RatFun(Poly([0, -2]), Poly([-1, 1])))  # -2z/(z-1)
    r = RatFun(Poly([-1, 2, -1]), Poly([0, 0, 1]))                # -(z-1)^2/z^2
    chain = chain_factorize(q, r)
    prod = RatFun.const(1)
    for f in chain.factors:
        prod = prod * f
    assert prod == r
    # all-pole degenerate variant
    q2 = NevFun.of(0, 1)
    r2 = RatFun(Poly.const(-3), Poly([0, 0, 1]))                  # -3/z^2
    chain2 = chain_factorize(q2, r2)
    assert len(chain2.factors) == 2


def test_chain_generated_pairs():
    rng = random.Random(31)
    for _ in range(12):
        q, r = random_plain_pair(rng)
        chain = chain_factorize(q, r)
        assert len(chain.partial_certificates) == len(chain.factors)
        prod = RatFun.const(1)
        for f in chain.factors:
            assert f.degree == 1
            prod = prod * f
        assert prod == r


def test_chain_structured_pairs():
    rng = random.Random(37)
    for _ in range(6):
        q, r = structured_plain_pair(rng)
        chain = chain_factorize(q, r)
        assert len(chain.factors) >= 3     # interior pair emitted twice


def test_every_structured_draw_is_a_plain_pair():
    """structured_plain_pair draws once: r q interlaces upward from the
    simple pole a, and the other orientation of the simple ends fails."""
    rng = random.Random(41)
    for _ in range(200):
        q, r = structured_plain_pair(rng)
        assert check_N00(q, r).ok
        (a,), (b,) = ([x for x, m in points if m == 1]
                      for points in (r.real_poles, r.real_zeros))
        assert not check_N00(q, r * RatFun.from_points([a, a], [b, b])).ok


def test_failed_pair_generation_is_a_nevkit_error(monkeypatch):
    import nevkit.corpus

    def refused(s, q):
        raise NotNevanlinna("no step")
    monkeypatch.setattr(nevkit.corpus, "_chain_step", refused)
    with pytest.raises(InvariantViolation,
                       match="^plain-pair generation failed$"):
        random_plain_pair(random.Random(31))


def test_failed_member_pair_generation_is_a_nevkit_error(monkeypatch):
    def refused(g, r):
        raise ExactSplitUnavailable("no split")
    monkeypatch.setattr(cl, "product_factorization", refused)
    with pytest.raises(InvariantViolation,
                       match="^member pair generation failed$"):
        random_member_pair(random.Random(31))


def test_kac_closure_examples():
    kc = kac_closure(MINUS_INV, Z)
    assert kc.at_poles == ((INF, True),)
    assert kc.at_zeros == ((Fraction(0), True),)

    kc2 = kac_closure(WORKED_Q, WORKED_R)
    assert kc2.all_hold()
    pole_pts = {p if p is INF else Fraction(p) for p, _ in kc2.at_poles}
    assert pole_pts == {Fraction(1), Fraction(3)}
    zero_pts = {p if p is INF else Fraction(p) for p, _ in kc2.at_zeros}
    assert zero_pts == {Fraction(0), Fraction(2)}


def test_witness_identity_and_canonicity():
    rng = random.Random(43)
    for _ in range(15):
        g, r = random_member_pair(rng)
        w = product_factorization(g, r)
        for z in UHP_POINTS[:8]:
            assert w.evaluate(z) == r.eval_qc(z) * g.evaluate(z)
        again = canonical_pair(w.to_ratfun())
        assert again.phi == w.phi and again.q0 == w.q0


def test_kappa_tilde_oracle_match():
    rng = random.Random(47)
    for _ in range(10):
        g, r = random_member_pair(rng, max_atoms=3, max_degree=3)
        w = product_factorization(g, r)
        if w.to_ratfun().degree <= 8:
            assert negative_squares(w.to_ratfun(), seed=5) == w.kappa


@pytest.mark.parametrize("s, error, message", [
    (RatFun.const(2), ConstantInput, "multiplier must be nonconstant"),
    (RatFun.from_points([1, 1], [2]), NotInterlacing,
     "multiplier must be simple, infinity included"),
])
def test_four_forms_need_a_simple_multiplier(s, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        productinNg_forms(WORKED_Q, s)


def test_four_forms_agree():
    rng = random.Random(53)
    n_member = 0
    for _ in range(40):
        q, s = random_plain_pair(rng, simple_only=True)
        forms = productinNg_forms(q, s)
        assert len(set(forms)) == 1, (q, s, forms)
        n_member += forms[0]
    assert n_member > 0
    # non-members must agree on False as well
    checked = 0
    for _ in range(60):
        q = NevFun.of(Fraction(rng.randint(-3, 3)), 0,
                      [(rng.randint(-4, 4), 1)])
        s = random_interlacing_simple(rng, max_degree=3)
        forms = productinNg_forms(q, s)
        assert len(set(forms)) == 1, (q, s, forms)
        checked += 1
    assert checked == 60


def test_chain_invariant_holds_without_assert(monkeypatch):
    monkeypatch.setattr(cl, "_chain_build",
                        lambda q, r: ([RatFun.from_points([2], [1])], [q]))
    with pytest.raises(InvariantViolation):
        chain_factorize(WORKED_Q, WORKED_R)


def test_a_negative_leftover_constant_is_a_defect(monkeypatch):
    """-1/z times z: one arc and one factor, z; its sign flipped, the
    constant left over is -1."""
    factors = cl._interval_factors
    monkeypatch.setattr(cl, "_interval_factors",
                        lambda *args: [-f for f in factors(*args)])
    monkeypatch.setattr(cl, "_certify_chain", lambda q, fs: [q] * len(fs))
    with pytest.raises(InvariantViolation,
                       match="^negative leftover constant$"):
        chain_factorize(MINUS_INV, Z)


def _clear_certificates():
    """Empty the certificate memo, as in a fresh process."""
    check_N00.cache_clear()


def _count_extractions(monkeypatch) -> list:
    """The RatFuns passed to nevfun_from_ratfun from now on, through any
    nevkit module's binding of it."""
    calls = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if ((name == "nevkit" or name.startswith("nevkit."))
                and hasattr(mod, "nevfun_from_ratfun")):
            monkeypatch.setattr(mod, "nevfun_from_ratfun",
                                lambda f: calls.append(f)
                                or nevfun_from_ratfun(f))
    return calls


@lru_cache(maxsize=1)
def _criterion5_corpus() -> tuple:
    """The criterion-5 corpus at the chain workload's 60-second size, 306
    pairs, the worked pair first, as JSON so that every parse gives fresh
    objects; drawn once, as its draws are the slow part."""
    pairs = [(WORKED_Q, WORKED_R)]
    rng = random.Random(1005)
    while len(pairs) < 306:
        q, r = random_plain_pair(rng)
        _zs, ps = enumerate_zeros_poles(r)
        if ps and q.kac_membership(ps[0]):
            pairs.append((q, r))
    return tuple((ser.nevfun_to_json(q), ser.ratfun_to_json(r))
                 for q, r in pairs)


def _criterion5_pairs(n: int) -> list:
    """The first n pairs of the criterion-5 corpus, n <= 306."""
    return list(_criterion5_corpus()[:n])


def test_chain_factors_depend_only_on_values(monkeypatch):
    qj, rj = _criterion5_pairs(7)[6]
    from_irrational, anchors = [], []

    def recording(fn):
        def wrapper(*points):
            out = fn(*points)
            if any(isinstance(p, RealAlg) for p in points):
                from_irrational.append(out)
            return out
        return wrapper
    for name in ("rational_between", "rational_outside"):
        monkeypatch.setattr(cl, name, recording(getattr(cl, name)))
    anchor = cl._positive_anchor
    monkeypatch.setattr(cl, "_positive_anchor",
                        lambda *a: anchors.append(anchor(*a)) or anchors[-1])

    def factors(refine=False):
        _clear_certificates()
        q, r = ser.nevfun_from_json(qj), ser.ratfun_from_json(rj)
        if refine:
            for f in (r, q.to_ratfun()):
                for x, _m in f.real_zeros + f.real_poles:
                    if isinstance(x, RealAlg):
                        x.floor_div(Fraction(1, 2**200))
        return chain_factorize(q, r).factors

    base = factors()
    # the premise: the anchor is a rational placed next to an irrational point
    flat = [x for out in from_irrational
            for x in (out if isinstance(out, tuple) else (out,))]
    assert any(a in flat for a in anchors)
    assert factors(refine=True) == base


def test_plain_pair_is_analysed_once_per_value(monkeypatch):
    calls = []
    canonical = cl.canonical_pair
    monkeypatch.setattr(cl, "canonical_pair",
                        lambda f: calls.append(f) or canonical(f))
    qj, rj = ser.nevfun_to_json(WORKED_Q), ser.ratfun_to_json(WORKED_R)

    def fresh():
        return ser.nevfun_from_json(qj), ser.ratfun_from_json(rj)
    _clear_certificates()
    assert check_N00(*fresh()).ok
    chain_factorize(*fresh())
    kac_closure(*fresh())
    q, r = fresh()
    transform_model(minimal_model(q, enumerate_zeros_poles(r)[1][0]), r, q)
    assert calls == [WORKED_R * WORKED_Q.to_ratfun()]


def test_plain_pair_cross_check_is_not_memoised(monkeypatch):
    class Wrong:
        kappa = 1
    monkeypatch.setattr(cl, "canonical_pair", lambda f: Wrong)
    _clear_certificates()
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="disagrees"):
            check_N00(WORKED_Q, WORKED_R)
    assert check_N00.cache_info().currsize == 0


def test_results_equal_with_cold_and_warm_certificates():
    def outputs(qj, rj):
        q, r = ser.nevfun_from_json(qj), ser.ratfun_from_json(rj)
        chain = chain_factorize(q, r)
        kac = kac_closure(q, r)
        kac = [[(ser.point_to_json(p), ok) for p, ok in side]
               for side in (kac.at_poles, kac.at_zeros)]
        m = minimal_model(q, enumerate_zeros_poles(r)[1][0])
        rep = transform_model(m, r, q)
        return (chain.factors, chain.partial_certificates, kac,
                rep.model_out, rep.zetas, rep.case)

    pairs = _criterion5_pairs(10)
    cold = []
    for qj, rj in pairs:
        _clear_certificates()
        cold.append(outputs(qj, rj))
    warm = [outputs(qj, rj) for qj, rj in pairs]
    assert check_N00.cache_info().hits >= len(pairs)
    assert warm == cold


# -- closed-form degree-one steps ----------------------------------------------------


def _value_sign(s: RatFun, x) -> int:
    """The sign of s at x by exact evaluation, for an s whose zeros and
    poles are rational: at an irrational x, at the midpoint of its box once
    the box holds none of them.  Raises PoleHit at a pole."""
    if isinstance(x, RealAlg):
        for c, _e in s.critical_points():
            x.cmp_rat(c)                # splits the box at c if inside it
        x = sum(x.box) / 2
    v = s.eval_q(x)
    return (v > 0) - (v < 0)


def _negative_by_value(s: RatFun, points) -> list:
    """The points at which s is strictly negative, by evaluation."""
    out = []
    for x in points:
        try:
            if _value_sign(s, x) < 0:
                out.append(x)
        except PoleHit:
            pass
    return out


def _zero_type_mult(order: int, lead_sign: int) -> int:
    """The type multiplicity of a zero of the given order (>= 0) with the
    given leading sign; a pole carries that of a zero of its order with the
    opposite sign.  The reference rule, kept apart from gnev's signed one."""
    if order <= 0:
        return 0
    if order % 2 == 0:
        return order // 2
    return (order + 1) // 2 if lead_sign < 0 else (order - 1) // 2


def _extraction_step(s: RatFun, q: NevFun):
    """Reference for one product step: psi from the type multiplicities of
    the RatFun s*q and the negative set of s, found by evaluation, and
    q_next by exact extraction of s*q/psi."""
    q_rat = q.to_ratfun()
    g_rat = s * q_rat
    psi_num = psi_den = Poly.const(1)
    for a, _m in s.real_zeros:
        pi = _zero_type_mult(max(g_rat.ord_at(a), 0),
                             g_rat.laurent_lead_sign(a))
        psi_num = psi_num * Poly([-a, 1]) ** (2 * pi)
    for b, _m in s.real_poles:
        ka = _zero_type_mult(max(-g_rat.ord_at(b), 0),
                             -g_rat.laurent_lead_sign(b))
        psi_den = psi_den * Poly([-b, 1]) ** (2 * ka)
    for a in _negative_by_value(s, _zero_points(q)):
        if isinstance(a, RealAlg):
            raise ExactSplitUnavailable(
                "irrational zero inside the negative set of the factor")
        psi_num = psi_num * Poly([-a, 1]) ** 2
    for t in _negative_by_value(s, q.sigma.positions):
        psi_den = psi_den * Poly([-t, 1]) ** 2
    psi = RatFun(psi_num, psi_den)
    return psi, nevfun_from_ratfun(g_rat / psi)


def _outcome(step, s, q):
    try:
        return step(s, q)
    except NevkitError as exc:
        return type(exc), str(exc)


def _steps_agree(g: GenNevFun, r: RatFun) -> tuple[int, bool]:
    """Walk the degree-one steps of product_factorization(g, r), comparing
    each closed-form step with the reference: (steps compared, whether all
    steps succeeded)."""
    try:
        s0 = canonical_rational(r)[1]
        factors = [] if s0.is_constant else interlacing_factorize(s0)
    except NevkitError:
        return 0, False
    q = g.q0
    for i, s in enumerate(factors):
        got = _outcome(_degree_one_step, s, q)
        assert got == _outcome(_extraction_step, s, q), (s, q)
        if not isinstance(got[1], NevFun):
            return i + 1, False
        q = got[1]
    return len(factors), True


def test_closed_form_steps_match_extraction_on_the_member_corpus():
    rng = random.Random(1002)          # the corpus of acceptance criterion 2
    steps, members = 0, 0
    for _ in range(246):
        n, ok = _steps_agree(random_gennev(rng, 6),
                             random_symmetric_ratfun(rng, 4))
        steps, members = steps + n, members + ok
    assert members >= 100 and steps >= 104


def test_closed_form_steps_match_extraction_on_random_draws():
    rng = random.Random(4242)
    steps = 0
    for _ in range(500):
        steps += _steps_agree(random_gennev(rng, 6),
                              random_symmetric_ratfun(rng, 4))[0]
    assert steps >= 500


Q_IRR = NevFun.of(0, 1, [(0, 2)])          # z - 2/z, zeros +-sqrt(2)


@pytest.mark.parametrize("q, s", [
    # the zero of s at an atom of q
    (NevFun.of(0, 0, [(1, 1)]), RatFun.from_points([1], [3])),
    # the pole of s at a zero of q
    (NevFun.of(0, 1), RatFun.from_points([2], [0])),
    # the pole of s at an atom of q
    (NevFun.of(0, 0, [(1, 1), (4, 2)]), RatFun.from_points([3], [1])),
    # beta > 0 with s = gamma (z - a), either sign of gamma
    (NevFun.of(1, 2, [(-1, 1)]), RatFun.from_points([3], [], 2)),
    (NevFun.of(1, 2, [(-1, 1)]), RatFun.from_points([-3], [], -1)),
    # gamma < 0: the negative set wraps through infinity
    (NevFun.of(0, 0, [(-1, 1), (3, 1)]), RatFun.from_points([1], [2], -1)),
    # a rational zero of q inside the negative set (z - 1/z, zeros +-1)
    (NevFun.of(0, 1, [(0, 1)]), RatFun.from_points([Fraction(1, 2)], [2])),
    # an irrational zero inside the negative set
    (Q_IRR, RatFun.from_points([1], [2])),
])
def test_closed_form_step_cases(q, s):
    got = _outcome(_degree_one_step, s, q)
    assert got == _outcome(_extraction_step, s, q)
    if q is Q_IRR:
        assert got == (ExactSplitUnavailable, "irrational zero inside the "
                       "negative set of the factor")


def test_closed_form_step_isolates_no_zero_outside_the_negative_set(
        monkeypatch):
    calls = _count_extractions(monkeypatch)
    s = RatFun.from_points([3], [4])       # negative on (3, 4)
    q = NevFun.of(0, 1, [(0, 2)])          # fresh: irrational zeros +-sqrt(2)
    seen = _record_analyses(monkeypatch)
    got = cl._degree_one_step(s, q)
    assert seen == []
    assert calls == []
    assert got == _extraction_step(s, q)


STEP_WITH_WRONG_PSI = """
import nevkit.classify as cl
from nevkit.errors import InvariantViolation
from nevkit.nevfun import NevFun
from nevkit.ratfun import RatFun
type_mult = cl._type_mult
cl._type_mult = lambda order, sign: type_mult(order, sign) + 1
for q in (NevFun.of(0, 1, [(0, 2)]), NevFun.of(0, 0, [(3, 1)]),
          NevFun.of(3, 1)):
    try:
        cl._degree_one_step(RatFun.from_points([3], [4]), q)
        print("accepted")
    except InvariantViolation:
        print("InvariantViolation")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_closed_form_step_rejects_a_wrong_psi(flags):
    env = child_env()
    out = subprocess.run([sys.executable, *flags, "-c", STEP_WITH_WRONG_PSI],
                         capture_output=True, text=True, env=env)
    assert out.stdout.split() == ["InvariantViolation"] * 3, out.stderr


def test_product_of_the_zero_function_is_rejected():
    with pytest.raises(InvalidInput, match="zero function"):
        product_factorization(GenNevFun.from_nevfun(NevFun.of(0, 0)), Z)


def test_chain_leaves_the_leading_zero_unpaired():
    # the fifth draw of random_plain_pair(random.Random(229), 6): the
    # negative arc through infinity holds a zero of the function and no
    # atom after it, so _interval_factors leaves that leading zero unpaired
    q = NevFun.of(4, Fraction(1, 2))                       # 4 + z/2
    r = RatFun(Poly([-28, 3, 1]), Poly([0, 64, 16, 1]))
    assert check_N00(q, r).ok
    chain = chain_factorize(q, r)
    assert list(chain.factors) == [
        RatFun.from_points([4], [0], Fraction(14, 81)),
        RatFun.from_points([], [-8], Fraction(9, 2)),
        RatFun.from_points([-7], [-8], Fraction(9, 7))]
    prod = RatFun.const(1)
    for f, cert in zip(chain.factors, chain.partial_certificates):
        prod = prod * f
        assert cert == nevfun_from_ratfun(prod * q.to_ratfun())
    assert prod == r


# -- the chain on the extended line ---------------------------------------------------


def _detour_chain_build(q: NevFun, r: RatFun):
    """The chain as it was built before it walked the extended line, kept
    as the reference: when r's odd part is negative near infinity, the pair
    moves by tau = p - 1/lambda, where every negative set is bounded, is
    factored there, and each factor moves back by -1/(z - p) and is
    certified again."""
    s = cl._odd_part(r)
    if s.is_constant or not any(
            sgn < 0 and (lo is NEG_INF or hi is INF)
            for lo, hi, sgn in s.sign_on_interval()):
        return cl._chain_build(q, r)
    p = cl._positive_anchor(s, q, r)
    tau = RatFun.from_points([1 / p], [0], p) if p else \
        RatFun.from_points([], [0], -1)
    inner, _ = _detour_chain_build(_compose(q, tau), r.compose_mobius(tau))
    tinv = RatFun.from_points([], [p], -1)
    factors = [f.compose_mobius(tinv) for f in inner]
    return factors, cl._certify_chain(q, factors)


# plain pairs whose negative arcs through infinity the draws rarely or
# never give: q(inf) = 0 inside an arc through infinity (q = -1/z), an atom
# at infinity inside one (q = z), an arc to infinity (q = -1/z) and one
# from it (q = 1/(2 - z))
EXTENDED_LINE_PAIRS = [
    (MINUS_INV, RatFun.from_points([0, 0, 2], [1], -1)),
    (NevFun.of(0, 1), RatFun.from_points([1], [0, 0, 2], -1)),
    (MINUS_INV, RatFun.from_points([1], [], -1)),
    (NevFun.from_partial_fractions(0, 0, [(2, 1)]),
     RatFun.from_points([1], [])),
]


def test_chain_on_the_extended_line_matches_the_detour(monkeypatch):
    """The chain read off the negative arcs of the extended line equals,
    factor by factor and certificate by certificate, the one built through
    the change of variable, on the 306 criterion-5 pairs, a drawn stream
    and the pairs above.  Every factor but the first is 1 at the anchor:
    INF when no arc reaches it, and otherwise the rational point where the
    first factor is r."""
    anchors, arcs = [], []
    anchor, table = cl._positive_anchor, cl._interval_factors
    monkeypatch.setattr(cl, "_positive_anchor",
                        lambda *a: anchors.append(anchor(*a)) or anchors[-1])

    def recording(q, r, a, b, p):
        arcs.append((_arc_shape(a, b), q.to_ratfun().ord_at_inf()))
        return table(q, r, a, b, p)
    monkeypatch.setattr(cl, "_interval_factors", recording)
    pairs = [(ser.nevfun_from_json(qj), ser.ratfun_from_json(rj))
             for qj, rj in _criterion5_pairs(306)] + EXTENDED_LINE_PAIRS
    rng = random.Random(4242)
    pairs += [random_plain_pair(rng) for _ in range(100)]
    rng = random.Random(229)
    pairs += [random_plain_pair(rng, 6) for _ in range(30)]
    detours = 0
    for q, r in pairs:
        want = _outcome(_detour_chain_build, q, r)
        anchors.clear()
        got = _outcome(chain_factorize, q, r)
        assert isinstance(got, FactorChain), (q, r, got)
        assert repr(list(got.factors)) == repr(want[0])
        assert repr(list(got.partial_certificates)) == repr(want[1])
        first, *rest = got.factors
        if anchors:
            [p] = anchors
            detours += 1
            assert all(f.eval_q(p) == 1 for f in rest)
            assert first.eval_q(p) == r.eval_q(p)
        else:
            assert all(f.gamma == 1 for f in rest)
    # measured: 231 of the 440 pairs have an arc through infinity
    assert detours >= 231
    # the arcs through infinity: to it, from it, and through it with a
    # regular point, an atom and a zero of q there
    assert {shape for shape, _m in arcs} == {
        "bounded", "to inf", "from inf", "through inf"}
    assert {m for shape, m in arcs if shape == "through inf"} == {0, -1, 1}


# -- interval patterns read from the critical table -----------------------------------


def _flag_arc_entries(q: NevFun, a, b) -> list:
    """q's atoms and zeros inside the negative arc from a to b, as
    (point, "atom" | "zero") in the order read from a.  An arc with a > b
    runs through INF, where q has an atom when it grows at infinity and a
    zero when it vanishes there."""
    q_rat = q.to_ratfun()
    wraps = point_cmp(a, b) > 0

    def inside(t):
        if wraps:
            return point_cmp(t, a) > 0 or point_cmp(t, b) < 0
        return strictly_between(t, a, b)

    def after_a(entry):
        t = entry[0]
        return (1, 0) if t is INF else (2 if wraps and t < b else 0, t)
    atoms_in = [t for t in q.sigma.positions if inside(t)]
    zeros_in = [x for x, _m in q_rat.real_zeros if inside(x)]
    if not all(isinstance(t, Fraction) for t in zeros_in):
        raise ExactSplitUnavailable("irrational zero inside the interval")
    if wraps and q_rat.ord_at_inf() < 0:
        atoms_in.append(INF)
    if wraps and q_rat.ord_at_inf() > 0:
        zeros_in.append(INF)
    return sorted([(t, "atom") for t in atoms_in]
                  + [(t, "zero") for t in zeros_in], key=after_a)


def _flag_interval_factors(q: NevFun, r: RatFun, a, b, anchor):
    """The interval factors as they were chosen from merged atom and zero
    lists by two case flags, kept as the reference for the table reading.
    A factor leaves out a point at infinity and is divided by its value at
    a finite anchor."""
    def kind(p):
        e = r.ord_at_inf() if p is NEG_INF or p is INF else r.ord_at(p)
        return "zero" if e > 0 else ("pole" if e < 0 else None)

    def factor(x, y) -> RatFun:
        f = RatFun.from_points(*([t] if isinstance(t, Fraction) else []
                                 for t in (x, y)))
        return f if anchor is INF else f / f.eval_q(anchor)
    seq = _flag_arc_entries(q, a, b)
    for (x1, k1), (x2, k2) in zip(seq, seq[1:]):
        if k1 == k2:
            raise NotInClass("interior data does not alternate")
    alphas = [x for x, k in seq if k == "zero"]
    betas = [x for x, k in seq if k == "atom"]
    has_alpha0 = bool(seq) and seq[0][1] == "zero"
    has_beta_last = bool(seq) and seq[-1][1] == "atom"
    if has_alpha0 and has_beta_last:
        pair_iter = zip(betas, alphas)
    elif has_alpha0:
        pair_iter = zip(betas, alphas[1:])
    elif has_beta_last:
        pair_iter = zip(betas[:-1], alphas)
    else:
        pair_iter = zip(betas, alphas)
    tilde = [factor(beta, alpha) for beta, alpha in pair_iter]
    if not seq:
        if q.to_ratfun().sign_right_of(a) > 0:
            expect = ("pole", "zero")
            ends = [factor(b, a)]
        else:
            expect = ("zero", "pole")
            ends = [factor(a, b)]
    elif has_alpha0 and has_beta_last:
        expect = ("zero", "pole")
        ends = [factor(a, b)]
    elif has_alpha0:
        expect = ("zero", "zero")
        ends = [factor(a, alphas[0]), factor(b, alphas[0])]
    elif has_beta_last:
        expect = ("pole", "pole")
        ends = [factor(betas[-1], a), factor(betas[-1], b)]
    else:
        expect = ("pole", "zero")
        ends = [factor(b, a)]
    got = (kind(a), kind(b))
    if got != expect:
        raise NotInClass(f"endpoint kinds {got} do not match the interior "
                         f"pattern {expect}")
    return list(tilde) + ends + list(tilde)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NevkitError as e:
        return type(e), str(e)


def _arc_shape(a, b) -> str:
    if a is NEG_INF:
        return "from inf"
    if b is INF:
        return "to inf"
    return "through inf" if point_cmp(a, b) > 0 else "bounded"


def test_interval_factors_match_the_flag_reference(monkeypatch):
    table = cl._interval_factors
    patterns, shapes = set(), set()

    def checked(q, r, a, b, anchor):
        want = _outcome(_flag_interval_factors, q, r, a, b, anchor)
        try:
            got = table(q, r, a, b, anchor)
        except NevkitError as e:
            assert (type(e), str(e)) == want
            raise
        assert got == want
        entries = _flag_arc_entries(q, a, b)
        inside = [k for _t, k in entries]
        patterns.add(tuple(inside[:1] + inside[-1:])
                     or q.to_ratfun().sign_right_of(a))
        shapes.add((_arc_shape(a, b), any(t is INF for t, _k in entries)))
        return got
    monkeypatch.setattr(cl, "_interval_factors", checked)
    pairs = [(ser.nevfun_from_json(qj), ser.ratfun_from_json(rj))
             for qj, rj in _criterion5_pairs(51)] + EXTENDED_LINE_PAIRS
    for seed in (229, 1004):
        rng = random.Random(seed)
        pairs += [random_plain_pair(rng, 6) for _ in range(40)]
    for q, r in pairs:
        _outcome(chain_factorize, q, r)
    # empty with q > 0 and with q < 0, z...a, z...z and a...a
    assert patterns >= {1, -1, ("zero", "atom"), ("zero", "zero"),
                        ("atom", "atom")}
    # every arc shape, and INF inside an arc through it
    assert shapes >= {("bounded", False), ("from inf", False),
                      ("to inf", False), ("through inf", False),
                      ("through inf", True)}


# q on (0, 10) and r with the endpoint kinds that q's pattern asks for
Z_0_10 = RatFun.from_points([0, 10], [])
P_0_10 = RatFun.from_points([], [0, 10])


@pytest.mark.parametrize("q, r, factors", [
    # empty, q > 0: (pole, zero)
    (NevFun.of(1, 0), RatFun.from_points([10], [0]),
     [RatFun.from_points([10], [0])]),
    # empty, q < 0: (zero, pole)
    (NevFun.of(-1, 0), RatFun.from_points([0], [10]),
     [RatFun.from_points([0], [10])]),
    # z...a: -1/3 + 1/(5 - z) has its zero at 2
    (NevFun.from_partial_fractions(Fraction(-1, 3), 0, [(5, 1)]),
     RatFun.from_points([0], [10]),
     [RatFun.from_points([5], [2]), RatFun.from_points([0], [10]),
      RatFun.from_points([5], [2])]),
    # z...z: z - 5 + 9/(5 - z) = (z - 2)(z - 8)/(z - 5)
    (NevFun.from_partial_fractions(-5, 1, [(5, 9)]), Z_0_10,
     [RatFun.from_points([5], [8]), RatFun.from_points([0], [2]),
      RatFun.from_points([10], [2]), RatFun.from_points([5], [8])]),
    # a...a: 1/(2 - z) + 1/(8 - z) has its zero at 5
    (NevFun.from_partial_fractions(0, 0, [(2, 1), (8, 1)]), P_0_10,
     [RatFun.from_points([2], [5]), RatFun.from_points([8], [0]),
      RatFun.from_points([8], [10]), RatFun.from_points([2], [5])]),
    # a...z: 1/3 + 1/(2 - z) has its zero at 5
    (NevFun.from_partial_fractions(Fraction(1, 3), 0, [(2, 1)]),
     RatFun.from_points([10], [0]),
     [RatFun.from_points([2], [5]), RatFun.from_points([10], [0]),
      RatFun.from_points([2], [5])]),
])
def test_interval_patterns(q, r, factors):
    from nevkit.classify import _interval_factors
    a, b = Fraction(0), Fraction(10)
    assert _interval_factors(q, r, a, b, INF) == factors
    assert _flag_interval_factors(q, r, a, b, INF) == factors


@pytest.mark.parametrize("q, r, error", [
    # (z^2 - 2)/z has its zero sqrt 2 inside
    (NevFun.of(0, 1, [(0, 2)]), Z_0_10, ExactSplitUnavailable),
    # q > 0 asks for (pole, zero)
    (NevFun.of(1, 0), RatFun.from_points([0], [10]), NotInClass),
])
def test_interval_pattern_refusals(q, r, error):
    from nevkit.classify import _interval_factors
    a, b = Fraction(0), Fraction(10)
    got = _outcome(_interval_factors, q, r, a, b, INF)
    assert got == _outcome(_flag_interval_factors, q, r, a, b, INF)
    assert got[0] is error


# -- closed-form chain steps ------------------------------------------------------------


def test_chain_steps_match_extraction(monkeypatch):
    """Every closed-form chain step equals the exact extraction of its
    RatFun, and every partial certificate equals the extraction of its
    partial product.  The Moebius compositions that compose_gen makes,
    here with the maps tau = p - 1/lambda at the chains' anchors, equal
    the extraction of theirs."""
    import nevkit.gnev as gnev
    step, compose = cl._chain_step, gnev._compose
    seen = {"step": 0, "tau": 0}

    def checked_step(s, q):
        got = step(s, q)
        assert got == nevfun_from_ratfun(s * q.to_ratfun()), (s, q)
        seen["step"] += 1
        return got

    def checked_compose(q, tau):
        got = compose(q, tau)
        assert got == nevfun_from_ratfun(q.to_ratfun().compose_mobius(tau))
        seen["tau"] += 1
        return got
    monkeypatch.setattr(cl, "_chain_step", checked_step)
    monkeypatch.setattr(gnev, "_compose", checked_compose)
    pairs = [(ser.nevfun_from_json(qj), ser.ratfun_from_json(rj))
             for qj, rj in _criterion5_pairs(51)]
    rng = random.Random(4711)
    pairs += [random_plain_pair(rng) for _ in range(80)]
    for q, r in pairs:
        chain = chain_factorize(q, r)
        acc = q.to_ratfun()
        for f, cert in zip(chain.factors, chain.partial_certificates,
                           strict=True):
            acc = f * acc
            assert cert == nevfun_from_ratfun(acc)
    steps = seen["step"]
    for q, r in pairs:
        s = cl._odd_part(r)
        if not s.is_constant and (s.gamma < 0
                                  or s.sign_right_of(NEG_INF) < 0):
            p = cl._positive_anchor(s, q, r)
            tau = RatFun.from_points([1 / p], [0], p) if p else \
                RatFun.from_points([], [0], -1)
            gnev.compose_gen(GenNevFun.from_nevfun(q), tau)
    # measured: 249 chain steps (no compositions any more) and 63 maps
    assert steps >= 249 and seen["tau"] >= 60


@pytest.mark.parametrize("q, s, psi, pinned", [
    (NevFun.of(0, 0, [(1, 1)]), RatFun.from_points([1], [3]), None,
     None),                                                      # zero at atom
    (NevFun.of(0, 1), RatFun.from_points([-2], [0]), None,
     None),                                                      # pole at zero
    (NevFun.of(0, 0, [(1, 1)]), RatFun.from_points([2], [3]), None,
     None),                                                      # new atom
    (NevFun.of(0, 0, [(1, 1)]), RatFun.from_points([], [2], -1), None,
     None),                                                      # weight < 0
    (NevFun.of(0, 0, [(0, 1)]), RatFun.from_points([2], [0]), None,
     (NotNevanlinna, "multiple pole at 0")),                     # atom at pole
    (NevFun.of(1, 2, [(-1, 1)]), RatFun.from_points([3], []), None,
     None),                                                      # growth z^2
    # product steps: psi at an atom of q where s < 0
    (NevFun.of(0, 0, [(0, 1)]), RatFun.from_points([-2], [-1], -1),
     {0: -2}, None),
    # ... and at the zero of s, where s q has a double zero
    (NevFun.of(0, 0, [(1, 1)]), RatFun.from_points([3], [-1]),
     {1: -2, 3: 2}, None),
    # ... and at the pole of s and at a zero of q where s < 0
    (NevFun.of(1, 0, [(2, 2)]), RatFun.from_points([1], [-2], -1),
     {2: -2, 1: 2, -2: -2, 12: 2}, None),
    # psi at a point where s q is regular leaves a double pole there
    (NevFun.of(0, 1), RatFun.from_points([1], [2]), {5: 2},
     (NotNevanlinna, "multiple pole at 5")),
], ids=[f"q{i}-s{i}" for i in range(10)])
def test_chain_step_cases(q, s, psi, pinned):
    from nevkit.nevfun import _chain_step
    psi = psi and {Fraction(y): e for y, e in psi.items()}
    items = (psi or {}).items()
    psi_f = RatFun.from_points([y for y, e in items for _ in range(e)],
                               [y for y, e in items for _ in range(-e)])
    want = _outcome(nevfun_from_ratfun, s * q.to_ratfun() / psi_f)
    got = _outcome(_chain_step, s, q, psi)
    assert got == want if isinstance(want, NevFun) else got[0] is want[0]
    assert pinned is None or got == pinned


@pytest.mark.parametrize("q, p", [
    (NevFun.of(1, 2, [(-1, 1), (3, 2)]), Fraction(3)),       # beta, atom at p
    (NevFun.of(0, 0, [(Fraction(1, 2), 5)]), Fraction(1, 2)),  # only atom at p
    (NevFun.of(-2, Fraction(1, 3)), Fraction(-4)),            # no atoms
    (NevFun.of(5, 0), Fraction(1)),                           # a constant
])
def test_closed_form_composition_cases(q, p):
    from nevkit.nevfun import _compose
    tau = RatFun(Poly([-1, p]), Poly([0, 1]))
    got = _compose(q, tau)
    assert got == nevfun_from_ratfun(q.to_ratfun().compose_mobius(tau))
    assert got.beta == q.sigma.weight_at(p)
    assert got.sigma.weight_at(0) == q.beta


@settings(max_examples=80, deadline=None)
@given(nevfuns(4), rationals(8, 3), st.booleans())
def test_closed_form_composition_matches_extraction(q, p, at_atom):
    from nevkit.nevfun import _compose
    if at_atom and len(q.sigma):
        p = q.sigma.positions[-1]
    tau = RatFun(Poly([-1, p]), Poly([0, 1]))
    assert _compose(q, tau) == \
        nevfun_from_ratfun(q.to_ratfun().compose_mobius(tau))


def _herglotz_tau(c, v, s, affine: bool) -> RatFun:
    """c + v z, or c + v/(s - z)."""
    if affine:
        return RatFun(Poly([c, v]), Poly.const(1))
    return RatFun.const(c) + RatFun(Poly.const(v), Poly([s, -1]))


@pytest.mark.parametrize("q, c, v, s, affine", [
    (NevFun.of(1, 2, [(-1, 1), (3, 2)]), Fraction(3), Fraction(1, 2), 0,
     True),                                                   # c at an atom
    (NevFun.of(0, 0, [(2, 3)]), Fraction(-1), Fraction(3), 0, True),
    (NevFun.of(1, 2, [(-1, 1), (3, 2)]), Fraction(3), Fraction(2),
     Fraction(1, 2), False),                        # beta, c at an atom
    (NevFun.of(0, 0, [(Fraction(1, 2), 5)]), Fraction(1, 2), Fraction(1, 3),
     Fraction(-4), False),                          # only atom at c
    (NevFun.of(-2, Fraction(1, 3)), Fraction(1), Fraction(5), Fraction(2),
     False),                                        # no atoms
    (NevFun.of(5, 0), Fraction(1), Fraction(1), Fraction(7), False),
])
def test_general_composition_cases(q, c, v, s, affine):
    from nevkit.nevfun import _compose
    tau = _herglotz_tau(c, v, s, affine)
    got = _compose(q, tau)
    assert got == nevfun_from_ratfun(q.to_ratfun().compose_mobius(tau))
    if affine:
        assert got.beta == q.beta * v
        assert got.sigma.positions == [(t - c) / v for t in q.sigma.positions]
    else:
        assert got.beta == q.sigma.weight_at(c) / v
        assert got.sigma.weight_at(s) == q.beta * v


@settings(max_examples=100, deadline=None)
@given(nevfuns(4), rationals(8, 3), rationals(8, 3),
       st.builds(Fraction, st.integers(1, 9), st.integers(1, 3)),
       st.booleans(), st.booleans())
def test_general_composition_matches_extraction(q, c, s, v, affine, at_atom):
    from nevkit.nevfun import _compose
    if at_atom and len(q.sigma):
        c = q.sigma.positions[0]
    tau = _herglotz_tau(c, v, s, affine)
    assert _compose(q, tau) == \
        nevfun_from_ratfun(q.to_ratfun().compose_mobius(tau))


def test_chain_extracts_nothing_and_closure_hits_the_pair_certificate(
        monkeypatch):
    """With the memo cleared, check_N00 extracts r q once, as its canonical
    pair, and carries it in its report; after it chain_factorize,
    kac_closure and transform_model call nevfun_from_ratfun no more."""
    calls = _count_extractions(monkeypatch)
    for qj, rj in _criterion5_pairs(51):
        _clear_certificates()
        q, r = ser.nevfun_from_json(qj), ser.ratfun_from_json(rj)
        rep = check_N00(q, r)
        assert rep.ok and len(calls) == 1
        assert rep.product == nevfun_from_ratfun(r * q.to_ratfun())
        chain_factorize(q, r)
        kac_closure(q, r)
        transform_model(minimal_model(q, enumerate_zeros_poles(r)[1][0]), r, q)
        assert len(calls) == 1
        calls.clear()


def test_kac_closure_refuses_irrational_poles_of_the_product():
    q = NevFun.of(0, 1)
    r = RatFun(Poly.const(-2), Poly([-2, 0, 1]))    # r q = -2z/(z^2 - 2)
    rep = check_N00(q, r)
    assert rep.ok and rep.kappa_tilde is None and rep.product is None
    with pytest.raises(NotRationalAtoms, match="^pole is not rational$"):
        kac_closure(q, r)


def _record_analyses(monkeypatch) -> list:
    """The polynomials given to real_root_structure from now on."""
    import nevkit.ratfun
    seen = []
    analysis = nevkit.ratfun.real_root_structure
    monkeypatch.setattr(nevkit.ratfun, "real_root_structure",
                        lambda p: seen.append(p) or analysis(p))
    return seen


def test_chain_items_analyse_only_their_input(monkeypatch):
    """The 51 criterion-5 pairs through the calls of the chain verb, from
    empty memos: only the multipliers' polynomials are analysed, each once
    per item.  Every derived function gets its tables by merging, and every
    chain factor is built from its zero and pole."""
    pairs = [(ser.nevfun_from_json(q), ser.ratfun_from_json(r))
             for q, r in _criterion5_pairs(51)]
    _clear_certificates()
    seen = _record_analyses(monkeypatch)
    for q, r in pairs:
        assert check_N00(q, r).ok
        chain_factorize(q, r)
        kac_closure(q, r)
        _zs, ps = enumerate_zeros_poles(r)
        m_in = minimal_model(q, ps[0])
        assert model_spectral_check(m_in, transform_model(m_in, r, q)
                                    .model_out, r)
    inputs = {p for _q, r in pairs for p in (r.num, r.den)}
    assert set(seen) <= inputs
    assert len(seen) == 2 * len(pairs)


def test_product_members_analyse_few_derived_polynomials(monkeypatch):
    """The 100 members of the product corpus (seed 1002) through
    product_factorization, from empty memos: every function derived from r
    and phi (psi_r and s0 = r/psi_r, each squared factor psi, acc_phi)
    merges or seeds its tables, conjugate-pair blocks included, so no
    polynomial besides those of r and phi is analysed (94 when a block made
    the merge fall back, 154 when psi was also reduced by a gcd), and the
    gcd constructor RatFun(num, den) is never called."""
    rng = random.Random(1002)
    members = [random_member_pair(rng, max_atoms=6, max_degree=4)
               for _ in range(100)]
    pairs = [(ser.gennev_from_json(ser.gennev_to_json(g)),
              ser.ratfun_from_json(ser.ratfun_to_json(r)))
             for g, r in members]
    _clear_certificates()
    seen = _record_analyses(monkeypatch)
    reduced = []
    init = RatFun.__init__
    monkeypatch.setattr(RatFun, "__init__",
                        lambda f, num, den: reduced.append(num) or
                        init(f, num, den))
    for g, r in pairs:
        product_factorization(g, r)
    inputs = {p for g, r in pairs for p in (r.num, r.den, g.phi.num,
                                            g.phi.den)}
    assert sum(p not in inputs for p in seen) == 0
    assert len(reduced) == 0


# The draws of the product corpus (seed 1002) whose multiplier has a
# negative constant as its Nevanlinna part, so that the product is factored
# whole: five members, and ten refusals by ExactSplitUnavailable.
BRANCH_MEMBERS = (56, 108, 130, 171, 178)
BRANCH_REFUSALS = (2, 34, 50, 60, 71, 75, 118, 188, 198, 218)


def test_negative_constant_branch_analyses_no_derived_polynomial(
        monkeypatch):
    """The 15 draws of the product corpus (seed 1002) that take the branch
    where the multiplier's Nevanlinna part is a negative constant and the
    product is factored whole, by canonical_pair(r g): its tables, and
    those of its canonical factor and quotient, are merged or seeded,
    conjugate-pair blocks included, so only the input polynomials are
    analysed, whether the product is factored or refused."""
    rng = random.Random(1002)
    draws = [(ser.gennev_to_json(random_gennev(rng, 6)),
              ser.ratfun_to_json(random_symmetric_ratfun(rng, 4)))
             for _ in range(max(BRANCH_REFUSALS) + 1)]
    whole = []
    monkeypatch.setattr(cl, "canonical_pair",
                        lambda f: whole.append(f) or canonical_pair(f))
    seen = _record_analyses(monkeypatch)
    for i in sorted(BRANCH_MEMBERS + BRANCH_REFUSALS):
        g, r = ser.gennev_from_json(draws[i][0]), ser.ratfun_from_json(
            draws[i][1])
        whole.clear()
        seen.clear()
        if i in BRANCH_REFUSALS:
            with pytest.raises(ExactSplitUnavailable):
                product_factorization(g, r)
        else:
            w = product_factorization(g, r)
            for z in UHP_POINTS:
                assert w.evaluate(z) == r.eval_qc(z) * g.evaluate(z)
        assert len(whole) == 1
        assert set(seen) <= {r.num, r.den, g.phi.num, g.phi.den}


def test_irrational_double_points_fail_their_clauses():
    """A double zero or pole of r at +-sqrt(2), where q has no atom: the
    clauses fail there, and no irrational point reaches an evaluation."""
    q = NevFun.of(0, 1, [(1, 1)])
    s2, lin = Poly([-2, 0, 1]) ** 2, Poly([-1, 1])
    for r, kind in ((RatFun(lin, s2), "pole"), (RatFun(s2, lin), "zero")):
        other = "zero" if kind == "pole" else "pole"
        rep = check_N00(q, r)
        assert not rep.ok and rep.kappa_tilde is None
        hits = [p for clause, p, why in rep.failures
                if why == f"double {kind} is not an isolated {other}"]
        assert len(hits) == 2 and all(isinstance(p, RealAlg) for p in hits)


# -- clause (ii) of the plain-pair test ---------------------------------------------


@pytest.mark.parametrize("q, r, text", [
    # (z^2 + 1)/z has a conjugate pair of zeros
    (NevFun.of(0, 1), RatFun(Poly([1, 0, 1]), Poly([0, 1])),
     "ii: nonreal zero or pole"),
    (NevFun.of(0, 1), RatFun(Poly([0, 0, 0, 1]), Poly.const(1)),
     "ii at 0: order 3 > 2"),
    # 1 - 1/z vanishes at 1, where z^2/(z^2 - 2) is negative
    (NevFun.of(1, 0, [(0, 1)]), RatFun(Poly([0, 0, 1]), Poly([-2, 0, 1])),
     "i at 1: function vanishes where multiplier is negative; "
     "ii(b) at ~1.41421: pole-side limit sign"),
])
def test_clause_ii_failures_are_described(q, r, text):
    rep = check_N00(q, r)
    assert not rep.ok and rep.product is None
    assert rep.describe() == text
    with pytest.raises(NotInClass, match="plain-pair test"):
        chain_factorize(q, r)


@pytest.mark.parametrize("q, r", [
    (SHIFT_INV, Z),                                    # clause (i) at -1
    (NevFun.of(0, 1), RatFun(Poly([1, 0, 1]), Poly([0, 1]))),  # clause (ii)
])
def test_every_plain_pair_call_refuses_a_failed_pair_alike(q, r):
    """The chain, the Kac closure and the model transfer refuse a failed
    pair with one error that names the failed clauses."""
    text = f"pair fails the plain-pair test: {check_N00(q, r).describe()}"
    model = minimal_model(q, 5)
    for call in (lambda: chain_factorize(q, r), lambda: kac_closure(q, r),
                 lambda: transform_model(model, r, q)):
        with pytest.raises(NotInClass) as exc:
            call()
        assert str(exc.value) == text


def test_double_pole_on_an_irrational_zero_is_plain():
    """q = z - 2/z vanishes at +-sqrt(2), the double poles of r =
    -z^2/(z^2 - 2)^2, and r q = -z/(z^2 - 2) is a Nevanlinna function with
    irrational atoms: the pair is plain, and the index of r q is not
    computable over Q."""
    q = NevFun.of(0, 1, [(0, 2)])
    r = RatFun(Poly([0, 0, -1]), Poly([-2, 0, 1]) ** 2)
    assert is_nevanlinna(r * q.to_ratfun())
    rep = check_N00(q, r)
    assert rep.ok and rep.failures == ()
    assert rep.kappa_tilde is None and rep.product is None
    with pytest.raises(ExactSplitUnavailable, match="irrational double pole"):
        chain_factorize(q, r)


# -- the all-even chain, built from the function's critical table ------------------


def _candidate_search(q: NevFun, r: RatFun):
    """The all-even chain as it was found by search: every candidate layout
    of r's points, multiplied back and certified in turn, the first that
    passes kept.  The reference for the one layout built from q's table."""
    import math
    gamma = r.gamma
    pts = []
    for recs, kind, what in ((r.real_zeros, "atom", "zero"),
                             (r.real_poles, "zero", "pole")):
        for x, _m in recs:
            if not isinstance(x, Fraction):
                raise ExactSplitUnavailable(f"irrational double {what}")
            pts.append((x, kind))
    pts.sort()
    for (x1, k1), (x2, k2) in zip(pts, pts[1:]):
        if k1 == k2:
            raise NotInClass("degenerate layout does not alternate")
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


def _all_even_pairs(rng: random.Random, n: int) -> list:
    """n plain pairs (q, r) with r = gamma prod (z - atom)^2 / prod
    (z - zero)^2 over q's atoms and finite zeros, gamma < 0: q is built
    from 1 to 7 alternating rational points, either kind first, with the
    sign that makes it Nevanlinna."""
    grid = sorted({Fraction(k, d) for k in range(-12, 13) for d in (1, 2, 3)})
    out = []
    while len(out) < n:
        pts = sorted(rng.sample(grid, rng.randint(1, 7)))
        first = rng.randrange(2)
        atoms = pts[first::2]
        zeros = pts[1 - first::2]
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        try:
            q = nevfun_from_ratfun(RatFun.from_points(zeros, atoms, c))
        except NotNevanlinna:
            q = nevfun_from_ratfun(RatFun.from_points(zeros, atoms, -c))
        gamma = -Fraction(rng.randint(1, 9), rng.randint(1, 4))
        out.append((q, RatFun.from_points(atoms * 2, zeros * 2, gamma)))
    return out


def test_all_even_chain_matches_the_candidate_search():
    q1 = nevfun_from_ratfun(RatFun(Poly([0, -2]), Poly([-1, 1])))
    r1 = RatFun(Poly([-1, 2, -1]), Poly([0, 0, 1]))
    q2, r2 = NevFun.of(0, 1), RatFun(Poly.const(-3), Poly([0, 0, 1]))
    pairs = [(q1, r1), (q2, r2)] + _all_even_pairs(random.Random(2401), 600)
    shapes = set()
    for q, r in pairs:
        assert check_N00(q, r).ok
        factors, certs = _candidate_search(q, r)
        chain = chain_factorize(q, r)
        assert list(chain.factors) == factors
        assert list(chain.partial_certificates) == certs
        assert repr(chain) == repr(FactorChain(tuple(factors), tuple(certs)))
        crit = q.to_ratfun().critical_points()
        shapes.add((len(crit) % 2, crit[-1][1], q.beta > 0))
    # even and odd counts, a last atom (order -1) and a last zero (order
    # 1); an odd count ending in a zero starts with one too, so beta > 0
    assert shapes == {(0, -1, False), (0, 1, False),
                      (1, -1, False), (1, 1, True)}


def test_all_even_chain_failing_its_certificate_is_a_defect(monkeypatch):
    def refuse(q, factors):
        raise NotNevanlinna("forced")
    monkeypatch.setattr(cl, "_certify_chain", refuse)
    q = NevFun.of(0, 1)
    r = RatFun(Poly.const(-3), Poly([0, 0, 1]))
    with pytest.raises(InvariantViolation, match="does not certify: forced"):
        chain_factorize(q, r)
