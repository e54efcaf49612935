import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env, nevfuns, rationals
from nevkit.classify import (chain_factorize, check_N00,
                             interlacing_factorize, kac_closure, membership,
                             negative_closed_pieces, pieces_disjoint,
                             product_factorization, productinNg_forms,
                             _certify_chain, _degree_one_step, _negative_at,
                             _zero_points)
from nevkit.corpus import (random_gennev, random_interlacing_simple,
                           random_member_pair, random_plain_pair,
                           random_symmetric_ratfun, structured_plain_pair)
from nevkit import serialize as ser
from nevkit.errors import (ExactSplitUnavailable, InvalidInput,
                           InvariantViolation, NevkitError, NotInClass,
                           NotInterlacing, NotNevanlinna, NotRationalAtoms)
from nevkit.gnev import (GenNevFun, _pole_type_mult, _zero_type_mult,
                         canonical_pair, canonical_rational)
from nevkit.nevfun import NevFun, nevfun_from_ratfun
from nevkit.oracle import negative_squares
from nevkit.poly import Poly, RealAlg, real_root_structure
from nevkit.qmath import INF, QC
from nevkit.ratfun import RatFun, strictly_between
from nevkit.realize import (enumerate_zeros_poles, minimal_model,
                            transform_model)

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
    assert rep.member and rep.kappa == 0 and rep.kappa_tilde == 0
    assert rep.witness.to_ratfun() == RatFun.const(-1)

    rep2 = membership(GenNevFun.from_nevfun(SHIFT_INV), Z)
    assert rep2.member and rep2.kappa_tilde == 1
    assert rep2.exceptional_atoms == (Fraction(-1),)

    rep3 = membership(GenNevFun.from_nevfun(NevFun.of(0, 1)), Z)
    assert rep3.member and rep3.kappa_tilde == 1


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
        try:
            forms = productinNg_forms(q, s)
        except Exception:
            continue
        assert len(set(forms)) == 1, (q, s, forms)
        checked += 1
    assert checked > 10


def test_chain_invariant_holds_without_assert(monkeypatch):
    import nevkit.classify as cl
    monkeypatch.setattr(cl, "_chain_build",
                        lambda q, r: ([RatFun.from_points([2], [1])], [q]))
    with pytest.raises(InvariantViolation):
        chain_factorize(WORKED_Q, WORKED_R)


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


def _criterion5_pairs(n: int):
    """The first n pairs of the criterion-5 corpus, the worked pair first,
    as JSON so that every parse gives fresh objects."""
    pairs = [(WORKED_Q, WORKED_R)]
    rng = random.Random(1005)
    while len(pairs) < n:
        q, r = random_plain_pair(rng)
        _zs, ps = enumerate_zeros_poles(r)
        if ps and q.kac_membership(ps[0]):
            pairs.append((q, r))
    return [(ser.nevfun_to_json(q), ser.ratfun_to_json(r)) for q, r in pairs]


def test_chain_factors_depend_only_on_values(monkeypatch):
    import nevkit.classify as cl
    import nevkit.poly as poly
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
        monkeypatch.setattr(poly, name, recording(getattr(poly, name)))
    anchor = cl._positive_anchor
    monkeypatch.setattr(cl, "_positive_anchor",
                        lambda *a: anchors.append(anchor(*a)) or anchors[-1])

    def factors(refine=False):
        real_root_structure.cache_clear()
        _clear_certificates()
        q, r = ser.nevfun_from_json(qj), ser.ratfun_from_json(rj)
        if refine:
            for f in (r, q.to_ratfun()):
                for rec in f.real_zeros + f.real_poles:
                    if isinstance(rec.point, RealAlg):
                        rec.point.floor_div(Fraction(1, 2**200))
        return chain_factorize(q, r).factors

    base = factors()
    # the premise: the anchor is a rational placed next to an irrational point
    flat = [x for out in from_irrational
            for x in (out if isinstance(out, tuple) else (out,))]
    assert any(a in flat for a in anchors)
    assert factors(refine=True) == base


def test_plain_pair_is_analysed_once_per_value(monkeypatch):
    import nevkit.classify as cl
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
    import nevkit.classify as cl

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


def _extraction_step(s: RatFun, q: NevFun):
    """Reference for one product step: psi from the type multiplicities of
    the RatFun s*q and the negative set of s, and q_next by exact
    extraction of s*q/psi."""
    q_rat = q.to_ratfun()
    g_rat = s * q_rat
    psi_num = psi_den = Poly.const(1)
    for rec in s.real_zeros:
        a = rec.point
        pi = _zero_type_mult(max(g_rat.ord_at(a), 0),
                             g_rat.laurent_lead_sign(a))
        psi_num = psi_num * Poly([-a, 1]) ** (2 * pi)
    for rec in s.real_poles:
        b = rec.point
        ka = _pole_type_mult(max(-g_rat.ord_at(b), 0),
                             g_rat.laurent_lead_sign(b))
        psi_den = psi_den * Poly([-b, 1]) ** (2 * ka)
    for a in _negative_at(s, _zero_points(q)):
        if isinstance(a, RealAlg):
            raise ExactSplitUnavailable(
                "irrational zero inside the negative set of the factor")
        psi_num = psi_num * Poly([-a, 1]) ** 2
    for t in _negative_at(s, q.sigma.positions):
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
    import nevkit.classify as cl
    calls = _count_extractions(monkeypatch)
    s = RatFun.from_points([3], [4])       # negative on (3, 4)
    q = NevFun.of(0, 1, [(0, 2)])          # fresh: irrational zeros +-sqrt(2)
    real_root_structure.cache_clear()
    got = cl._degree_one_step(s, q)
    assert real_root_structure.cache_info().misses == 0
    assert calls == []
    assert got == _extraction_step(s, q)


STEP_WITH_WRONG_PSI = """
import nevkit.classify as cl
from nevkit.errors import InvariantViolation
from nevkit.nevfun import NevFun
from nevkit.ratfun import RatFun
zero_type_mult = cl._zero_type_mult
cl._zero_type_mult = lambda order, lead: zero_type_mult(order, lead) + 1
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
    # the fifth draw of random_plain_pair(random.Random(229), 6): after the
    # change of variable for the unbounded negative set, one interval holds
    # a zero of the function and no atom after it, so _interval_factors
    # leaves that leading zero unpaired
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


# -- interval patterns read from the critical table -----------------------------------


def _flag_interval_factors(q: NevFun, r: RatFun, a: Fraction, b: Fraction):
    """The interval factors as they were chosen from merged atom and zero
    lists by two case flags, kept as the reference for the table reading."""
    from nevkit.classify import _point_kind
    q_rat = q.to_ratfun()
    atoms_in = [t for t in q.sigma.positions if a < t < b]
    zero_recs = [rec for rec in q_rat.real_zeros
                 if strictly_between(rec.point, a, b)]
    for rec in zero_recs:
        if not rec.is_rational:
            raise ExactSplitUnavailable("irrational zero inside the interval")
    seq = sorted([(t, "atom") for t in atoms_in]
                 + [(rec.point, "zero") for rec in zero_recs])
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
    tilde = [RatFun.from_points([beta], [alpha]) for beta, alpha in pair_iter]
    if not seq:
        if q_rat.laurent_lead_sign(a) > 0:
            expect = ("pole", "zero")
            ends = [RatFun.from_points([b], [a])]
        else:
            expect = ("zero", "pole")
            ends = [RatFun.from_points([a], [b])]
    elif has_alpha0 and has_beta_last:
        expect = ("zero", "pole")
        ends = [RatFun.from_points([a], [b])]
    elif has_alpha0:
        expect = ("zero", "zero")
        ends = [RatFun.from_points([a], [alphas[0]]),
                RatFun.from_points([b], [alphas[0]])]
    elif has_beta_last:
        expect = ("pole", "pole")
        ends = [RatFun.from_points([betas[-1]], [a]),
                RatFun.from_points([betas[-1]], [b])]
    else:
        expect = ("pole", "zero")
        ends = [RatFun.from_points([b], [a])]
    got = (_point_kind(r, a), _point_kind(r, b))
    if got != expect:
        raise NotInClass(f"endpoint kinds {got} do not match the interior "
                         f"pattern {expect}")
    return list(tilde) + ends + list(tilde)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NevkitError as e:
        return type(e), str(e)


def test_interval_factors_match_the_flag_reference(monkeypatch):
    import nevkit.classify as cl
    table = cl._interval_factors
    patterns = set()

    def checked(q, r, a, b):
        want = _outcome(_flag_interval_factors, q, r, a, b)
        try:
            got = table(q, r, a, b)
        except NevkitError as e:
            assert (type(e), str(e)) == want
            raise
        assert got == want
        inside = [k for t, _m, k in q.to_ratfun().critical_points()
                  if strictly_between(t, a, b)]
        patterns.add(tuple(inside[:1] + inside[-1:])
                     or q.to_ratfun().laurent_lead_sign(a))
        return got
    monkeypatch.setattr(cl, "_interval_factors", checked)
    pairs = [(ser.nevfun_from_json(qj), ser.ratfun_from_json(rj))
             for qj, rj in _criterion5_pairs(51)]
    for seed in (229, 1004):
        rng = random.Random(seed)
        pairs += [random_plain_pair(rng, 6) for _ in range(40)]
    for q, r in pairs:
        _outcome(chain_factorize, q, r)
    # empty with q > 0 and with q < 0, z...a, z...z and a...a
    assert patterns >= {1, -1, ("zero", "pole"), ("zero", "zero"),
                        ("pole", "pole")}


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
    assert _interval_factors(q, r, a, b) == factors
    assert _flag_interval_factors(q, r, a, b) == factors


@pytest.mark.parametrize("q, r, error", [
    # (z^2 - 2)/z has its zero sqrt 2 inside
    (NevFun.of(0, 1, [(0, 2)]), Z_0_10, ExactSplitUnavailable),
    # q > 0 asks for (pole, zero)
    (NevFun.of(1, 0), RatFun.from_points([0], [10]), NotInClass),
])
def test_interval_pattern_refusals(q, r, error):
    from nevkit.classify import _interval_factors
    a, b = Fraction(0), Fraction(10)
    got = _outcome(_interval_factors, q, r, a, b)
    assert got == _outcome(_flag_interval_factors, q, r, a, b)
    assert got[0] is error


# -- closed-form chain steps ------------------------------------------------------------


def test_chain_steps_match_extraction(monkeypatch):
    """Every closed-form chain step and Moebius composition, inner chains
    included, equals the exact extraction of its RatFun, and every partial
    certificate equals the extraction of its partial product."""
    import nevkit.classify as cl
    step, compose = cl._chain_step, cl._compose
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
    monkeypatch.setattr(cl, "_compose", checked_compose)
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
    assert seen["step"] >= 350 and seen["tau"] >= 50


@pytest.mark.parametrize("q, s", [
    (NevFun.of(0, 0, [(1, 1)]), RatFun.from_points([1], [3])),   # zero at atom
    (NevFun.of(0, 1), RatFun.from_points([-2], [0])),            # pole at zero
    (NevFun.of(0, 0, [(1, 1)]), RatFun.from_points([2], [3])),   # new atom
    (NevFun.of(0, 0, [(1, 1)]), RatFun.from_points([], [2], -1)),  # weight < 0
    (NevFun.of(0, 0, [(0, 1)]), RatFun.from_points([2], [0])),   # double pole
    (NevFun.of(1, 2, [(-1, 1)]), RatFun.from_points([3], [])),   # growth z^2
])
def test_chain_step_cases(q, s):
    from nevkit.nevfun import _chain_step
    want = _outcome(nevfun_from_ratfun, s * q.to_ratfun())
    got = _outcome(_chain_step, s, q)
    assert got == want if isinstance(want, NevFun) else got[0] is want[0]


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
