"""Fast self-contained invariant suite behind the selftest verb.

A curated subset of the full test suite: the worked instances plus a small
seeded corpus, each check printing one pass/fail line.  Runs in a few
seconds; the full property suite lives in the pytest tree.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from .classify import (_degree_one_step, chain_factorize, check_N00,
                       interlacing_factorize, membership,
                       negative_closed_pieces, pieces_disjoint,
                       product_factorization)
from .gnev import GenNevFun, canonical_pair, canonical_rational
from .nevfun import NevFun, _compose, is_nevanlinna, nevfun_from_ratfun
from .oracle import negative_squares
from .poly import Poly, isolate_real_roots, squarefree_decomposition
from .qmath import QC
from .ratfun import RatFun
from .realize import (minimal_model, model_spectral_check, model_weyl,
                      transform_model)


class CheckFailed(Exception):
    """A selftest expectation did not hold."""


def expect(cond, what: str):
    """Explicit check that, unlike assert, also runs under python -O."""
    if not cond:
        raise CheckFailed(what)


def worked_instance():
    """The running example: q = (z-1)/(2-z), r = (z-2)^2 z /((z-1)^2 (z-3))."""
    q = NevFun.of(Fraction(-3, 5), 0, [(2, 1)])
    r = RatFun.from_points([2, 2, 0], [1, 1, 3])
    return q, r


def run_selftest(seed: int = 0):
    rng = random.Random(seed)
    lines = []
    ok_all = True

    def check(name, fn):
        nonlocal ok_all
        try:
            fn()
            lines.append(f"PASS {name}")
        except Exception as exc:  # noqa: BLE001 - report and continue
            ok_all = False
            lines.append(f"FAIL {name}: {type(exc).__name__}: {exc}")

    q, r = worked_instance()

    def chk_canonical():
        psi, s0, _ = canonical_rational(r)
        expect(psi * s0 == r, "psi * s0 == r")
        expect(s0 == RatFun.from_points([3], [0]), "s0 == (z-3)/z")
        expect(is_nevanlinna(s0), "s0 is Nevanlinna")
    check("canonical factorization of the worked multiplier", chk_canonical)

    def chk_product():
        w = product_factorization(GenNevFun.from_nevfun(q), r)
        expect(w.phi.is_constant and w.kappa == 0, "plain witness")
        want = RatFun(Poly([0, 2, -1]), Poly.from_roots([1, 3]))
        expect(w.q0.to_ratfun() == want, "witness (2z-z^2)/((z-1)(z-3))")
    check("product factorization reproduces the worked witness", chk_product)

    def chk_chain():
        chain = chain_factorize(q, r)
        fs = [RatFun.from_points([2], [1]), RatFun.from_points([0], [3]),
              RatFun.from_points([2], [1])]
        expect(list(chain.factors) == fs, "factors in the worked order")
    check("worked chain order", chk_chain)

    def chk_realize():
        m = minimal_model(q, 1)
        rep = transform_model(m, r, q)
        expect(dict(rep.zetas) == {Fraction(1): Fraction(1, 2),
                                   Fraction(3): Fraction(3, 2)},
               "acquired masses 1/2 at 1 and 3/2 at 3")
        lam = QC.of(Fraction(1, 3), Fraction(2, 5))
        lhs = model_weyl(rep.model_out, lam)
        rhs = r.eval_qc(lam) * q.evaluate(lam)
        expect(lhs == rhs, "transferred model realizes r*q")
        expect(model_spectral_check(m, rep.model_out, r), "spectral check")
    check("worked model transfer", chk_realize)

    def chk_oracle():
        for coeffs, kappa in (([0, -1], 1), ([0, 1], 0), ([0, 0, 0, 1], 1)):
            f = RatFun(Poly(coeffs), Poly.const(1))
            expect(negative_squares(f) == kappa,
                   f"negative_squares({f}) == {kappa}")
    check("negative-squares counts on cubics and lines", chk_oracle)

    def chk_corpus():
        from .corpus import random_symmetric_ratfun
        for _ in range(12):
            f = random_symmetric_ratfun(rng, max_degree=6)
            g = canonical_pair(f)
            expect(negative_squares(f, seed=seed) == g.kappa,
                   f"negative_squares({f}) == {g.kappa}")
    check("oracle agreement on a seeded corpus", chk_corpus)

    def chk_interlace():
        from .corpus import random_interlacing_simple
        for _ in range(10):
            s = random_interlacing_simple(rng)
            fs = interlacing_factorize(s)
            expect(math.prod(fs, start=RatFun.const(1)) == s,
                   "factors multiply back")
            pieces = [negative_closed_pieces(f) for f in fs]
            for i in range(len(pieces)):
                for j in range(i + 1, len(pieces)):
                    expect(pieces_disjoint(pieces[i], pieces[j]),
                           f"negative sets {i} and {j} are disjoint")
    check("interlacing splits with disjoint negative sets", chk_interlace)

    def chk_pairs():
        from .corpus import random_plain_pair
        for _ in range(6):
            qq, rr = random_plain_pair(rng)
            expect(check_N00(qq, rr).ok, "plain-pair test passes")
            chain = chain_factorize(qq, rr)
            acc = qq.to_ratfun()
            for f, cert in zip(chain.factors, chain.partial_certificates,
                               strict=True):      # one certificate per factor
                acc = f * acc
                expect(cert == nevfun_from_ratfun(acc),
                       f"chain step by {f} equals the exact extraction")
            for p in [Fraction(rng.randint(-9, 9), 2)] + qq.sigma.positions:
                for tau in (RatFun(Poly([-1, p]), Poly([0, 1])),   # p - 1/l
                            RatFun(Poly([p, Fraction(1, 3)]), Poly.const(1))):
                    expect(_compose(qq, tau) == nevfun_from_ratfun(
                        qq.to_ratfun().compose_mobius(tau)),
                        f"q o {tau} equals the exact extraction")
    check("generated plain pairs admit chains whose closed-form steps and "
          "compositions agree with extraction", chk_pairs)

    def chk_membership():
        g = GenNevFun.from_nevfun(nevfun_from_ratfun(
            RatFun(Poly.const(1), Poly([-1, -1]))))
        rep = membership(g, RatFun.x())
        expect(rep.kappa_tilde == 1, "member with index 1")
    check("membership flags the exceptional-pole mechanism", chk_membership)

    def chk_steps():
        from .corpus import random_member_pair
        for _ in range(4):
            g, rr = random_member_pair(rng, max_atoms=4, max_degree=3)
            s0, qq = canonical_rational(rr)[1], g.q0
            for s in ([] if s0.is_constant else interlacing_factorize(s0)):
                psi, q_next = _degree_one_step(s, qq)
                expect(q_next == nevfun_from_ratfun(s * qq.to_ratfun() / psi),
                       f"step by {s} equals the exact extraction")
                qq = q_next
    check("closed-form degree-one steps agree with exact extraction",
          chk_steps)

    def chk_rational_roots():
        for _ in range(6):
            p = Poly.const(1)
            for _ in range(rng.randint(1, 4)):
                p = p * Poly([rng.randint(-20, 20), rng.randint(1, 12)])
            for _ in range(rng.randint(0, 2)):
                p = p * Poly([rng.choice((-1, 1)) * rng.randint(1, 30), 0, 1])
            for g, _m in squarefree_decomposition(p):
                roots = isolate_real_roots(g)
                expect(all(g(lo) == 0 for lo, hi in roots if lo == hi),
                       f"rational roots of {g} are exact zeros")
                # numpy's roots of g, a root real when nearly so
                real = sorted(z.real for z in np.roots(g.float_coeffs()[::-1])
                              if abs(z.imag) <= 1e-7 * max(1, abs(z)))
                expect(len(real) == len(roots),
                       f"roots of {g} number numpy's real roots")
                expect(all(lo - 1e-7 * max(1, abs(x)) <= x
                           <= hi + 1e-7 * max(1, abs(x))
                           for x, (lo, hi) in zip(real, roots)),
                       f"each real root of {g} lies in its box")
    check("p-adic rational roots and boxes agree with numpy's roots",
          chk_rational_roots)

    return ok_all, lines
