"""The frozen value records of qmath.record, against the dataclasses they
replace; exact coercion; and Python's own protocols on nevkit values."""

import copy
import dataclasses
import pickle
import re
from fractions import Fraction

import pytest

from nevkit.classify import FactorChain, KacClosureReport, N00Report
from nevkit.errors import InvalidInput
from nevkit.gnev import GenNevFun
from nevkit.nevfun import AtomicMeasure, NevFun, ProductMembership
from nevkit.oracle import InversionConfig, as_evaluator
from nevkit.poly import Poly
from nevkit.qmath import INF, NEG_INF, QC, LimitValue, rat, record
from nevkit.ratfun import RatFun


def _dataclass_twin(cls):
    """The frozen dataclass with the name, fields and defaults of cls."""
    return dataclasses.make_dataclass(cls.__name__, [
        (n, object, dataclasses.field(default=cls.__dict__[n]))
        if n in cls.__dict__ else (n, object)
        for n in cls.__annotations__], frozen=True)


HALF = Fraction(1, 2)
PRODUCT = NevFun.of(0, 1, [(1, 2)])
RECORDS = [
    (KacClosureReport, (((Fraction(1, 3), True),), ((INF, False),)), {}),
    (ProductMembership, ((True, False), ("i", "ii")), {}),
    (N00Report, (True,), {}),
    (N00Report, (True, ()), {"kappa_tilde": 0, "product": PRODUCT}),
    (N00Report, (False, (("i", NEG_INF, "why"),), 2), {}),
    (FactorChain, ((RatFun(Poly([1, 0, 1]), Poly([0, 1])),), ()), {}),
    (N00Report, (False, (("ii(b)", HALF, "why"),)), {"kappa_tilde": 1}),
    (AtomicMeasure, (((HALF, Fraction(3)),),), {}),
]


@pytest.mark.parametrize("cls,args,kw", RECORDS)
def test_records_match_their_dataclass_twins(cls, args, kw):
    """Repr, equality and hash as a frozen dataclass has them, over the
    same fields with the same defaults."""
    rec, twin = cls(*args, **kw), _dataclass_twin(cls)(*args, **kw)
    assert repr(rec) == repr(twin)
    assert hash(rec) == hash(twin)
    again = cls(*args, **kw)
    assert rec == again and hash(rec) == hash(again) and rec is not again
    # no equality across classes, even over the same field values
    assert rec != twin and rec.__eq__(twin) is NotImplemented


def test_records_compare_every_field():
    assert N00Report(True, (), 1) != N00Report(True, (), 0)
    assert N00Report(True, (), 0) != N00Report(True, (), 0, PRODUCT)
    assert len({QC(HALF, HALF), QC.of(1, 1) * HALF, QC.of(HALF)}) == 2


def test_keyword_construction_and_defaults():
    assert N00Report(ok=True, failures=(), kappa_tilde=1) == N00Report(
        True, (), 1, None)
    assert N00Report(True, product=PRODUCT, kappa_tilde=0).product == PRODUCT
    assert LimitValue("+inf").value is None
    assert LimitValue(kind="finite", value=HALF) == LimitValue.finite(HALF)
    assert N00Report(True).product is None and N00Report(True).failures == ()
    for bad in (lambda: N00Report(),
                lambda: N00Report(True, (), 1, None, 2),
                lambda: N00Report(True, (), ok=True),
                lambda: N00Report(True, kappa_tilde=1, parity="odd")):
        with pytest.raises(TypeError):
            bad()


def test_records_are_frozen_but_keep_their_memos():
    rec = N00Report(True, (), 1)
    with pytest.raises(AttributeError):
        rec.kappa_tilde = 2
    with pytest.raises(AttributeError):
        rec.other = 2
    with pytest.raises(AttributeError):
        del rec.ok
    assert rec == N00Report(True, (), 1)
    # a memo in the instance dict is no field: equality, hash and repr
    # ignore it
    q = NevFun.of(0, 1, [(1, 2)])
    fresh = NevFun.of(0, 1, [(1, 2)])
    q.to_ratfun()
    assert q.c0 == -1 and "_ratfun" in q.__dict__
    assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh)


def test_post_init_checks_run_on_every_construction():
    assert InversionConfig().quadrature_points == 4096
    assert InversionConfig((1e-1, 1e-2), 64).eps_schedule == (1e-1, 1e-2)
    for kw in ({"eps_schedule": (1e-3, 1e-2)}, {"eps_schedule": (1e-3,) * 2},
               {"quadrature_points": 63}):
        with pytest.raises(InvalidInput):
            InversionConfig(**kw)
    with pytest.raises(InvalidInput, match="need at least one offset level"):
        InversionConfig(eps_schedule=())
    with pytest.raises(InvalidInput):
        InversionConfig((1e-3, 1e-2))


def test_record_of_one_field_and_of_many():
    @record
    class One:
        x: tuple

    @record
    class Many:
        a: int
        b: int
        c: int = 3
        d: int = 4
        e: int = 5

    assert repr(One((1,))) == "test_record_of_one_field_and_of_many." \
        "<locals>.One(x=(1,))"
    assert hash(One((1,))) == hash(((1,),)) and One((1,)) != One((2,))
    assert Many(1, 2, e=7) == Many(1, 2, 3, 4, 7) != Many(1, 2)
    assert (Many(1, 2).c, Many(b=1, a=2).a) == (3, 2)


SQRT2 = RatFun(Poly([-2, 0, 1]), Poly.const(1)).real_zeros[1][0]
Q = NevFun.of(0, 1, [(0, 1)])


@pytest.mark.parametrize("call", [
    lambda: Q.gap_characterize(1, INF),
    lambda: Q.gap_characterize(NEG_INF, 1),
    lambda: Q.corollary_products(0, NEG_INF),
    lambda: Q.corollary_products(INF),
    lambda: Q.limit_at(SQRT2, "value"),
    lambda: RatFun.from_points([], [INF]),
], ids=["gap-inf", "gap-neg-inf", "corollary-neg-inf", "corollary-inf",
        "limit-irrational", "from-points-inf"])
def test_inexact_points_are_invalid_input(call):
    """An end at infinity or an irrational point where a rational is
    required is a ValueError of nevkit's own, not a raw TypeError."""
    with pytest.raises(InvalidInput, match="cannot coerce") as exc:
        call()
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("x", [1.5, None, (1, 2), QC.of(1)])
def test_rat_rejects_what_is_not_exact(x):
    with pytest.raises(InvalidInput, match="exact rational"):
        rat(x)


def test_rat_reads_a_literal_and_qc_conjugates():
    assert rat("-3/4") == Fraction(-3, 4)
    assert QC.of(1, 2).conj() == QC.of(1, -2)


G = GenNevFun(RatFun.const(1), Q)


@pytest.mark.parametrize("call, outcome", [
    (lambda: setattr(Poly([1, 2]), "d", 1),
     AttributeError("Poly is immutable")),
    (lambda: setattr(SQRT2, "lo", 0), AttributeError("RealAlg is immutable")),
    (lambda: setattr(RatFun.x(), "num", Poly.const(1)),
     AttributeError("RatFun is immutable")),
    (lambda: setattr(G, "phi", RatFun.x()),
     AttributeError("GenNevFun is immutable")),
    (lambda: G == GenNevFun(RatFun.const(1), Q), True),
    (lambda: G == Q, False),
    (lambda: 2 - Poly([0, 1]), Poly([2, -1])),
    (lambda: 2 - RatFun.x(), RatFun(Poly([2, -1]), Poly.const(1))),
    (lambda: 2 / RatFun.x(), RatFun(Poly.const(2), Poly([0, 1]))),
    (lambda: Poly([1, 0, 1])(QC.of(0, 1)), QC.of(0)),
    (lambda: Poly([1]).divmod(Poly.const(0)),
     ZeroDivisionError("polynomial division by zero")),
    (lambda: QC.of(1) / QC.of(0),
     ZeroDivisionError("division by exact complex zero")),
    (lambda: pickle.loads(pickle.dumps(INF)) is INF, True),
    (lambda: copy.deepcopy(INF) is INF, True),
    (lambda: as_evaluator(5), TypeError("cannot build an evaluator from 5")),
], ids=["poly-set", "realalg-set", "ratfun-set", "gennev-set", "gennev-eq",
        "gennev-ne", "poly-rsub", "ratfun-rsub", "ratfun-rtruediv",
        "poly-at-qc", "poly-divmod-zero", "qc-div-zero", "inf-pickle",
        "inf-deepcopy", "evaluator-of-int"])
def test_python_protocol(call, outcome):
    """Python's own protocols on nevkit values: immutability, reflected
    operators, division by zero, and INF as a singleton through pickle and
    deepcopy.  No CLI path reaches these; a library caller can."""
    if isinstance(outcome, Exception):
        with pytest.raises(type(outcome),
                           match=f"^{re.escape(str(outcome))}$"):
            call()
    else:
        assert call() == outcome
