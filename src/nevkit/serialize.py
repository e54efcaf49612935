"""JSON schemas for the domain types.

Exact fields serialize rationals as "p/q" strings, never floats; emission is
canonical (sorted keys, fixed separators) so identical values produce
identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import SchemaMismatch
from .gnev import GenNevFun
from .nevfun import AtomicMeasure, NevFun
from .poly import DEFAULT_ISOLATION_WIDTH, Poly, RealAlg
from .qmath import INF, fmt_rat, parse_rat
from .ratfun import RatFun


def _list(val, key: str) -> list:
    """val, the value of the field key, if it is a list, else a
    SchemaMismatch (a string would otherwise be read character by
    character)."""
    if not isinstance(val, list):
        raise SchemaMismatch(f"{key!r} must be a list, not {val!r}")
    return val


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def point_to_json(p):
    if p is INF:
        return "inf"
    if isinstance(p, RealAlg):
        # the centre of the grid cell of width w that holds p: a function of
        # p's value alone
        w = DEFAULT_ISOLATION_WIDTH
        return {"approx": fmt_rat((p.floor_div(w) + Fraction(1, 2)) * w),
                "exact": False}
    return fmt_rat(p)


def ratfun_to_json(r: RatFun) -> dict:
    return {"num": [fmt_rat(c) for c in r.num.c],
            "den": [fmt_rat(c) for c in r.den.c]}


def ratfun_records_json(r: RatFun) -> dict:
    def recs(items):
        return [{"point": point_to_json(x), "mult": m,
                 "order_parity": "odd" if m % 2 else "even"}
                for x, m in items]
    return {"zeros": recs(r.zeros()), "poles": recs(r.poles())}


def ratfun_from_json(d: dict) -> RatFun:
    try:
        num = Poly([parse_rat(c) for c in _list(d["num"], "num")])
        den = Poly([parse_rat(c) for c in _list(d["den"], "den")])
    except (KeyError, TypeError) as exc:
        raise SchemaMismatch(f"bad rational-function object: {exc}") from exc
    return RatFun(num, den)


def nevfun_to_json(q: NevFun) -> dict:
    return {"alpha": fmt_rat(q.alpha), "beta": fmt_rat(q.beta),
            "atoms": [{"t": fmt_rat(t), "w": fmt_rat(w)} for t, w in q.sigma]}


def nevfun_from_json(d: dict) -> NevFun:
    try:
        return NevFun.of(parse_rat(d["alpha"]), parse_rat(d["beta"]),
                         [(parse_rat(a["t"]), parse_rat(a["w"]))
                          for a in _list(d.get("atoms", []), "atoms")])
    except (KeyError, TypeError) as exc:
        raise SchemaMismatch(f"bad representation object: {exc}") from exc


def gennev_to_json(g: GenNevFun) -> dict:
    return {"phi": ratfun_to_json(g.phi), "q0": nevfun_to_json(g.q0),
            "kappa": g.kappa}


def gennev_from_json(d: dict) -> GenNevFun:
    try:
        g = GenNevFun(ratfun_from_json(d["phi"]), nevfun_from_json(d["q0"]))
    except (KeyError, TypeError) as exc:
        raise SchemaMismatch(f"bad canonical-pair object: {exc}") from exc
    kappa = d.get("kappa", g.kappa)
    if type(kappa) is not int:          # bool is a subclass of int
        raise SchemaMismatch(f"declared index {kappa!r} is not an integer")
    if kappa != g.kappa:
        raise SchemaMismatch(
            f"declared index {kappa} but computed {g.kappa}")
    return g


def records_to_json(records) -> list:
    return [{"point": point_to_json(x), "kind": "GZNT" if m > 0 else "GPNT",
             "mult": abs(m)} for x, m in records]


def model_to_json(m: L2Model) -> dict:
    return {
        "beta": fmt_rat(m.beta),
        "sigma": [{"t": fmt_rat(t), "w": fmt_rat(w)} for t, w in m.sigma],
        "xi": point_to_json(m.xi),
        "eta": fmt_rat(m.eta),
        "omega": [{"t": fmt_rat(t), "value_sq": fmt_rat(v)}
                  for t, v in m.omega_sq],
        "omega_inf_sq": fmt_rat(m.omega_inf_sq),
    }


def model_from_json(d: dict) -> L2Model:
    from .realize import L2Model    # only a model loads the realize layer
    try:
        xi = INF if d["xi"] == "inf" else parse_rat(d["xi"])
        m = L2Model(
            parse_rat(d["beta"]),
            AtomicMeasure.of([(parse_rat(a["t"]), parse_rat(a["w"]))
                              for a in d["sigma"]]),
            xi,
            parse_rat(d["eta"]),
            tuple((parse_rat(o["t"]), parse_rat(o["value_sq"]))
                  for o in d["omega"]),
            parse_rat(d["omega_inf_sq"]),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaMismatch(f"bad model object: {exc}") from exc
    if sorted(t for t, _ in m.omega_sq) != m.sigma.positions:
        raise SchemaMismatch("omega must have one entry per atom position")
    return m


def parse_function(d: dict):
    """Dispatch on the schema: canonical pair, representation data, or a
    rational function."""
    if not isinstance(d, dict):
        raise SchemaMismatch("a function must be a JSON object")
    if "phi" in d and "q0" in d:
        return gennev_from_json(d)
    if "alpha" in d:
        return nevfun_from_json(d)
    if "num" in d and "den" in d:
        return ratfun_from_json(d)
    raise SchemaMismatch("object matches no known function schema")
