"""nevkit: exact arithmetic for rational Herglotz-Nevanlinna functions under
multiplication by symmetric rational functions, with numeric cross-checks."""

from .qmath import INF, NEG_INF, QC, LimitValue, fmt_rat, rat
from .poly import Poly, RealAlg
from .ratfun import RatFun, reduce
from .nevfun import AtomicMeasure, NevFun, is_nevanlinna, nevfun_from_ratfun
from .gnev import GenNevFun, canonical_pair, canonical_rational, compose_gen

__all__ = [
    "INF", "NEG_INF", "QC", "LimitValue", "fmt_rat", "rat",
    "Poly", "RealAlg", "RatFun", "reduce",
    "AtomicMeasure", "NevFun", "is_nevanlinna", "nevfun_from_ratfun",
    "GenNevFun", "canonical_pair", "canonical_rational", "compose_gen",
]

__version__ = "0.1.0"
