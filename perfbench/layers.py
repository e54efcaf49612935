"""Per-layer tracing of nevkit from outside the package.

The tracer replaces the public functions of each layer with timing wrappers.
It patches every binding of a wrapped function: the defining module, every
nevkit module that imported the name, and class attributes (aliases such as
``__rmul__ = __mul__`` included).  Self time is kept with an explicit call
stack: a layer's self time is its wall time minus the time of the wrapped
layers it called.  A call into a layer from the same layer is folded into
the outer call, so ``calls`` counts entries into the layer from outside it.

Counting happens only between ``begin()`` and ``end()``, so parsing and
correctness checks done by the benchmark stay out of the numbers.
"""

from __future__ import annotations

import importlib
import sys
import time

_NS = time.perf_counter_ns

# layer name -> (module, attribute path) of every function it covers
LAYERS = {
    "poly.mul": [("poly", "Poly.__mul__")],
    "poly.divmod": [("poly", "Poly.divmod")],
    "poly.gcd": [("poly", "gcd")],
    "poly.squarefree": [("poly", "squarefree_decomposition")],
    "poly.factor": [("poly", "irreducible_factors")],
    "poly.isolate": [("poly", "count_real_roots"),
                     ("poly", "isolate_real_roots")],
    "poly.realalg_new": [("poly", "RealAlg.__init__")],
    "poly.realalg_query": [("poly", "RealAlg.cmp_rat"),
                           ("poly", "RealAlg.sign_of"),
                           ("poly", "RealAlg.cmp_alg")],
    "ratfun.roots": [("ratfun", "RatFun.real_zeros"),
                     ("ratfun", "RatFun.real_poles"),
                     ("ratfun", "RatFun.complex_zero_blocks"),
                     ("ratfun", "RatFun.complex_pole_blocks"),
                     ("ratfun", "RatFun._num_roots"),
                     ("ratfun", "RatFun._den_roots")],
    "ratfun.sign": [("ratfun", "RatFun.sign_at"),
                    ("ratfun", "RatFun.sign_on_interval"),
                    ("ratfun", "RatFun.laurent_lead_sign")],
    "nevfun.certify": [("nevfun", "is_nevanlinna"),
                       ("nevfun", "nevfun_from_ratfun")],
    "nevfun.eval": [("nevfun", "NevFun.evaluate")],
    "gnev.canonical": [("gnev", "canonical_rational"),
                       ("gnev", "canonical_pair")],
    "classify.product": [("classify", "product_factorization")],
    "classify.check_n00": [("classify", "check_N00")],
    "classify.chain": [("classify", "chain_factorize")],
    "classify.kac_closure": [("classify", "kac_closure")],
    "classify.interlace": [("classify", "interlacing_factorize")],
    "realize.model": [("realize", "minimal_model")],
    "realize.transform": [("realize", "transform_model")],
    "realize.spectral_check": [("realize", "model_spectral_check")],
    "oracle.kappa": [("oracle", "negative_squares"),
                     ("oracle", "negative_squares_report")],
    "oracle.kernel": [("oracle", "build_kernel_sample")],
    "oracle.eigh": [],  # numpy.linalg.eigvalsh as seen from nevkit.oracle
    "oracle.invert": [("oracle", "stieltjes_invert")],
    "serialize.parse": [("serialize", "parse_function"),
                        ("serialize", "ratfun_from_json"),
                        ("serialize", "nevfun_from_json"),
                        ("serialize", "gennev_from_json"),
                        ("serialize", "model_from_json")],
    "serialize.emit": [("serialize", "dumps"),
                       ("serialize", "ratfun_to_json"),
                       ("serialize", "ratfun_records_json"),
                       ("serialize", "nevfun_to_json"),
                       ("serialize", "gennev_to_json"),
                       ("serialize", "records_to_json"),
                       ("serialize", "model_to_json")],
}

MODULES = ("poly", "ratfun", "nevfun", "gnev", "classify", "realize",
           "oracle", "serialize", "cli")

# cli-only metrics, filled from the children of the cli workload
CLI_METRICS = ("import.numpy_ms", "import.sympy_ms", "import.nevkit_ms",
               "cli.main_ms")


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_ms", "ms", "lower"))
    out += [
        ("nevfun.certify.rejected", "count", "lower"),
        ("poly.squarefree.distinct_frac", "ratio", "higher"),
        ("poly.factor.linear_frac", "ratio", "higher"),
        ("poly.realalg.queried_frac", "ratio", "higher"),
        ("corpus.rejected.ExactSplitUnavailable", "count", "lower"),
    ]
    out += [(name, "ms", "lower") for name in CLI_METRICS]
    out += [("trace.timed_ms", "ms", "lower"),
            ("trace.untraced_ms", "ms", "lower"),
            ("trace.overhead_ms", "ms", "lower")]
    return out


class Acc:
    """Counts for one timed item; merged into the run totals afterwards."""

    __slots__ = ("layers", "sqf_keys", "sqf_calls", "factor_linear",
                 "realalg", "queried", "cert_rejected")

    def __init__(self):
        self.layers = {}          # layer -> [calls, self_ns]
        self.sqf_keys = set()     # coefficient tuples given to squarefree
        self.sqf_calls = 0
        self.factor_linear = 0    # factor calls that found a linear factor
        self.realalg = {}         # id -> RealAlg built during the item
        self.queried = set()      # ids of RealAlg objects that answered
        self.cert_rejected = 0


class Totals:
    """Run totals over all merged items."""

    def __init__(self):
        self.layers = {name: [0, 0] for name in LAYERS}
        self.sqf_keys = set()
        self.sqf_calls = 0
        self.factor_linear = 0
        self.realalg_built = 0
        self.realalg_queried = 0
        self.cert_rejected = 0

    def merge(self, acc: Acc):
        for name, (calls, ns) in acc.layers.items():
            tot = self.layers[name]
            tot[0] += calls
            tot[1] += ns
        self.sqf_keys |= acc.sqf_keys
        self.sqf_calls += acc.sqf_calls
        self.factor_linear += acc.factor_linear
        self.realalg_built += len(acc.realalg)
        self.realalg_queried += len(acc.queried & acc.realalg.keys())
        self.cert_rejected += acc.cert_rejected

    def merge_dict(self, d: dict):
        """Merge totals another process wrote with ``to_dict``."""
        for name, (calls, ns) in d["layers"].items():
            self.layers[name][0] += calls
            self.layers[name][1] += ns
        self.sqf_keys |= {tuple(k) for k in d["sqf_keys"]}
        self.sqf_calls += d["sqf_calls"]
        self.factor_linear += d["factor_linear"]
        self.realalg_built += d["realalg_built"]
        self.realalg_queried += d["realalg_queried"]
        self.cert_rejected += d["cert_rejected"]

    def to_dict(self) -> dict:
        return {"layers": self.layers,
                "sqf_keys": sorted([str(c) for c in k]
                                   for k in self.sqf_keys),
                "sqf_calls": self.sqf_calls,
                "factor_linear": self.factor_linear,
                "realalg_built": self.realalg_built,
                "realalg_queried": self.realalg_queried,
                "cert_rejected": self.cert_rejected}

    def metrics(self) -> dict:
        out = {}
        for name, (calls, ns) in self.layers.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = ns / 1e6
        factor_calls = self.layers["poly.factor"][0]
        out["nevfun.certify.rejected"] = self.cert_rejected
        out["poly.squarefree.distinct_frac"] = (
            len(self.sqf_keys) / self.sqf_calls if self.sqf_calls else 0.0)
        out["poly.factor.linear_frac"] = (
            self.factor_linear / factor_calls if factor_calls else 0.0)
        out["poly.realalg.queried_frac"] = (
            self.realalg_queried / self.realalg_built
            if self.realalg_built else 0.0)
        return out


class _Proxy:
    """A module's attributes with a few names overridden.  The attributes
    are copied so lookups stay plain dict lookups; names the module loads
    lazily fall through to it."""

    def __init__(self, target, overrides):
        self.__dict__.update(vars(target))
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.acc = None   # counting is on while an Acc is set
        self.stack = []   # frames: [layer, start_ns, child_ns]
        self.totals = Totals()

    # -- counting window ------------------------------------------------------
    def begin(self):
        self.acc = Acc()
        self.stack.clear()

    def end(self, keep: bool = True):
        """Stop counting; add the item's counts to the totals if kept."""
        acc, self.acc = self.acc, None
        if keep:
            self.totals.merge(acc)

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, layer: str, fn, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            acc = tracer.acc
            stack = tracer.stack
            if acc is None or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            frame = [layer, _NS(), 0]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dur = _NS() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                st = acc.layers.get(layer)
                if st is None:
                    st = acc.layers[layer] = [0, 0]
                st[0] += 1
                st[1] += dur - frame[2]
                if hook is not None:
                    hook(acc, args, result, exc)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def install(self):
        """Wrap every layer function and patch all of its bindings."""
        mods = {name: importlib.import_module(f"nevkit.{name}")
                for name in MODULES}
        from nevkit.errors import NotNevanlinna, NotRationalAtoms
        rejects = (NotNevanlinna, NotRationalAtoms)

        def sqf_hook(acc, args, result, exc):
            acc.sqf_calls += 1
            acc.sqf_keys.add(args[0].c)

        def factor_hook(acc, args, result, exc):
            if result is not None and any(h.degree == 1 for h in result):
                acc.factor_linear += 1

        def realalg_new_hook(acc, args, result, exc):
            acc.realalg[id(args[0])] = args[0]

        RealAlg = mods["poly"].RealAlg

        def realalg_query_hook(acc, args, result, exc):
            acc.queried.add(id(args[0]))
            if len(args) > 1 and isinstance(args[1], RealAlg):
                acc.queried.add(id(args[1]))

        def certify_hook(acc, args, result, exc):
            if result is False or isinstance(exc, rejects):
                acc.cert_rejected += 1

        hooks = {"poly.squarefree": sqf_hook, "poly.factor": factor_hook,
                 "poly.realalg_new": realalg_new_hook,
                 "poly.realalg_query": realalg_query_hook,
                 "nevfun.certify": certify_hook}

        replace = {}   # original function -> wrapper
        for layer, targets in LAYERS.items():
            for mod_name, path in targets:
                owner = mods[mod_name]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if cls_path else getattr(owner, attr)
                fn = raw.fget if isinstance(raw, property) else raw
                replace[fn] = self._wrap(layer, fn, hooks.get(layer))
        self._patch(replace)

        # eigvalsh is looked up on numpy at call time; give the oracle module
        # its own numpy view so only the oracle's calls are counted
        oracle = mods["oracle"]
        np = oracle.np
        eigh = self._wrap("oracle.eigh", np.linalg.eigvalsh)
        oracle.np = _Proxy(np, {"linalg": _Proxy(np.linalg,
                                                  {"eigvalsh": eigh})})

    @staticmethod
    def _patch(replace: dict):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nevkit"
                                   or mod_name.startswith("nevkit.")):
                continue
            for key, val in list(vars(mod).items()):
                if _hashable(val) and val in replace:
                    setattr(mod, key, replace[val])
                elif isinstance(val, type) and val.__module__ == mod_name:
                    for ckey, cval in list(vars(val).items()):
                        if isinstance(cval, property) and \
                                _hashable(cval.fget) and cval.fget in replace:
                            setattr(val, ckey, property(
                                replace[cval.fget], cval.fset, cval.fdel,
                                cval.__doc__))
                        elif _hashable(cval) and cval in replace:
                            setattr(val, ckey, replace[cval])


def _hashable(x) -> bool:
    return callable(x) and getattr(type(x), "__hash__", None) is not None
