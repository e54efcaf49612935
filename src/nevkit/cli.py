"""Command-line front end.

Verbs: factor, classify, product, chain, realize, kappa, invert, selftest.
Exact inputs and outputs are JSON with rationals as "p/q" strings; numeric
results carry explicit tolerance fields.  Exit status: 0 success, 1 usage,
parse, schema and other input errors, 2 for classification-negative outcomes,
3 when an internal invariant is violated (a defect in nevkit).

Each verb imports the layers it runs when it runs: classify, product and
chain import the classify module, realize the realize module, and the
numeric verbs and selftest the oracle module, and with it numpy.  So factor
loads neither classify nor realize, and no exact verb loads numpy.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize as ser
from .errors import (InvalidInput, InvariantViolation, NevkitError,
                     ParseError, SchemaMismatch)
from .gnev import GenNevFun, canonical_rational, factor_index
from .nevfun import NevFun, is_nevanlinna
from .qmath import fmt_rat, parse_rat


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON or bytes that are not UTF-8; RecursionError:
        # nesting too deep for the decoder
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write_report(report: dict, out_path):
    text = ser.dumps(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_function(path: str):
    return ser.parse_function(_read_json(path))


def _as_gennev(obj) -> GenNevFun:
    if isinstance(obj, GenNevFun):
        return obj
    if isinstance(obj, NevFun):
        return GenNevFun.from_nevfun(obj)
    raise SchemaMismatch("expected representation data or a canonical pair")


def _as_nevfun(obj) -> NevFun:
    if isinstance(obj, NevFun):
        return obj
    if isinstance(obj, GenNevFun) and obj.phi.is_constant:
        return obj.q0
    raise SchemaMismatch("expected plain representation data")


def cmd_factor(args) -> tuple[int, dict]:
    r = ser.ratfun_from_json(_read_json(args.infile))
    psi, s0, records = canonical_rational(r)
    if not is_nevanlinna(s0):
        raise InvariantViolation("the Nevanlinna part fails certification")
    return 0, {
        "psi": ser.ratfun_to_json(psi),
        "s0": ser.ratfun_to_json(s0),
        "records": ser.records_to_json(records),
        "kappa": factor_index(psi),
        "input_records": ser.ratfun_records_json(r),
    }


def cmd_classify(args) -> tuple[int, dict]:
    from .classify import membership
    g = _as_gennev(_load_function(args.infile))
    r = ser.ratfun_from_json(_read_json(args.rfile))
    rep = membership(g, r)
    # membership always holds for rational data, with no violations
    return 0, {
        "member": True,
        "kappa": rep.kappa,
        "kappa_tilde": rep.kappa_tilde,
        "witness": ser.gennev_to_json(rep.witness),
        "exceptional_atoms": [ser.point_to_json(t)
                              for t in rep.exceptional_atoms],
        "violations": [],
    }


def cmd_product(args) -> tuple[int, dict]:
    from .classify import product_factorization
    g = _as_gennev(_load_function(args.infile))
    r = ser.ratfun_from_json(_read_json(args.rfile))
    w = product_factorization(g, r)
    return 0, {"witness": ser.gennev_to_json(w), "kappa_tilde": w.kappa}


def cmd_chain(args) -> tuple[int, dict]:
    from .classify import chain_factorize, check_N00, kac_closure
    q = _as_nevfun(_load_function(args.infile))
    r = ser.ratfun_from_json(_read_json(args.rfile))
    rep = check_N00(q, r)
    if not rep.ok:
        return 2, {"ok": False,
                   "failures": [[c, None if p is None else str(p), d]
                                for c, p, d in rep.failures],
                   "kappa_tilde": rep.kappa_tilde}
    chain = chain_factorize(q, r)
    closure = kac_closure(q, r)
    return 0, {
        "ok": True,
        "factors": [ser.ratfun_to_json(f) for f in chain.factors],
        "partial_certificates": [ser.nevfun_to_json(c)
                                 for c in chain.partial_certificates],
        "kac_closure": {
            "at_poles": [[str(p), ok] for p, ok in closure.at_poles],
            "at_zeros": [[str(p), ok] for p, ok in closure.at_zeros],
        },
    }


def cmd_realize(args) -> tuple[int, dict]:
    from .realize import (enumerate_zeros_poles, minimal_model,
                          model_spectral_check, transform_model)
    q = _as_nevfun(_load_function(args.infile))
    r = ser.ratfun_from_json(_read_json(args.rfile))
    _zeros, poles = enumerate_zeros_poles(r)
    if not poles:
        raise SchemaMismatch("multiplier has no pole on the extended line")
    m_in = minimal_model(q, poles[0])
    rep = transform_model(m_in, r, q)
    ok = model_spectral_check(m_in, rep.model_out, r)
    return 0, {
        "input_model": ser.model_to_json(m_in),
        "case": rep.case,
        "zetas": [[ser.point_to_json(b), fmt_rat(z)] for b, z in rep.zetas],
        "output_model": ser.model_to_json(rep.model_out),
        "spectral_check": ok,
    }


def cmd_kappa(args) -> tuple[int, dict]:
    from .oracle import negative_squares_report
    f = _load_function(args.infile)
    count, tails = negative_squares_report(
        f, n_points=args.points, trials=args.trials, seed=args.seed,
        tol_rel=args.tol)
    report = {"kappa_numeric": count, "points": args.points,
              "trials": args.trials, "seed": args.seed, "tol": args.tol,
              "eigenvalue_tails": tails}
    if isinstance(f, GenNevFun):
        report["kappa_symbolic"] = f.kappa
        report["agrees"] = (f.kappa == count)
    return 0, report


def cmd_invert(args) -> tuple[int, dict]:
    from .oracle import MAX_EPS_LEVELS, InversionConfig, stieltjes_invert
    f = _load_function(args.infile)
    parts = args.interval.split(",")
    if len(parts) != 2:
        raise ParseError("interval must be LO,HI")
    lo, hi = parse_rat(parts[0]), parse_rat(parts[1])
    if not 0 < args.eps_min < float("inf"):
        raise InvalidInput("--eps-min must be finite and positive")
    levels = args.eps_levels
    if levels > MAX_EPS_LEVELS:
        raise InvalidInput(f"--eps-levels must be at most {MAX_EPS_LEVELS}")
    top = 1e-2
    ratio = (args.eps_min / top) ** (1.0 / max(levels - 1, 1))
    schedule = tuple(top * ratio ** k if k < levels - 1 else args.eps_min
                     for k in range(levels))
    phi = None
    if args.phi:
        phi = ser.ratfun_from_json(_read_json(args.phi))
    cfg = InversionConfig(eps_schedule=schedule,
                          quadrature_points=args.points,
                          interval=(lo, hi))
    res = stieltjes_invert(f, cfg, phi=phi, tol=args.tol)
    if args.dump_samples:
        _dump_samples(f, lo, hi, schedule[-1], args.points,
                      args.dump_samples)
    return 0, {
        "mass": res.value,
        "error_estimate": res.error,
        "per_level": list(res.per_level),
        "peaks": list(res.peaks),
        "interval": [fmt_rat(lo), fmt_rat(hi)],
    }


def _dump_samples(f, lo, hi, eps: float, n: int, path: str):
    import numpy as np
    from .oracle import as_evaluator
    ev = as_evaluator(f)
    xs = np.linspace(float(lo), float(hi), n)
    vals = ev(xs + 1j * eps)
    with open(path, "w") as fh:
        fh.write("lambda,re,im\n")
        for x, v in zip(xs, vals):
            fh.write(f"{x!r},{v.real!r},{v.imag!r}\n")


def cmd_selftest(args) -> tuple[int, dict]:
    from .selftest import run_selftest
    ok, lines = run_selftest(seed=args.seed)
    for line in lines:
        print(line, file=sys.stderr)
    return (0 if ok else 1), {"ok": ok, "checks": len(lines)}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nevkit",
        description="Exact factorization and realization calculus for "
                    "rational Herglotz-Nevanlinna functions under symmetric "
                    "rational multipliers.")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, needs_r=False):
        sp.add_argument("--in", dest="infile", required=True,
                        help="input JSON file")
        if needs_r:
            sp.add_argument("--r", dest="rfile", required=True,
                            help="multiplier JSON file")
        sp.add_argument("--out", dest="outfile", default=None,
                        help="report path (default: stdout)")

    sp = sub.add_parser("factor", help="canonical factorization of a "
                                       "symmetric rational function")
    common(sp)
    sp.set_defaults(fn=cmd_factor)

    sp = sub.add_parser("classify", help="class membership and witness")
    common(sp, needs_r=True)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("product", help="canonical pair of the product")
    common(sp, needs_r=True)
    sp.set_defaults(fn=cmd_product)

    sp = sub.add_parser("chain", help="ordered degree-one factor chain")
    common(sp, needs_r=True)
    sp.set_defaults(fn=cmd_chain)

    sp = sub.add_parser("realize", help="model transfer for the product")
    common(sp, needs_r=True)
    sp.set_defaults(fn=cmd_realize)

    sp = sub.add_parser("kappa", help="numeric negative-squares count")
    common(sp)
    sp.add_argument("--points", type=int, default=40)
    sp.add_argument("--trials", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.set_defaults(fn=cmd_kappa)

    sp = sub.add_parser("invert", help="spectral mass over an interval")
    common(sp)
    sp.add_argument("--interval", required=True, metavar="LO,HI",
                    help="closed interval endpoints as rationals, comma separated")
    sp.add_argument("--phi", default=None, help="rational weight JSON file")
    sp.add_argument("--points", type=int, default=4096)
    sp.add_argument("--eps-min", type=float, default=1e-7)
    sp.add_argument("--eps-levels", type=int, default=6)
    sp.add_argument("--tol", type=float, default=1e-2)
    sp.add_argument("--dump-samples", default=None, metavar="CSV",
                    help="write boundary samples at the finest level")
    sp.set_defaults(fn=cmd_invert)

    sp = sub.add_parser("selftest", help="run the fast invariant suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", dest="outfile", default=None)
    sp.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        code, report = args.fn(args)
        _write_report(report, getattr(args, "outfile", None))
    except (ParseError, SchemaMismatch, OSError) as exc:
        # OSError: a report or sample file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except NevkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
