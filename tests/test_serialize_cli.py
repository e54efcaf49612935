import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import child_env
from nevkit import serialize as ser
from nevkit.cli import main
from nevkit.corpus import random_gennev, random_nevfun, random_symmetric_ratfun
from nevkit.errors import InvariantViolation, ParseError, SchemaMismatch
from nevkit.nevfun import NevFun
from nevkit.poly import Poly
from nevkit.qmath import INF, fmt_rat, parse_rat
from nevkit.ratfun import RatFun
from nevkit.realize import minimal_model


def test_ratfun_roundtrip_random():
    rng = random.Random(2)
    for _ in range(20):
        r = random_symmetric_ratfun(rng)
        assert ser.ratfun_from_json(ser.ratfun_to_json(r)) == r


def test_nevfun_roundtrip_random():
    rng = random.Random(4)
    for _ in range(20):
        q = random_nevfun(rng)
        assert ser.nevfun_from_json(ser.nevfun_to_json(q)) == q


def test_gennev_roundtrip_random():
    rng = random.Random(6)
    for _ in range(10):
        g = random_gennev(rng)
        back = ser.gennev_from_json(ser.gennev_to_json(g))
        assert back.phi == g.phi and back.q0 == g.q0


def test_model_roundtrip():
    q = NevFun.of(Fraction(-3, 5), 0, [(2, 1)])
    m = minimal_model(q, 0)
    assert ser.model_from_json(ser.model_to_json(m)) == m
    m_inf = minimal_model(NevFun.of(0, 0, [(0, 1)]), INF)
    assert ser.model_from_json(ser.model_to_json(m_inf)) == m_inf


@pytest.mark.parametrize("omega", [
    [],                                                    # missing entry
    [{"t": "2", "value_sq": "1"}, {"t": "2", "value_sq": "1"}],  # duplicate
    [{"t": "3", "value_sq": "1"}],                         # wrong position
])
def test_model_omega_must_match_the_atoms(omega):
    d = ser.model_to_json(minimal_model(NevFun.of(0, 0, [(2, 1)]), 0))
    d["omega"] = omega
    with pytest.raises(SchemaMismatch, match="one entry per atom"):
        ser.model_from_json(d)


def test_model_without_vector_value_is_an_invariant_violation():
    m = minimal_model(NevFun.of(0, 0, [(2, 1)]), 0)
    with pytest.raises(InvariantViolation, match="no vector value at 3"):
        m.omega_sq_at(3)


def test_dumps_byte_stable():
    q = NevFun.of(Fraction(1, 3), 2, [(1, 1), (Fraction(5, 2), 3)])
    a = ser.dumps(ser.nevfun_to_json(q))
    b = ser.dumps(ser.nevfun_to_json(
        ser.nevfun_from_json(json.loads(a))))
    assert a == b


def test_schema_mismatch():
    with pytest.raises(SchemaMismatch):
        ser.parse_function({"zzz": 1})
    with pytest.raises(SchemaMismatch):
        ser.gennev_from_json({"phi": {"num": ["1"], "den": ["1"]},
                              "q0": {"alpha": "0", "beta": "0", "atoms": []},
                              "kappa": 7})
    with pytest.raises(SchemaMismatch,
                       match="^bad canonical-pair object: 'phi'$"):
        ser.gennev_from_json({"q0": {"alpha": "0", "beta": "0",
                                     "atoms": []}})
    with pytest.raises(SchemaMismatch, match="^bad model object: 'xi'$"):
        ser.model_from_json({})


@pytest.mark.parametrize("kappa", [True, False, 1.0, "1", None, [1]])
def test_declared_index_must_be_an_integer(kappa):
    """phi = (z - 6)^2 has index 1; a declared index that is not a JSON
    integer, a boolean included, is refused whatever its value."""
    pair = {"phi": {"num": ["36", "-12", "1"], "den": ["1"]},
            "q0": {"alpha": "0", "beta": "1", "atoms": []}}
    assert ser.gennev_from_json({**pair, "kappa": 1}).kappa == 1
    with pytest.raises(SchemaMismatch, match="is not an integer"):
        ser.gennev_from_json({**pair, "kappa": kappa})


WORKED_Q = {"alpha": "-3/5", "beta": "0", "atoms": [{"t": "2", "w": "1"}]}
WORKED_R = {"num": ["0", "4", "-4", "1"], "den": ["-3", "7", "-5", "1"]}
SHIFT_INV = {"alpha": "-1/2", "beta": "0", "atoms": [{"t": "-1", "w": "1"}]}
LINE_R = {"num": ["0", "1"], "den": ["1"]}


def _run(tmp_path, verb, payloads, extra=None):
    args = [verb]
    for flag, payload in payloads.items():
        p = tmp_path / f"{flag}.json"
        p.write_text(json.dumps(payload))
        args += [f"--{flag}", str(p)]
    out = tmp_path / "out.json"
    args += ["--out", str(out)] + (extra or [])
    code = main(args)
    return code, (json.loads(out.read_text()) if out.exists() else None)


def test_cli_factor(tmp_path):
    code, rep = _run(tmp_path, "factor", {"in": WORKED_R})
    assert code == 0
    assert rep["kappa"] == 2
    assert rep["s0"] == {"num": ["-3", "1"], "den": ["0", "1"]}
    points = {rec["point"] for rec in rep["input_records"]["zeros"]}
    assert points == {"0", "2"}


def test_cli_classify_and_product(tmp_path):
    code, rep = _run(tmp_path, "classify",
                     {"in": SHIFT_INV, "r": LINE_R})
    assert code == 0
    assert rep["member"] is True and rep["kappa_tilde"] == 1
    assert rep["exceptional_atoms"] == ["-1"]

    code2, rep2 = _run(tmp_path, "product", {"in": WORKED_Q, "r": WORKED_R})
    assert code2 == 0
    assert rep2["kappa_tilde"] == 0
    assert rep2["witness"]["phi"] == {"num": ["1"], "den": ["1"]}


def test_cli_chain(tmp_path):
    code, rep = _run(tmp_path, "chain", {"in": WORKED_Q, "r": WORKED_R})
    assert code == 0
    assert len(rep["factors"]) == 3
    assert rep["factors"][0] == rep["factors"][2]
    # classification-negative outcome uses exit status 2
    code2, rep2 = _run(tmp_path, "chain", {"in": SHIFT_INV, "r": LINE_R})
    assert code2 == 2 and rep2["ok"] is False and rep2["kappa_tilde"] == 1


def test_cli_chain_names_poles_beyond_the_float_range(tmp_path, capsys):
    """The poles +-sqrt(10^701) of r lie beyond the float range: the
    failed clauses name them as RealAlg~-inf and RealAlg~inf, as IEEE
    rounding gives, in one report with exit status 2."""
    r = {"num": ["1"], "den": [str(-10 ** 701), "0", "1"]}
    code, rep = _run(tmp_path, "chain",
                     {"in": {"alpha": "0", "beta": "1", "atoms": []}, "r": r})
    assert code == 2 and rep["ok"] is False
    assert [p for _c, p, _d in rep["failures"]] == ["0", "RealAlg~-inf",
                                                    "RealAlg~inf"]
    assert capsys.readouterr().err == ""


def test_cli_realize(tmp_path):
    code, rep = _run(tmp_path, "realize", {"in": WORKED_Q, "r": WORKED_R})
    assert code == 0
    assert rep["spectral_check"] is True
    assert dict(map(tuple, rep["zetas"])) == {"1": "1/2", "3": "3/2"}
    assert rep["output_model"]["xi"] == "0"
    # a canonical pair with phi = 1 is read as its Nevanlinna part
    pair = {"phi": {"num": ["1"], "den": ["1"]}, "q0": WORKED_Q}
    assert _run(tmp_path, "realize", {"in": pair, "r": WORKED_R}) == \
        (code, rep)


def test_cli_kappa_and_invert(tmp_path):
    code, rep = _run(tmp_path, "kappa", {"in": WORKED_R},
                     extra=["--seed", "1"])
    assert code == 0
    assert rep["kappa_numeric"] == 2

    minus_inv = {"alpha": "0", "beta": "0", "atoms": [{"t": "0", "w": "1"}]}
    code2, rep2 = _run(tmp_path, "invert", {"in": minus_inv},
                       extra=["--interval=-1/2,1/2"])
    assert code2 == 0
    assert abs(rep2["mass"] - 1.0) < 1e-3


def test_cli_kappa_canonical_pair(tmp_path):
    pair = {"kappa": 1, "phi": {"num": ["36", "-12", "1"], "den": ["1"]},
            "q0": {"alpha": "-3/4", "beta": "0", "atoms": []}}
    code, rep = _run(tmp_path, "kappa", {"in": pair})
    assert code == 0
    assert rep["kappa_symbolic"] == 1
    assert rep["kappa_numeric"] == 1
    assert rep["agrees"] is True


def test_cli_determinism(tmp_path):
    import nevkit.serialize as s
    p = tmp_path / "f.json"
    p.write_text(json.dumps(WORKED_R))
    out1 = tmp_path / "o1.json"
    out2 = tmp_path / "o2.json"
    assert main(["kappa", "--in", str(p), "--out", str(out1),
                 "--seed", "7"]) == 0
    assert main(["kappa", "--in", str(p), "--out", str(out2),
                 "--seed", "7"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["factor", "--in", str(p)]) == 1


UNIT_ATOM = {"alpha": "0", "beta": "0", "atoms": [{"t": "0", "w": "1"}]}


Q_Z = {"alpha": "0", "beta": "1", "atoms": []}
R_TWO = {"num": ["2"], "den": ["1"]}


# a bad input is one error line that names what is wrong with it; a
# coefficient over Python's limit of 4,300 digits for integer string
# conversion, or a long literal that is no string, is echoed by its first
# 40 characters and its length.  A dict among the extra arguments is
# written to a file of its own and passed by its path.
@pytest.mark.parametrize("verb, payload, extra, line", [
    ("factor", {"num": ["abc"], "den": ["1"]}, [],
     "bad rational literal 'abc'"),
    ("factor", {"num": ["1" * 5000, "1"], "den": ["1"]}, [],
     f"bad rational literal '{'1' * 40}'... (5000 characters): "
     "a part has more than 4300 digits"),
    ("kappa", {"alpha": "0", "beta": "0", "atoms": [{"t": "0"}]}, [],
     "bad representation object: 'w'"),
    ("invert", UNIT_ATOM, ["--interval=-1"], "interval must be LO,HI"),
    ("invert", UNIT_ATOM, ["--interval=-1,1", "--phi",
                           {"num": ["1"], "den": ["0", "1"]}],   # phi = 1/z
     "InvalidInput: weight has a pole inside the interval"),
    ("factor", {"num": [[1] * 3000, "1"], "den": ["1"]}, [],
     f"rational literal [{'1, ' * 13}... (9000 characters) "
     "is not a string"),
    ("factor", {"num": [1], "den": ["1"]}, [],
     "rational literal 1 is not a string"),
    ("product", Q_Z, ["--r", {"num": ["-2", "0", "1"],      # (z^2 - 2)/z
                              "den": ["0", "1"]}],
     "ExactSplitUnavailable: interlacing split needs rational points"),
    ("chain", Q_Z, ["--r", {"num": ["-2", "0", "1"],      # (z^2 - 2)/z^2
                            "den": ["0", "0", "1"]}],
     "ExactSplitUnavailable: irrational odd-order zero"),
    ("chain", Q_Z, ["--r", R_TWO],
     "ConstantInput: multiplier must be nonconstant"),
    ("classify", Q_Z, ["--r", R_TWO],
     "ConstantInput: multiplier must be nonconstant"),
    ("realize", Q_Z, ["--r", {"num": ["1"], "den": ["1", "0", "1"]}],
     "multiplier has no pole on the extended line"),
    ("product", R_TWO, ["--r", R_TWO],
     "expected representation data or a canonical pair"),
    ("chain", R_TWO, ["--r", R_TWO], "expected plain representation data"),
])
def test_cli_bad_input_is_one_named_error_line(tmp_path, capsys, verb,
                                               payload, extra, line):
    p = tmp_path / "in.json"
    p.write_text(json.dumps(payload))
    args = []
    for i, a in enumerate(extra):
        if isinstance(a, dict):
            f = tmp_path / f"extra{i}.json"
            f.write_text(json.dumps(a))
            a = str(f)
        args.append(a)
    assert main([verb, "--in", str(p)] + args) == 1
    assert capsys.readouterr() == ("", f"error: {line}\n")


def test_cli_invert_weighs_the_mass_by_phi(tmp_path):
    code, rep = _run(tmp_path, "invert", {
        "in": UNIT_ATOM, "phi": {"num": ["2"], "den": ["1"]}},
        extra=["--interval=-1,1"])
    assert code == 0 and abs(rep["mass"] - 2) < 1e-3


# an input that cannot be read or decoded is a ParseError: bytes that are
# not UTF-8, and nesting too deep for the JSON decoder
@pytest.mark.parametrize("payload", [b"\xff\xfe{}", b"[" * 100000],
                         ids=["not-utf8", "deep-nesting"])
def test_cli_undecodable_input_is_one_error_line(tmp_path, capsys, payload):
    p = tmp_path / "f.json"
    p.write_bytes(payload)
    assert main(["factor", "--in", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot read {p}: ")
    assert err.count("\n") == 1


# a report or sample file that cannot be written is one error line, exit 1
@pytest.mark.parametrize("args", [
    ["factor", "--in", "R", "--out", "MISSING"],
    ["selftest", "--out", "MISSING"],
    ["invert", "--in", "F", "--interval=-1,1", "--points", "64",
     "--dump-samples", "MISSING"],
])
def test_cli_unwritable_output_is_one_error_line(tmp_path, capsys,
                                                 monkeypatch, args):
    import nevkit.selftest
    monkeypatch.setattr(nevkit.selftest, "run_selftest",
                        lambda seed: (True, []))
    f, r = tmp_path / "f.json", tmp_path / "r.json"
    f.write_text(json.dumps({"alpha": "0", "beta": "0",
                             "atoms": [{"t": "0", "w": "1"}]}))
    r.write_text(json.dumps(WORKED_R))
    missing = tmp_path / "no" / "such.out"
    subs = {"F": str(f), "R": str(r), "MISSING": str(missing)}
    assert main([subs.get(a, a) for a in args]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == \
        f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_cli_report_over_the_digit_limit_is_one_error_line(tmp_path,
                                                           capsys):
    """A result with an integer longer than Python's limit for integer
    string conversion: phi = (z - a)^2, r = z (z - b)^2 with a and b of
    1,101 digits, so the product's coefficients have more than 4,300."""
    a, b = 10**1100 + 7, 10**1100 + 3
    code, rep = _run(tmp_path, "product", {
        "in": {"phi": {"num": [str(a * a), str(-2 * a), "1"], "den": ["1"]},
               "q0": {"alpha": "0", "beta": "1", "atoms": []}},
        "r": {"num": ["0", str(b * b), str(-2 * b), "1"], "den": ["1"]}})
    out, err = capsys.readouterr()
    assert (code, rep, out) == (1, None, "")
    assert err.startswith("error: InvalidInput: rational too long to write")
    assert err.count("\n") == 1


def test_cli_selftest_runs():
    assert main(["selftest", "--seed", "0"]) == 0


def test_cli_entrypoint_subprocess(tmp_path):
    p = tmp_path / "r.json"
    p.write_text(json.dumps(WORKED_R))
    proc = subprocess.run(
        [sys.executable, "-m", "nevkit.cli", "factor", "--in", str(p)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kappa"] == 2


def test_cli_invert_dump_samples(tmp_path):
    minus_inv = {"alpha": "0", "beta": "0", "atoms": [{"t": "0", "w": "1"}]}
    p = tmp_path / "f.json"
    p.write_text(json.dumps(minus_inv))
    csv = tmp_path / "samples.csv"
    code = main(["invert", "--in", str(p), "--interval=-1,1",
                 "--out", str(tmp_path / "o.json"),
                 "--dump-samples", str(csv)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "lambda,re,im"
    assert len(lines) > 1000


@pytest.mark.parametrize("eps_min", ["1e-20", "1e-40", "1e-300"])
def test_cli_invert_steep_schedule_keeps_the_atom(tmp_path, capsys,
                                                  eps_min):
    """z - 1/z has a unit atom at 0.  Levels far more than ten times apart
    must still recover its mass, or fail: never a wrong mass with exit 0."""
    f = {"num": ["-1", "0", "1"], "den": ["0", "1"]}
    code, rep = _run(tmp_path, "invert", {"in": f},
                     extra=["--interval=-1,1", "--eps-min", eps_min])
    if code == 0:
        assert abs(rep["mass"] - 1.0) < 1e-3
    else:
        assert code == 1 and "NonConvergent" in capsys.readouterr().err


def test_cli_invert_one_level_runs_at_eps_min(tmp_path):
    """One level is one offset, --eps-min: over (-36/5, -34/5) the atom at
    -7 of weight 7/4 is read at 1e-5, not at 1e-2, where the spike's tails
    still lie outside the interval.  One level has nothing to extrapolate."""
    q = {"alpha": "1/2", "beta": "0", "atoms": [{"t": "-7", "w": "7/4"},
                                                {"t": "4/3", "w": "2"}]}
    code, rep = _run(tmp_path, "invert", {"in": q},
                     extra=["--interval=-36/5,-34/5", "--eps-levels", "1",
                            "--eps-min", "1e-5"])
    assert code == 0 and rep["error_estimate"] == 0.0
    assert rep["per_level"] == [rep["mass"]]
    assert abs(rep["mass"] - 1.75) < 1e-4


@pytest.mark.parametrize("eps_min, code", [("1e-310", 1), ("1e-200", 0)])
def test_cli_invert_subnormal_offset(tmp_path, capsys, eps_min, code):
    """A unit atom at 0 sampled at a subnormal offset overflows the float
    evaluation to inf: the run fails with one error line, naming that
    offset, and no report.  At 1e-200 the mass is recovered."""
    p = tmp_path / "f.json"
    p.write_text(json.dumps({"alpha": "0", "beta": "0",
                             "atoms": [{"t": "0", "w": "1"}]}))
    assert main(["invert", "--in", str(p), "--interval=-1,1",
                 "--eps-min", eps_min]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and "Traceback" not in err
        assert err.startswith("error: NonConvergent: ")
    else:
        assert abs(json.loads(out)["mass"] - 1.0) < 1e-6


def test_cli_invert_overflow_prints_one_line(tmp_path):
    """In a fresh process, where numpy's warnings are not captured, the
    subnormal offset that overflows the float evaluation leaves stderr
    with the one error line and nothing from numpy."""
    p = tmp_path / "f.json"
    p.write_text(json.dumps({"alpha": "0", "beta": "0",
                             "atoms": [{"t": "0", "w": "1"}]}))
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "nevkit.cli", "invert", "--in", str(p),
         "--interval=-1,1", "--eps-min", "1e-310"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: NonConvergent: level integral at offset "
                           "1e-310 is not finite\n")


def test_cli_invert_refuses_a_width_beyond_the_float_range(tmp_path):
    """Both ends of (-10^308, 10^308) are floats, its width is not: the
    grid spacing would be infinite and never shrink below an offset, so
    the interval is refused at once (in a child with a timeout)."""
    p = tmp_path / "q.json"
    p.write_text(json.dumps({"alpha": "0", "beta": "0",
                             "atoms": [{"t": "0", "w": "1"}]}))
    big = 10 ** 308
    proc = subprocess.run(
        [sys.executable, "-m", "nevkit.cli", "invert", "--in", str(p),
         f"--interval=-{big},{big}"],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: InvalidInput: interval width beyond the "
                           "float range\n")


@pytest.mark.parametrize("text, value", [
    ("7", Fraction(7)), (" -3/4 ", Fraction(-3, 4)), ("2.5", Fraction(5, 2)),
    ("-0.125", Fraction(-1, 8))])
def test_parse_rat_reads_integers_fractions_and_decimals(text, value):
    assert parse_rat(text) == value


@pytest.mark.parametrize("text", ["1e5", "2E-3", "1.5e+3", "1e1000000000"])
def test_parse_rat_rejects_exponent_notation(text):
    with pytest.raises(ParseError, match="exponent notation"):
        parse_rat(text)


def test_cli_rejects_an_exponent_at_once(tmp_path):
    """Expanding 10**(10**9) exactly would hold the process for hours; the
    literal is refused before any arithmetic."""
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"num": ["1e1000000000"], "den": ["1"]}))
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "nevkit.cli", "factor", "--in", str(p)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "exponent notation" in proc.stderr


def _sqrt2_point(r: RatFun) -> str:
    """Emitted bytes of the zero sqrt(2) of r."""
    return ser.dumps(ser.ratfun_records_json(r)["zeros"][1]["point"])


def test_emitted_irrational_point_depends_only_on_its_value():
    first = _sqrt2_point(RatFun(Poly([-2, 0, 1]), Poly([-5, 1])))
    # both functions share the cached root points of z^2 - 2; these
    # queries refine their boxes in between
    f = RatFun(Poly([-2, 0, 1]), Poly([-5, 1]))
    sqrt2 = f.real_zeros[1][0]
    box = sqrt2.box
    sqrt2.floor_div(Fraction(1, 2**100))
    sqrt2.cmp_rat(Fraction(1414213562373095, 10**15))
    assert f.real_zeros[1][0].box != box
    second = _sqrt2_point(RatFun(Poly([-2, 0, 1]), Poly([-7, 1])))
    assert first == second
    w = Fraction(1, 2**64)
    centre = (math.isqrt(2 * 2**128) + Fraction(1, 2)) * w
    assert json.loads(first) == {"approx": fmt_rat(centre), "exact": False}


def test_cli_maps_invariant_violation_to_exit_3(tmp_path, monkeypatch):
    import nevkit.cli

    def broken(r):
        raise InvariantViolation("factors do not multiply back")
    monkeypatch.setattr(nevkit.cli, "canonical_rational", broken)
    code, rep = _run(tmp_path, "factor", {"in": WORKED_R})
    assert code == 3 and rep is None


def test_realize_has_no_xi_flag(tmp_path):
    code, rep = _run(tmp_path, "realize", {"in": WORKED_Q, "r": WORKED_R},
                     extra=["--xi", "1"])
    assert code == 1 and rep is None


# usage errors exit 1, as input errors do; 2 is a classification-negative
# result
@pytest.mark.parametrize("args", [
    ["chain", "--in", "Q"],                             # no --r
    ["kappa", "--in", "Q", "--points", "x"],            # not an integer
    ["invert", "--in", "Q", "--interval", "-1,1"],      # read as a flag
    ["frobnicate"],                                     # no such verb
])
def test_cli_usage_errors_exit_1(tmp_path, capsys, args):
    q = tmp_path / "q.json"
    q.write_text(json.dumps(WORKED_Q))
    assert main([str(q) if a == "Q" else a for a in args]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "usage: nevkit" in err


def test_cli_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["chain", "--help"]) == 0
    assert capsys.readouterr().out.count("usage: nevkit") == 2


def test_selftest_reports_a_broken_check(monkeypatch):
    import nevkit.selftest as st
    monkeypatch.setattr(st, "negative_squares", lambda *a, **k: -1)
    ok, lines = st.run_selftest(seed=0)
    assert ok is False
    fails = [line for line in lines if line.startswith("FAIL")]
    assert len(fails) == 2 and all("CheckFailed" in f for f in fails)


def test_selftest_checks_under_python_O():
    env = child_env()

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env)

    plain = run("-m", "nevkit.cli", "selftest", "--seed", "0")
    optimized = run("-O", "-m", "nevkit.cli", "selftest", "--seed", "0")
    assert plain.returncode == optimized.returncode == 0
    n = json.loads(plain.stdout)["checks"]
    assert n > 0 and json.loads(optimized.stdout)["checks"] == n
    assert len(optimized.stderr.splitlines()) == n
    # and under -O a broken check still fails
    broken = run("-O", "-c", "import nevkit.selftest as st; "
                 "st.negative_squares = lambda *a, **k: -1; "
                 "print(st.run_selftest(0)[0])")
    assert broken.stdout.strip() == "False"


@pytest.mark.parametrize("payload", [
    {"num": [1.5], "den": ["1"]},          # a JSON number as a coefficient
    {"num": [None], "den": ["1"]},         # null as a coefficient
    {"num": "12", "den": "1"},             # a string where a list belongs
    {"alpha": "0", "beta": "0", "atoms": "2"},
    5,                                     # not an object at all
])
def test_cli_rejects_malformed_coefficients(tmp_path, capsys, payload):
    p = tmp_path / "f.json"
    p.write_text(json.dumps(payload))
    assert main(["factor", "--in", str(p)]) == 1
    assert main(["kappa", "--in", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "Traceback" not in err


IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
from nevkit.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "new": sorted(set(sys.modules) - before)}))
"""

MIXED_R = {"num": ["2", "-2", "0", "-1", "1"], "den": ["1"]}  # (z^3-2)(z-1)

# what each exact verb does without: the dataclasses module with the
# inspect it imports, and the layers the verb does not run
EXACT_ABSENT = {"factor": {"nevkit.classify", "nevkit.realize"},
                "chain": {"nevkit.realize"}, "realize": set()}


@pytest.mark.parametrize("verb,files,code,sympy,numpy", [
    ("factor", {"in": WORKED_R}, 0, False, False),
    ("chain", {"in": WORKED_Q, "r": WORKED_R}, 0, False, False),
    ("kappa", {"in": WORKED_R}, 0, False, True),
    # the mixed factor cannot be split exactly: an input error, found by
    # the native factorizer
    ("factor", {"in": MIXED_R}, 1, False, False),
    ("realize", {"in": WORKED_Q, "r": WORKED_R}, 0, False, False),
])
def test_cli_imports_sympy_and_numpy_only_when_needed(tmp_path, verb, files,
                                                       code, sympy, numpy):
    """No verb imports sympy, and the exact verbs run without numpy, which
    only the numeric verbs load.  The exact verbs run without dataclasses
    and inspect too, factor without the classify and realize layers, and
    chain without realize.  A module counts when the verb adds it to those
    the interpreter loaded at start."""
    args = [verb]
    for flag, payload in files.items():
        p = tmp_path / f"{flag}.json"
        p.write_text(json.dumps(payload))
        args += [f"--{flag}", str(p)]
    args += ["--out", str(tmp_path / "out.json")]
    env = child_env()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *args],
                          capture_output=True, text=True, env=env)
    probe = json.loads(proc.stdout.splitlines()[-1])
    new = set(probe["new"])
    assert (probe["code"], "sympy" in new, "numpy" in new) == (code, sympy,
                                                               numpy)
    if verb in EXACT_ABSENT:
        assert new.isdisjoint({"dataclasses", "inspect"} | EXACT_ABSENT[verb])
    assert code == 0 or "ExactSplitUnavailable" in proc.stderr


GOLDENS_PROBE = """
import contextlib, io, json, os, sys
from nevkit.cli import main
runs = []
for case in json.load(open(sys.argv[1]))["cases"]:
    os.chdir(sys.argv[2])
    os.mkdir(case["id"])
    os.chdir(case["id"])
    for name, text in case["files"].items():
        with open(name, "w") as fh:
            fh.write(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \\
            contextlib.redirect_stderr(io.StringIO()):
        runs.append([main(case["argv"]), out.getvalue()])
with contextlib.redirect_stdout(io.StringIO()):
    runs.append([main(["selftest"]), ""])
print(json.dumps({"runs": runs, "sympy": "sympy" in sys.modules}))
"""


def test_no_verb_imports_sympy(tmp_path):
    """Every golden CLI case and ``selftest``, run in one fresh process,
    give their golden reports and never load sympy."""
    perfbench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    sys.path.insert(0, perfbench)
    try:
        from cli_goldens import GOLDENS, compare
    finally:
        sys.path.remove(perfbench)
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-c", GOLDENS_PROBE, str(GOLDENS), str(tmp_path)],
        capture_output=True, text=True, env=env)
    probe = json.loads(proc.stdout.splitlines()[-1])
    cases = json.loads(GOLDENS.read_text())["cases"]
    *runs, selftest = probe["runs"]
    assert len(runs) == len(cases) and {c["kind"] for c in cases} >= {
        "factor", "classify", "product", "chain", "realize", "kappa",
        "invert"}
    for case, (code, stdout) in zip(cases, runs):
        assert compare(case, code, stdout) is None, case["id"]
    assert selftest == [0, ""]
    assert probe["sympy"] is False


def _factor_report(tmp_path, capsys, num):
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"num": num, "den": ["1"]}))
    code = main(["factor", "--in", str(p)])
    return code, json.loads(capsys.readouterr().out)


def test_cli_factor_records_irrational_points(tmp_path, capsys):
    # (z^2-2)^2 z: the double zeros at -+sqrt(2) carry the whole index
    code, rep = _factor_report(tmp_path, capsys,
                               ["0", "4", "0", "-4", "0", "1"])
    assert code == 0 and rep["kappa"] == 2
    assert rep["psi"] == {"num": ["4", "0", "-4", "0", "1"], "den": ["1"]}
    assert rep["s0"] == {"num": ["0", "1"], "den": ["1"]}
    assert [(r["kind"], r["mult"], r["point"]["exact"])
            for r in rep["records"]] == [("GZNT", 1, False)] * 2
    approx = [float(Fraction(r["point"]["approx"])) for r in rep["records"]]
    assert approx == pytest.approx([-math.sqrt(2), math.sqrt(2)])


def test_cli_factor_splits_odd_irrational_without_type(tmp_path, capsys):
    # (z^2-2)(z-1) = z^3 - z^2 - 2z + 2
    code, rep = _factor_report(tmp_path, capsys, ["2", "-2", "-1", "1"])
    assert code == 0 and rep["kappa"] == 1
    assert rep["psi"] == {"num": ["1", "-2", "1"], "den": ["1"]}
    assert rep["s0"] == {"num": ["-2", "0", "1"], "den": ["-1", "1"]}
    assert rep["records"] == [{"point": "1", "kind": "GZNT", "mult": 1}]


def test_cli_factor_reports_a_nevanlinna_input_with_irrational_atoms(
        tmp_path):
    # -z/(z^2-2): atoms at -+sqrt(2), no point of nonpositive type
    r = {"num": ["0", "-1"], "den": ["-2", "0", "1"]}
    code, rep = _run(tmp_path, "factor", {"in": r})
    assert code == 0 and rep["kappa"] == 0
    assert rep["psi"] == {"num": ["1"], "den": ["1"]}
    assert rep["s0"] == r and rep["records"] == []


def test_cli_factor_exits_3_on_a_nevanlinna_part_that_fails(tmp_path,
                                                              monkeypatch):
    import nevkit.cli

    def planted(r):
        return RatFun.const(1), RatFun(Poly([0, -1]), Poly.const(1)), []
    monkeypatch.setattr(nevkit.cli, "canonical_rational", planted)
    code, rep = _run(tmp_path, "factor", {"in": WORKED_R})
    assert code == 3 and rep is None



def _chebyshev(n: int) -> Poly:
    t0, t1 = Poly.const(1), Poly([0, 1])
    for _ in range(n - 1):
        t0, t1 = t1, Poly([0, 2]) * t1 - t0
    return t1


ODD_IRRATIONAL = "ExactSplitUnavailable: odd-order irrational point " \
    "carries type multiplicity"


# the classic hard inputs of factoring: each finishes, with its report or
# with the documented refusal
@pytest.mark.parametrize("num, den, want", [
    # Mignotte z^n - 2 (a z - 1)^2 over z - 3
    (Poly([0] * 20 + [1]) - Poly([-1, 100]) ** 2 * 2, Poly([-3, 1]),
     ODD_IRRATIONAL),
    (Poly([0] * 40 + [1]) - Poly([-1, 1000]) ** 2 * 2, Poly([-3, 1]),
     ODD_IRRATIONAL),
    # Wilkinson prod (z - k) over prod (z - k - 1/2), k = 1..n
    (Poly.from_roots(range(1, 21)),
     Poly.from_roots([k + Fraction(1, 2) for k in range(1, 21)]),
     "7dfa84afd1f9d02f7a9c3961b2cd8bfb8a498637610c8b676c49b43a8b8af3ad"),
    (Poly.from_roots(range(1, 41)),
     Poly.from_roots([k + Fraction(1, 2) for k in range(1, 41)]),
     "ac0063da4afd76e71a46f7f1ea546e7a78bcc0233eee607479de7d4a871c6be2"),
    (_chebyshev(40), Poly([0, 1]), ODD_IRRATIONAL),
    (Poly([-2, 0, 1]) ** 9 * Poly([1, 0, 1]) ** 3,
     Poly([Fraction(-1, 3), 1]) ** 7, ODD_IRRATIONAL),
], ids=["mignotte-20", "mignotte-40", "wilkinson-20", "wilkinson-40",
        "chebyshev-40", "high-multiplicity"])
def test_cli_factor_hard_inputs(tmp_path, capsys, num, den, want):
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"num": [fmt_rat(c) for c in num.c],
                             "den": [fmt_rat(c) for c in den.c]}))
    code = main(["factor", "--in", str(p)])
    out, err = capsys.readouterr()
    if code == 0:
        assert hashlib.sha256(out.encode()).hexdigest() == want
    else:
        assert (code, out, err) == (1, "", f"error: {want}\n")


Q_JSON = {"alpha": "0", "beta": "1", "atoms": [{"t": "0", "w": "1"}]}
R_JSON = {"num": ["0", "1"], "den": ["1", "0", "1"]}


@pytest.mark.parametrize("verb,q,extra", [
    ("chain", {"alpha": "0", "beta": "-1"}, []),                 # slope < 0
    ("chain", {"alpha": "0", "beta": "0",
               "atoms": [{"t": "1", "w": "-1"}]}, []),           # weight < 0
    ("chain", {"alpha": "0", "beta": "0",
               "atoms": [{"t": "1", "w": "1"},
                         {"t": "1", "w": "2"}]}, []),            # duplicate
    ("chain", {"alpha": "0", "beta": "0", "atoms": []}, []),     # zero q
    ("classify", {"phi": {"num": ["0"], "den": ["1"]},
                  "q0": Q_JSON}, []),                           # zero phi
    ("classify", {"phi": {"num": ["-1"], "den": ["1"]},
                  "q0": Q_JSON}, []),                           # phi < 0
    ("invert", Q_JSON, ["--interval=1,0"]),
    ("invert", Q_JSON, ["--interval=-1,1", "--points", "10"]),
    ("invert", Q_JSON, ["--interval=-1,1", "--eps-min=-1e-5"]),
    ("invert", Q_JSON, ["--interval=-1,1", "--eps-min=0"]),
    ("invert", Q_JSON, ["--interval=-1,1", "--eps-min=nan"]),
    ("invert", Q_JSON, ["--interval=-1,1", "--tol=nan"]),
    ("invert", Q_JSON, ["--interval=-1,1", "--tol=-1"]),
    ("kappa", Q_JSON, ["--points=0"]),
    ("kappa", Q_JSON, ["--points=-3"]),
    ("kappa", Q_JSON, ["--trials=0"]),
    ("kappa", Q_JSON, ["--tol=nan"]),
    ("kappa", Q_JSON, ["--tol=inf"]),
    ("kappa", Q_JSON, ["--seed=-1"]),
    ("invert", Q_JSON, ["--interval=-1,1", "--eps-levels=0"]),
    ("invert", Q_JSON, ["--interval=-1,1", "--eps-levels=-1"]),
    # exact data beyond the float range
    ("kappa", {"num": [str(10 ** 400), "34", "1"], "den": ["10", "-2", "1"]},
     []),
    ("invert", {"alpha": "0", "beta": "0",
                "atoms": [{"t": "0", "w": str(10 ** 400)}]},
     ["--interval=-1,1"]),
    ("invert", Q_JSON, [f"--interval=-{10 ** 400},1"]),
])
def test_cli_invalid_input_is_one_error_line(tmp_path, capsys, verb, q,
                                             extra):
    qp, rp = tmp_path / "q.json", tmp_path / "r.json"
    qp.write_text(json.dumps(q))
    rp.write_text(json.dumps(R_JSON))
    args = [verb, "--in", str(qp)] + extra
    if verb not in ("invert", "kappa"):
        args += ["--r", str(rp)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidInput: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("q,r", [
    # the first pole of r, the model anchor, is irrational
    ({"alpha": "0", "beta": "0", "atoms": [{"t": "1/2", "w": "1"}]},
     {"num": ["2", "2", "-2"], "den": ["2", "2", "-3/2", "1/2"]}),
    # the last zero of r, the anchor of the transferred model, is 1+sqrt(2)
    ({"alpha": "1", "beta": "1", "atoms": []},
     {"num": ["1", "2", "-1"], "den": ["1", "-1", "-2"]}),
])
def test_cli_realize_refuses_irrational_anchor(tmp_path, capsys, q, r):
    qp, rp = tmp_path / "q.json", tmp_path / "r.json"
    qp.write_text(json.dumps(q))
    rp.write_text(json.dumps(r))
    assert main(["realize", "--in", str(qp), "--r", str(rp)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_realize_prints_failed_clauses_with_rational_points(tmp_path,
                                                                capsys):
    qp, rp = tmp_path / "q.json", tmp_path / "r.json"
    qp.write_text(json.dumps({"alpha": "1", "beta": "0", "atoms": []}))
    rp.write_text(json.dumps({"num": ["-1", "1"], "den": ["-2", "1"]}))
    assert main(["realize", "--in", str(qp), "--r", str(rp)]) == 1
    err = capsys.readouterr().err
    assert "Fraction(" not in err
    assert "ii(b) at 1: zero-side limit sign" in err
