"""Schema-valid but adversarial JSON through every verb of the CLI: small
degrees, duplicate, zero and negative data.  Whatever the input, ``main``
returns a documented exit code and no exception escapes it.  The numeric
flags of ``kappa`` and ``invert`` get the same treatment."""

import json
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nevkit.cli import main
from nevkit.oracle import (MAX_EPS_LEVELS, MAX_KERNEL_ENTRIES,
                           MAX_QUADRATURE_POINTS, InversionConfig)

COEFFS = st.sampled_from(["0", "0", "1", "-1", "2", "-2", "1/2", "-3/2", "3"])


def ratfun_json():
    coeffs = st.lists(COEFFS, min_size=1, max_size=4)
    return st.fixed_dictionaries({"num": coeffs, "den": coeffs})


# mostly positive, so that some inputs get past validation
WEIGHTS = st.sampled_from(["1", "2", "1/2", "3", "0", "-1"])


def nevfun_json():
    atom = st.fixed_dictionaries({"t": COEFFS, "w": WEIGHTS})
    return st.fixed_dictionaries({"alpha": COEFFS, "beta": WEIGHTS,
                                  "atoms": st.lists(atom, max_size=3)})


def gennev_json():
    return st.fixed_dictionaries(
        {"phi": ratfun_json(), "q0": nevfun_json()},
        optional={"kappa": st.integers(0, 3)})


FUNCTIONS = st.one_of(ratfun_json(), nevfun_json(), gennev_json())

# extra arguments of each verb; "R" stands for the multiplier file
VERBS = {
    "factor": [],
    "classify": ["--r", "R"],
    "product": ["--r", "R"],
    "chain": ["--r", "R"],
    "realize": ["--r", "R"],
    "kappa": ["--points", "8", "--trials", "1"],
    "invert": ["--interval=-1,1", "--points", "64", "--eps-levels", "2",
               "--eps-min", "1e-4"],
}


@settings(max_examples=150, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(verb=st.sampled_from(sorted(VERBS)), f=FUNCTIONS, r=ratfun_json())
def test_cli_fuzz_exit_codes(tmp_path_factory, verb, f, r):
    d = tmp_path_factory.getbasetemp()
    fp, rp, out = d / "fuzz_f.json", d / "fuzz_r.json", d / "fuzz_out.json"
    fp.write_text(json.dumps(f))
    rp.write_text(json.dumps(r))
    args = [verb, "--in", str(fp), "--out", str(out)]
    args += [str(rp) if a == "R" else a for a in VERBS[verb]]
    assert main(args) in (0, 1, 2, 3)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in a report")


# nan, infinities, zeros, negatives and the extremes of the float range
FLOATS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "-1e-5",
                     "1e-300", "5e-324", "1e-2", "0.5", "1e308"]),
    st.floats().map(repr))

# kappa --points stays <= 256 and invert --points <= 8192, so that no example
# allocates much memory
NUMERIC_FLAGS = {
    "kappa": {"--points": st.integers(-3, 256).map(str),
              "--trials": st.integers(-2, 6).map(str),
              "--seed": st.integers(-3, 2**40).map(str),
              "--tol": FLOATS},
    "invert": {"--points": st.integers(-5, 8192).map(str),
               "--eps-min": FLOATS,
               "--eps-levels": st.integers(-1, 5).map(str),
               "--tol": FLOATS},
}


@st.composite
def numeric_args(draw):
    verb = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    flags = NUMERIC_FLAGS[verb]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    return verb, [f"{flag}={draw(flags[flag])}" for flag in chosen]


@settings(max_examples=100, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(case=numeric_args())
def test_cli_fuzz_numeric_flags(tmp_path_factory, capsys, case):
    verb, flags = case
    fp = tmp_path_factory.getbasetemp() / "fuzz_numeric.json"
    # (z^3 - 2z)/(1 - z^2) has index 3; the NevFun -1/z has a unit atom at 0
    fp.write_text(json.dumps(
        {"num": ["0", "-2", "0", "1"], "den": ["1", "0", "-1"]}
        if verb == "kappa" else
        {"alpha": "0", "beta": "0", "atoms": [{"t": "0", "w": "1"}]}))
    args = [verb, "--in", str(fp)] + flags
    if verb == "invert":
        args.append("--interval=-1,1")
    code = main(args)
    out, err = capsys.readouterr()
    assert code in (0, 1) and "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)


@pytest.mark.parametrize("verb, flags", [
    # trials * points^2 just above MAX_KERNEL_ENTRIES
    ("kappa", ["--points", "1025", "--trials", "1"]),
    ("kappa", ["--points", "513", "--trials", "4"]),
    ("invert", ["--points", str(MAX_QUADRATURE_POINTS + 1)]),
    ("invert", ["--eps-levels", str(MAX_EPS_LEVELS + 1)]),
    # a schedule that would not fit in memory is refused before it is built
    ("invert", ["--eps-levels", str(10**12)]),
])
def test_size_flags_above_their_bounds_are_refused(tmp_path, capsys, verb,
                                                   flags):
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps(
        {"alpha": "0", "beta": "0", "atoms": [{"t": "0", "w": "1"}]}))
    args = [verb, "--in", str(fp)] + flags
    if verb == "invert":
        args.append("--interval=-1,1")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "InvalidInput" in err and "Traceback" not in err


def test_size_bounds_admit_the_bound_itself():
    assert 1024 ** 2 == MAX_KERNEL_ENTRIES
    InversionConfig((1e-2,), MAX_QUADRATURE_POINTS)
    InversionConfig(tuple(2.0 ** -k for k in range(MAX_EPS_LEVELS)))
