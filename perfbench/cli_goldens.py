"""Golden cases of the cli workload: generation and comparison.

Each case is a verb, its argument list, its input files, the expected exit
code and the expected standard output.  Exact verbs must reproduce the
report byte for byte.  ``kappa`` and ``invert`` must match exactly on counts,
flags and every non-float field; floats may differ by the tolerance the
report itself states: ``tol`` (relative) for ``kappa``, and
``error_estimate`` (absolute, at least 1e-9) for ``invert``.  The ``kappa``
tolerance is relative to the largest eigenvalue of each trial's tail, as the
report's own threshold is relative to the size of the kernel matrix.

Regenerate the file (only when the reports are meant to change) with

    python3 perfbench/cli_goldens.py

from the root of a checkout.  The inputs come from the acceptance corpora
(seeds 1001 to 1006, 1008) with the acceptance generator settings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens" / "cli.json"
CASES_PER_KIND = 4
EXPECTED_CODE = {"chain_negative": 2, "malformed": 1}   # others exit 0


def compare(case: dict, code: int, stdout: str):
    """None when the invocation matches its golden, else the difference."""
    if code != case["code"]:
        return f"exit code {code}, expected {case['code']}"
    if case["kind"] not in ("kappa", "invert"):
        if stdout != case["stdout"]:
            return "report differs from the golden bytes"
        return None
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError:
        return "report is not JSON"
    if not isinstance(got, dict):
        return "report is not a JSON object"
    want = json.loads(case["stdout"])
    if case["kind"] == "kappa":
        got_tails = got.pop("eigenvalue_tails", None)
        want_tails = want.pop("eigenvalue_tails")
        ok = (_match(got, want, _within(0.0))
              and isinstance(got_tails, list)
              and len(got_tails) == len(want_tails)
              and all(_match(g, w, _within(
                      want["tol"] * max([1.0] + [abs(x) for x in w])))
                      for g, w in zip(got_tails, want_tails)))
    else:
        ok = _match(got, want, _within(max(want["error_estimate"], 1e-9)))
    if not ok:
        return "report differs from the golden beyond its tolerance"
    return None


def _within(tol: float):
    return lambda a, b: abs(a - b) <= tol


def _match(got, want, close) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return close(float(got), want)
    if type(got) is not type(want):
        return False
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(
            _match(got[k], want[k], close) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(
            _match(g, w, close) for g, w in zip(got, want))
    return got == want


# -- generation ----------------------------------------------------------------

def _inputs():
    """(kind, argv, files) for every case, from the acceptance corpora."""
    import random

    from nevkit import serialize as ser
    from nevkit.classify import check_N00
    from nevkit.corpus import (random_member_pair, random_nevfun,
                               random_symmetric_ratfun)
    from nevkit.errors import NevkitError
    from workloads import Oracle, _plain_instances

    def dump(obj):
        return ser.dumps(obj)

    n = CASES_PER_KIND
    for item in Oracle._kappa_items(1001, n):
        files = {"f.json": dump(item["f"])}
        yield "factor", ["factor", "--in", "f.json"], files
        yield "kappa", ["kappa", "--in", "f.json"], files

    rng = random.Random(1002)
    for _ in range(n):
        g, r = random_member_pair(rng, max_atoms=6, max_degree=4)
        files = {"g.json": dump(ser.gennev_to_json(g)),
                 "r.json": dump(ser.ratfun_to_json(r))}
        for kind in ("classify", "product"):
            yield kind, [kind, "--in", "g.json", "--r", "r.json"], files

    for pair in _plain_instances(1005, n, worked=True):
        files = {"q.json": dump(pair["q"]), "r.json": dump(pair["r"])}
        for kind in ("chain", "realize"):
            yield kind, [kind, "--in", "q.json", "--r", "r.json"], files

    for item in Oracle._invert_items(1006, n):
        yield "invert", ["invert", "--in", "q.json",
                         f"--interval={item['lo']},{item['hi']}"], \
            {"q.json": dump(item["q"])}

    rng = random.Random(1008)
    count = 0
    while count < n:
        q = random_nevfun(rng, max_atoms=4)
        r = random_symmetric_ratfun(rng, max_degree=4)
        try:
            if check_N00(q, r).ok:
                continue
        except NevkitError:
            continue
        yield "chain_negative", ["chain", "--in", "q.json", "--r", "r.json"], \
            {"q.json": dump(ser.nevfun_to_json(q)),
             "r.json": dump(ser.ratfun_to_json(r))}
        count += 1

    yield "malformed", ["factor", "--in", "f.json"], \
        {"f.json": '{"num": ["1", "2"], "den": ['}
    yield "malformed", ["chain", "--in", "q.json", "--r", "r.json"], \
        {"q.json": '{"alpha": "1/2", "beta": "0", "atoms": [{"t": "1"}]}\n',
         "r.json": '{"num": ["1"], "den": ["0", "1"]}\n'}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cases = []
    seen = {}
    for kind, argv, files in _inputs():
        seen[kind] = seen.get(kind, 0) + 1
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            for name, text in files.items():
                Path(tmp, name).write_text(text)
            proc = subprocess.run([sys.executable, "-m", "nevkit.cli", *argv],
                                  cwd=tmp, env=env, capture_output=True,
                                  text=True, timeout=120)
        case_id = f"{kind}-{seen[kind] - 1}"
        if proc.returncode != EXPECTED_CODE.get(kind, 0):
            raise SystemExit(f"{case_id}: exit {proc.returncode}\n"
                             f"{proc.stderr}")
        cases.append({"id": case_id, "kind": kind, "argv": argv,
                      "files": files, "code": proc.returncode,
                      "stdout": proc.stdout})
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
