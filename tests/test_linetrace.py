"""The line tracer of linetrace.py: what it counts, on inline source, and
the shape of its report on two small tests."""

import ast
import re
import subprocess
import sys
from pathlib import Path

from conftest import child_env
from linetrace import PACKAGE, statement_lines

TESTS = Path(__file__).resolve().parent


def test_statement_lines_skip_docstrings_declarations_and_module_code():
    src = ('x = 1\n'                              # 1 module level
           'def f(a):\n'
           '    """doc"""\n'                      # 3 docstring
           '    global x\n'                       # 4 declaration
           '    if a:\n'                          # 5
           '        return (a +\n'                # 6
           '                1)\n'
           '    def g():\n'                       # 8
           '        nonlocal a\n'                 # 9 declaration
           '        a = 2\n'                      # 10 g's own body
           '    return g\n'                       # 11
           'class C:\n'
           '    y = 2\n'                          # 13 class level
           '    def m(self):\n'
           '        try:\n'                       # 15
           '            pass\n'                   # 16
           '        except ValueError:\n'
           '            raise\n')                 # 18
    assert statement_lines(src) == {5, 6, 8, 10, 11, 15, 16, 18}


def test_linetrace_reports_every_module_on_two_tests():
    ids = ["tests/test_nevfun.py::test_limit_examples",
           "tests/test_qmath.py::test_python_protocol[poly-rsub]"]
    out = subprocess.run(
        [sys.executable, str(TESTS / "linetrace.py"), "-q",
         "-p", "no:cacheprovider", *ids],
        cwd=TESTS.parent, env=child_env(), capture_output=True, text=True,
        timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "2 passed" in out.stdout
    modules = sorted(path.name for path in PACKAGE.glob("*.py"))
    report = out.stdout.splitlines()[-len(modules) - 1:]
    unrun, total = {}, 0
    for name, line in zip(modules, report):
        m = re.fullmatch(rf"{re.escape(name)}: (\d+) of (\d+) unrun"
                         r"((?: \d+)*)", line)
        assert m, line
        unrun[name] = [int(n) for n in m[3].split()]
        assert len(unrun[name]) == int(m[1]) <= int(m[2])
        total += int(m[2])
    assert report[-1] == \
        f"total: {sum(map(len, unrun.values()))} of {total} unrun"
    # limit_at ran, past its docstring, and nothing of the CLI did
    limit_at = next(node for node in ast.walk(ast.parse(
        (PACKAGE / "nevfun.py").read_text()))
        if getattr(node, "name", None) == "limit_at")
    assert limit_at.body[1].lineno not in unrun["nevfun.py"]
    assert len(unrun["cli.py"]) == len(statement_lines(
        (PACKAGE / "cli.py").read_text()))


def test_golden_coverage_reports_every_counted_module_on_two_goldens():
    out = subprocess.run(
        [sys.executable, str(TESTS / "golden_coverage.py"), "factor-0",
         "invert-0"],
        cwd=TESTS.parent, env=child_env(), capture_output=True, text=True,
        timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    share, *modules = out.stdout.splitlines()
    m = re.fullmatch(r"goldens reach (\d+) of (\d+) lines \((\d+\.\d) %\) "
                     r"outside corpus\.py and selftest\.py", share)
    assert m and 0 < int(m[1]) < int(m[2])
    assert float(m[3]) == round(100 * int(m[1]) / int(m[2]), 1)
    names = sorted(path.name for path in PACKAGE.glob("*.py")
                   if path.name not in ("corpus.py", "selftest.py"))
    unreached = {}
    for name, line in zip(names, modules, strict=True):
        m = re.fullmatch(rf"{re.escape(name)}: (\d+) unreached((?: [\w.]+)*)",
                         line)
        assert m, line
        unreached[name] = m[2].split()
        assert len(unreached[name]) == int(m[1])
    # factor and invert reach the factorization and the inversion, and no
    # other verb
    assert "canonical_rational" not in unreached["gnev.py"]
    assert "stieltjes_invert" not in unreached["oracle.py"]
    assert "cmd_chain" in unreached["cli.py"]
    assert "chain_factorize" in unreached["classify.py"]


def test_golden_coverage_refuses_an_unknown_case():
    out = subprocess.run(
        [sys.executable, str(TESTS / "golden_coverage.py"), "no-such-case"],
        cwd=TESTS.parent, env=child_env(), capture_output=True, text=True,
        timeout=120)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr == "no golden case no-such-case\n"
