"""Nineteen rules on the package source, each read off its AST and each with
a detector test on inline source:

- every name a module imports is used in that module;
- no module imports dataclasses;
- only qmath.py reads sys.modules;
- only poly.py isolates or counts real roots, with the exceptions listed;
- no method of RealAlg isolates or counts real roots;
- Nevanlinna extraction is called only on input that arrives as a RatFun;
- real_root_structure is called only by RatFun._num_roots and _den_roots,
  and they only by RatFun._table;
- RatFun._with_table is called only by the four functions that know the
  table they give;
- sign_on_interval is called only by classify.negative_closed_pieces;
- outside ratfun.py no module reads a RatFun's table slot or merges tables;
- closed forms are certified only by nevfun's _chain_step and _compose;
- classify composes with no Moebius map;
- classify reads every sign off a critical table, evaluating nothing;
- gnev and classify never call the gcd constructor RatFun(num, den);
- the kind strings "GZNT" and "GPNT" occur only in serialize.py;
- the signed type rule _type_mult is called only where a type table or a
  type multiplicity is read off critical tables;
- check_N00 is called only by the plain-pair gate and by the two readers
  of its full report;
- the refusal of a failed plain pair is written once;
- every function, method and class has a caller in the package, or is on
  an allowlist that says why it is kept.
"""

import ast
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional

import nevkit
from test_perfbench_layers import _layers

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nevkit"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "np.ndarray"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr)
                        if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(
        imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_detector_finds_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import math, os.path\nfrom a import b as c, d\n"
           "def f(x: 'd') -> int:\n    return math.floor(x)\n")
    assert _unused_imports(src) == ["os (line 2)", "c (line 3)"]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: _unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             # the package's __init__ re-exports what it imports
             if path.name != "__init__.py"}
    assert {name: unused for name, unused in found.items() if unused} == {}


def _dataclasses_imports(source: str) -> list[int]:
    """The lines that import the dataclasses module or a name from it."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import)
        and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "dataclasses")


def test_detector_finds_dataclasses_imports():
    src = ("import os, dataclasses as dc\nfrom dataclasses import field\n"
           "from .qmath import record\n"
           "def f():\n    from dataclasses import dataclass\n"
           "    return dataclass\n")
    assert _dataclasses_imports(src) == [1, 2, 5]


def test_no_module_imports_dataclasses():
    """Records are qmath.record classes: the dataclasses import and the
    methods it compiles with exec cost every process at start-up."""
    found = {path.name: _dataclasses_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


# Whether numpy is loaded is asked in one place, qmath.is_float_point, which
# tells every float evaluator's dispatch what a float point is.
def _sys_modules_reads(source: str) -> list[int]:
    """The lines that read sys.modules or import it from sys."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "modules"
        and isinstance(node.value, ast.Name) and node.value.id == "sys"
        or isinstance(node, ast.ImportFrom) and node.module == "sys"
        and any(a.name == "modules" for a in node.names))


def test_detector_finds_sys_modules_reads():
    src = ("import sys\nfrom sys import modules as m, path\n"
           "def f(z):\n    np = sys.modules.get('numpy')\n"
           "    return sys.path, m, np\n")
    assert _sys_modules_reads(src) == [2, 4]


def test_only_qmath_reads_sys_modules():
    found = {path.name: _sys_modules_reads(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "qmath.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


# Real roots are isolated and counted in poly.py: every other module reads
# real roots from a root structure and signs from a critical table.
# selftest checks the isolation against numpy's roots.
ROOT_NAMES = {"count_real_roots", "isolate_real_roots", "_rational_split",
              "_boxes"}
ROOT_ALLOWED = {("selftest.py", "isolate_real_roots")}


def _root_uses(source: str) -> list[tuple[str, int]]:
    """Imports and attribute reads of the root helpers, and calls of a
    ``.sign_of`` method, as (name, line)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names
                      if alias.name in ROOT_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in ROOT_NAMES:
            found.append((node.attr, node.lineno))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "sign_of"):
            found.append(("sign_of", node.lineno))
    return sorted(found, key=lambda nl: (nl[1], nl[0]))


def test_detector_finds_root_helpers():
    src = ("from .poly import Poly, isolate_real_roots\n"
           "def f(t, p):\n"
           "    from . import poly\n"
           "    return t.sign_of(p) * poly.count_real_roots(p)\n")
    assert _root_uses(src) == [("isolate_real_roots", 1),
                               ("count_real_roots", 4), ("sign_of", 4)]


def test_only_poly_isolates_or_counts_real_roots():
    found = {(path.name, name): line
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "poly.py"
             for name, line in _root_uses(path.read_text())}
    assert {key: line for key, line in found.items()
            if key not in ROOT_ALLOWED} == {}


# Within poly.py, no RealAlg method isolates or counts real roots: a real
# algebraic number answers every query from its box, and a sign from the
# table of the polynomial it is asked about.
REALALG_ROOTS = ROOT_NAMES | {"_taylor1", "_variations"}


def _method_root_uses(source: str, cls: str) -> list[tuple[str, int]]:
    """Names and attributes among REALALG_ROOTS in the body of the class
    ``cls``, as (name, line)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for n in ast.walk(node):
                name = n.id if isinstance(n, ast.Name) else \
                    n.attr if isinstance(n, ast.Attribute) else None
                if name in REALALG_ROOTS:
                    found.append((name, n.lineno))
    return sorted(found, key=lambda nl: (nl[1], nl[0]))


def test_detector_finds_root_isolation_in_realalg():
    src = ("def count(p):\n    return _variations(_taylor1(p))\n"
           "class RealAlg:\n    def sign_of(self, q):\n"
           "        boxes = _boxes(q, [])\n"
           "        return poly.count_real_roots(q, 0, 1)\n"
           "class Other:\n    def f(self, c):\n"
           "        return _variations(c)\n")
    assert _method_root_uses(src, "RealAlg") == [("_boxes", 5),
                                                 ("count_real_roots", 6)]


def test_realalg_isolates_no_real_roots():
    assert _method_root_uses((PACKAGE / "poly.py").read_text(),
                             "RealAlg") == []


def _calls(source: str, name: str) -> list[tuple[Optional[str], int]]:
    """Calls of the function ``name``, by name or attribute, as (the
    dotted names of the enclosing classes and functions, or None, line)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = child.name if scope is None \
                    else f"{scope}.{child.name}"
            if isinstance(child, ast.Call):
                f = child.func
                called = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if called == name:
                    found.append((scope, child.lineno))
            visit(child, inner)
    visit(ast.parse(source), None)
    return found


def _package_calls(name: str) -> dict:
    """{(file, enclosing scope): line} of the calls of ``name`` in the
    package."""
    return {(path.name, scope): line
            for path in sorted(PACKAGE.glob("*.py"))
            for scope, line in _calls(path.read_text(), name)}


def test_detector_finds_extraction_calls():
    src = ("from . import nevfun\nx = nevfun.nevfun_from_ratfun(1)\n"
           "class A:\n    def m(self):\n"
           "        return [nevfun_from_ratfun(f) for f in ()]\n"
           "def g():\n    def h():\n        return nevfun_from_ratfun\n"
           "    return h(nevfun_from_ratfun(2))\n")
    assert _calls(src, "nevfun_from_ratfun") == [(None, 2), ("A.m", 5),
                                                 ("g", 9)]


# A Nevanlinna function derived from another one is formed in closed form
# and passed on; extraction is for input that arrives as a RatFun: the
# canonical pair of a rational function, the factor verb's Nevanlinna part,
# and selftest's reference checks, which run in its nested functions.
EXTRACTION_ALLOWED = {"gnev.py canonical_pair", "cli.py cmd_factor",
                      "selftest.py run_selftest"}


def test_extraction_is_called_only_on_rational_input():
    found = {f"{fname} {scope and scope.split('.')[0]}": line
             for (fname, scope), line
             in _package_calls("nevfun_from_ratfun").items()}
    assert {key: line for key, line in found.items()
            if key not in EXTRACTION_ALLOWED} == {}


# Root analysis has one path: a RatFun analyses its own polynomials when a
# table is first read and was not given, in _table, and every other table
# travels with the function it belongs to.  Tables are given only where
# they are known, by four functions: from_table's from its data, a scalar
# multiple's and a merged product's from the operands, and a NevFun's
# RatFun from its representation.  A constant and from_points' function
# are scalar multiples of from_table's.  An inverse or a Moebius image is
# given none.
TABLE_GIVERS = {("ratfun.py", "RatFun.__mul__"),
                ("ratfun.py", "RatFun._times"),
                ("ratfun.py", "from_table"),
                ("nevfun.py", "NevFun.to_ratfun")}
ANALYSIS_ALLOWED = {("ratfun.py", "RatFun._num_roots"),
                    ("ratfun.py", "RatFun._den_roots")}
ANALYSIS_ENTRIES = ("_num_roots", "_den_roots")


def test_detector_finds_root_analysis_and_given_tables():
    src = ("class RatFun:\n    def _num_roots(self):\n"
           "        return real_root_structure(self.num)\n"
           "    @classmethod\n    def _with_table(cls, *a):\n"
           "        return cls._with_table(*a)\n"
           "    def _table(self):\n"
           "        return self._num_roots(), self._den_roots()\n"
           "def stray(p):\n    return poly.real_root_structure(p)\n"
           "f = RatFun._with_table(1, 2)\n"
           "g = f._den_roots()\n")
    assert _calls(src, "real_root_structure") == [
        ("RatFun._num_roots", 3), ("stray", 10)]
    assert _calls(src, "_with_table") == [("RatFun._with_table", 6),
                                          (None, 11)]
    assert _calls(src, "_num_roots") == [("RatFun._table", 8)]
    assert _calls(src, "_den_roots") == [("RatFun._table", 8), (None, 12)]


def test_root_analysis_is_called_only_by_a_ratfun_on_itself():
    found = _package_calls("real_root_structure")
    assert set(found) <= ANALYSIS_ALLOWED
    for name in ANALYSIS_ENTRIES:
        assert set(_package_calls(name)) == {("ratfun.py", "RatFun._table")}


def test_detector_finds_a_table_given_elsewhere():
    src = ("class RatFun:\n    def inverse(self):\n"
           "        return RatFun._with_table(self.den, self.num, t)\n"
           "    def _times(self, other, sign):\n"
           "        return self._with_table(num, den, t)\n")
    found = _calls(src, "_with_table")
    assert found == [("RatFun.inverse", 3), ("RatFun._times", 5)]
    assert {("ratfun.py", scope) for scope, _line in found} - TABLE_GIVERS \
        == {("ratfun.py", "RatFun.inverse")}


def test_tables_are_given_only_where_they_are_known():
    assert set(_package_calls("_with_table")) == TABLE_GIVERS


# The sign segments of the whole line have one reader, the closed negative
# pieces of a multiplier; every other sign is read at a point.
SEGMENT_READERS = {("classify.py", "negative_closed_pieces")}


def test_detector_finds_sign_segment_reads():
    src = ("def negative_closed_pieces(f):\n"
           "    return [(a, b) for a, b, s in f.sign_on_interval() if s < 0]\n"
           "class Chain:\n    def arcs(self, s):\n"
           "        return RatFun.sign_on_interval(s)\n")
    assert _calls(src, "sign_on_interval") == [
        ("negative_closed_pieces", 2), ("Chain.arcs", 5)]


def test_sign_segments_are_read_only_for_negative_pieces():
    assert set(_package_calls("sign_on_interval")) == SEGMENT_READERS


# A RatFun keeps its table in one slot, and only ratfun.py merges tables:
# a table given or merged travels as it is and is never split or merged
# again on its way, so no other module reads the slot or calls a merge.
TABLE_MERGES = ("_merge", "_merge_blocks")


def _table_uses(source: str) -> list[tuple[str, int]]:
    """Reads of the table slot ``_tab``, and imports and calls of the
    table merges, as (name, line)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "_tab":
            found.append(("_tab", node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names
                      if alias.name in TABLE_MERGES]
    found += [(name, line) for name in TABLE_MERGES
              for _scope, line in _calls(source, name)]
    return sorted(found, key=lambda nl: (nl[1], nl[0]))


def test_detector_finds_table_reads_and_merges():
    src = ("from .ratfun import RatFun, _merge as m\n"
           "def f(r, a, b):\n"
           "    t = r._tab\n"
           "    return ratfun._merge(a, b), _merge_blocks(a, b, 1), m, t\n")
    assert _table_uses(src) == [("_merge", 1), ("_tab", 3), ("_merge", 4),
                                ("_merge_blocks", 4)]


def test_only_ratfun_reads_or_merges_tables():
    found = {path.name: _table_uses(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "ratfun.py"}
    assert {name: uses for name, uses in found.items() if uses} == {}


# A Nevanlinna function built in closed form has one certificate, reached
# through two constructions: a degree-one product s q / psi, the chain step
# that the chain, the gap representatives, the corpus and the product share,
# and a composition with a degree-one Herglotz map.
CERTIFIED_ALLOWED = {("nevfun.py", "_chain_step"), ("nevfun.py", "_compose")}


def test_detector_finds_certificates_outside_the_steps():
    src = ("def _chain_step(s, q):\n    return _certified(1, 2, [], 'a')\n"
           "def _degree_one_step(s, q):\n"
           "    return nevfun._certified(1, 2, [], 'b')\n")
    assert _calls(src, "_certified") == [("_chain_step", 2),
                                         ("_degree_one_step", 4)]


def test_closed_forms_are_certified_only_by_the_two_steps():
    assert set(_package_calls("_certified")) == CERTIFIED_ALLOWED


# The chain walks the negative arcs of the extended line in one pass, so
# classify has no change of variable: it neither imports nevfun's _compose
# nor calls RatFun.compose_mobius.
def _moebius_uses(source: str) -> list[tuple[str, int]]:
    """Imports of _compose and calls of _compose or compose_mobius, as
    (name, line)."""
    found = [(alias.name, node.lineno)
             for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name == "_compose"]
    found += [(name, line) for name in ("_compose", "compose_mobius")
              for _scope, line in _calls(source, name)]
    return sorted(found, key=lambda item: item[1])


def test_detector_finds_moebius_detours():
    src = ("from .nevfun import NevFun, _compose as c\n"
           "def build(q, r, tau):\n"
           "    return c(q, tau), r.compose_mobius(tau), _compose(q, tau)\n")
    assert _moebius_uses(src) == [("_compose", 1), ("_compose", 3),
                                  ("compose_mobius", 3)]


def test_classify_takes_no_moebius_detour():
    assert _moebius_uses((PACKAGE / "classify.py").read_text()) == []


# classify reads every order and sign at a real point off a critical table
# (ord_at, laurent_lead_sign, sign_right_of, sign_at), so it evaluates no
# function, takes no limit and reads no local data of a representation.
EVALUATING = ("evaluate", "eval_q", "limit_at", "_local", "_local_at")


def _evaluations(source: str) -> list[tuple[str, int]]:
    """Calls of the evaluating functions, as (name, line)."""
    return sorted(((name, line) for name in EVALUATING
                   for _scope, line in _calls(source, name)),
                  key=lambda item: (item[1], item[0]))


def test_detector_finds_evaluations():
    src = ("def clause(q, r, x):\n"
           "    v = q.evaluate(x) * r.eval_q(x)\n"
           "    lim = q.limit_at(x, 'value', side='-')\n"
           "    return v, lim, _local(r.num, r.den, x), q._local_at(x)\n")
    assert _evaluations(src) == [("eval_q", 2), ("evaluate", 2),
                                 ("limit_at", 3), ("_local", 4),
                                 ("_local_at", 4)]


def test_classify_reads_signs_off_tables():
    assert _evaluations((PACKAGE / "classify.py").read_text()) == []


# The canonical factorizations build every function from tables they hold,
# by merging, scaling or from zeros and poles, so neither gnev nor classify
# reduces a pair of polynomials by a gcd.
REDUCING = ("gnev.py", "classify.py")


def test_detector_finds_gcd_constructions():
    src = ("from .ratfun import RatFun\n"
           "def psi(num, den):\n"
           "    return RatFun.from_points([], []) * RatFun(num, den)\n"
           "one = ratfun.RatFun(Poly.const(1), Poly.const(1))\n")
    assert _calls(src, "RatFun") == [("psi", 3), (None, 4)]


def test_factorizations_reduce_nothing_by_a_gcd():
    assert {name: _calls((PACKAGE / name).read_text(), "RatFun")
            for name in REDUCING} == {name: [] for name in REDUCING}


# The points of nonpositive type are one signed table, (point, m) with m > 0
# at a generalized zero and m < 0 at a generalized pole; the kind strings
# name them only in the JSON that serialize.py emits.
KINDS = ("GZNT", "GPNT")


def _kind_literals(source: str) -> list[tuple[str, int]]:
    """String constants that are a kind string, as (kind, line)."""
    return sorted(((node.value, node.lineno)
                   for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Constant) and node.value in KINDS),
                  key=lambda item: (item[1], item[0]))


def test_detector_finds_kind_literals():
    src = ('"""Records of GZNT points."""\n'
           "def kinds(m):\n"
           "    return 'GZNT' if m > 0 else \"GPNT\"\n"
           "PAIR = ('GPNT', 'GZNTs')\n")
    assert _kind_literals(src) == [("GPNT", 3), ("GZNT", 3), ("GPNT", 4)]


def test_kind_strings_only_in_serialize():
    found = {path.name: _kind_literals(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "serialize.py"}
    assert {name: lits for name, lits in found.items() if lits} == {}


# One signed rule gives every type multiplicity: the table of a rational
# function, and the type of s q at the ends of a degree-one step and at the
# points of a simple multiplier in membership form (ii).
TYPE_RULE_ALLOWED = {("gnev.py", "nonpositive_type_records"),
                     ("classify.py", "_degree_one_step"),
                     ("classify.py", "productinNg_forms")}


def test_detector_finds_type_rule_calls():
    src = ("from .gnev import _type_mult\n"
           "def nonpositive_type_records(f):\n"
           "    return [_type_mult(e, 1) for e in f]\n"
           "def balance(f):\n    return gnev._type_mult(1, -1)\n")
    assert _calls(src, "_type_mult") == [("nonpositive_type_records", 3),
                                         ("balance", 5)]


def test_type_rule_is_called_only_at_its_three_sites():
    assert set(_package_calls("_type_mult")) == TYPE_RULE_ALLOWED


# A failed plain pair is refused in one place: plain_pair passes the report
# on or raises NotInClass naming the failed clauses, and the chain, the Kac
# closure and the model transfer call it.  check_N00 itself is called only
# by the gate and where the full report is read whether the pair passes or
# not: the chain verb's failure output and the selftest filter.
PLAIN_PAIR_TEST_ALLOWED = {("classify.py", "plain_pair"),
                           ("cli.py", "cmd_chain"),
                           ("selftest.py", "run_selftest")}
REFUSAL = "pair fails the plain-pair test"


def test_detector_finds_plain_pair_tests():
    src = ("def plain_pair(q, r):\n    return check_N00(q, r)\n"
           "def run(q, r):\n    def inner():\n"
           "        return classify.check_N00(q, r)\n"
           "    return inner(), check_N00.cache_info()\n")
    assert _calls(src, "check_N00") == [("plain_pair", 2),
                                        ("run.inner", 5)]


def test_check_n00_is_called_only_by_the_gate_and_report_readers():
    assert {(fname, scope.split(".")[0])
            for fname, scope in _package_calls("check_N00")} \
        == PLAIN_PAIR_TEST_ALLOWED


def _occurrences(sources: dict[str, str], text: str) -> dict[str, int]:
    """{file: count} of the files whose source contains text."""
    return {name: src.count(text) for name, src in sources.items()
            if text in src}


def test_detector_finds_refusal_texts():
    sources = {"a.py": f'raise E(f"{REFUSAL}: {{rep.describe()}}")\n',
               "b.py": "x = 1\n",
               "c.py": f'raise E("{REFUSAL}")\n# {REFUSAL}\n'}
    assert _occurrences(sources, REFUSAL) == {"a.py": 1, "c.py": 2}


def test_a_failed_plain_pair_is_refused_in_one_place():
    assert _occurrences({path.name: path.read_text()
                         for path in sorted(PACKAGE.glob("*.py"))},
                        REFUSAL) == {"classify.py": 1}


# A definition whose name the package never uses is dead, and goes.  Dunder
# methods are called by Python and the names in nevkit.__all__ by users; the
# rest that only tests or the benchmark reach stays only with its reason.
# An entry fails once it is no longer defined or gains a caller.
PAPER = "states a result of the paper"
BENCH_LAYER = "wrapped by name in the benchmark's layer view"
DEAD_ALLOWED = {
    ("classify.py", "productinNg_forms"): PAPER,
    ("nevfun.py", "NevFun.gap_characterize"): PAPER,
    ("nevfun.py", "NevFun.corollary_products"): PAPER,
    ("nevfun.py", "NevFun.spectral_gaps"): PAPER,
    ("oracle.py", "gap_detect"): PAPER,
    ("gnev.py", "GenNevFun.balance_check"): PAPER,
    ("classify.py", "KacClosureReport.all_hold"):
        "the accessor of the Kac closure report",
    ("corpus.py", "structured_plain_pair"):
        "generates pairs with interior double points",
    ("serialize.py", "model_from_json"): "the inverse of model_to_json",
    ("poly.py", "irreducible_factors"):
        "the reference that test_irreducible_factors_match_sympy checks",
    ("poly.py", "RealAlg.sign_of"): BENCH_LAYER,
    ("oracle.py", "build_kernel_sample"): BENCH_LAYER,
}


def _names(node: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _dead_definitions(sources: dict[str, str], public: set[str],
                      allowed: Iterable[tuple[str, str]]
                      ) -> tuple[list, list]:
    """The functions, methods and classes, as (file, qualified name), whose
    name appears in no source outside their own body as a name or an
    attribute (strings do not count), dunders and the top-level names in
    public aside: those not in allowed, and the entries of allowed that are
    not among them."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    dead = []

    def visit(node, fname, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                visit(child, fname, prefix)
                continue
            name, qual = child.name, prefix + child.name
            if not (name.startswith("__") and name.endswith("__")
                    or qual in public
                    or used[name] > _names(child)[name]):
                dead.append((fname, qual))
            visit(child, fname, qual + ".")
    for fname, tree in trees.items():
        visit(tree, fname, "")
    allowed = list(allowed)
    return ([d for d in dead if d not in allowed],
            [a for a in allowed if a not in dead])


def test_detector_finds_dead_definitions():
    sources = {
        "a.py": ("def api():\n    return _helper() + C().used()\n"
                 "def _helper():\n    return 1\n"
                 "def _uncalled():\n    return _helper()\n"
                 "def _recursive(n):\n"
                 "    return _recursive(n - 1) if n else 0\n"
                 "def _kept():\n    pass\n"
                 "def _gains_a_caller():\n    pass\n"),
        "b.py": ("from a import _gains_a_caller\n"
                 "class C:\n"
                 "    def __len__(self):\n        return 0\n"
                 "    def used(self):\n        return _gains_a_caller()\n"
                 "    def uncalled(self):\n"
                 "        \"\"\"api, _kept\"\"\"\n        return self.used()\n"),
    }
    allowed = [("a.py", "_kept"), ("a.py", "_gains_a_caller"),
               ("a.py", "_gone")]
    assert _dead_definitions(sources, {"api"}, allowed) == (
        [("a.py", "_uncalled"), ("a.py", "_recursive"),
         ("b.py", "C.uncalled")],
        [("a.py", "_gains_a_caller"), ("a.py", "_gone")])


def test_no_dead_definitions():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead_definitions(sources, set(nevkit.__all__),
                             DEAD_ALLOWED) == ([], [])
    # once the benchmark stops wrapping them, these go too
    wrapped = {(f"{module}.py", attribute)
               for entries in _layers().values()
               for module, attribute in entries}
    assert {key for key, why in DEAD_ALLOWED.items()
            if why == BENCH_LAYER} <= wrapped
