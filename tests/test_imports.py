"""Four rules on the package source, each read off its AST and each with a
detector test on inline source:

- every name a module imports is used in that module;
- only poly.py takes Sturm sequences, with the exceptions listed;
- Nevanlinna extraction is called only on input that arrives as a RatFun;
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


# Sturm sequences belong to poly.py: every other module reads real roots
# from a root structure and signs from a critical table.  gnev counts the
# real roots of the pieces of a factored pair block, which have no RatFun,
# and selftest checks the isolation against the Sturm count.
STURM_NAMES = {"count_real_roots", "sturm_chain", "isolate_real_roots"}
STURM_ALLOWED = {("gnev.py", "count_real_roots"),
                 ("selftest.py", "count_real_roots"),
                 ("selftest.py", "isolate_real_roots")}


def _sturm_uses(source: str) -> list[tuple[str, int]]:
    """Imports and attribute reads of the Sturm helpers, and calls of a
    ``.sign_of`` method, as (name, line)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names
                      if alias.name in STURM_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in STURM_NAMES:
            found.append((node.attr, node.lineno))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "sign_of"):
            found.append(("sign_of", node.lineno))
    return sorted(found, key=lambda nl: (nl[1], nl[0]))


def test_detector_finds_sturm_helpers():
    src = ("from .poly import Poly, sturm_chain\n"
           "def f(t, p):\n"
           "    from . import poly\n"
           "    return t.sign_of(p) * poly.count_real_roots(p)\n")
    assert _sturm_uses(src) == [("sturm_chain", 1), ("count_real_roots", 4),
                                ("sign_of", 4)]


def test_only_poly_takes_sturm_sequences():
    found = {(path.name, name): line
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "poly.py"
             for name, line in _sturm_uses(path.read_text())}
    assert {key: line for key, line in found.items()
            if key not in STURM_ALLOWED} == {}


# A Nevanlinna function derived from another one is formed in closed form
# and passed on; extraction is for input that arrives as a RatFun: the
# canonical pair of a rational function, the factor verb's Nevanlinna part,
# and selftest's reference checks.
EXTRACTION_ALLOWED = {("gnev.py", "canonical_pair"), ("cli.py", "cmd_factor"),
                      ("selftest.py", "run_selftest")}


def _extraction_calls(source: str) -> list[tuple[Optional[str], int]]:
    """Calls of nevfun_from_ratfun, by name or attribute, as (outermost
    enclosing function or None, line)."""
    found = []

    def visit(node, outer):
        for child in ast.iter_child_nodes(node):
            scope = outer
            if outer is None and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = child.name
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if name == "nevfun_from_ratfun":
                    found.append((scope, child.lineno))
            visit(child, scope)
    visit(ast.parse(source), None)
    return found


def test_detector_finds_extraction_calls():
    src = ("from . import nevfun\nx = nevfun.nevfun_from_ratfun(1)\n"
           "class A:\n    def m(self):\n"
           "        return [nevfun_from_ratfun(f) for f in ()]\n"
           "def g():\n    def h():\n        return nevfun_from_ratfun\n"
           "    return h\n")
    assert _extraction_calls(src) == [(None, 2), ("m", 5)]


def test_extraction_is_called_only_on_rational_input():
    found = {(path.name, scope): line
             for path in sorted(PACKAGE.glob("*.py"))
             for scope, line in _extraction_calls(path.read_text())}
    assert {key: line for key, line in found.items()
            if key not in EXTRACTION_ALLOWED} == {}


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
