"""Which code of src/nevkit the CLI goldens reach.

    python tests/golden_coverage.py [case id ...]

runs the cases of perfbench/goldens/cli.json (all of them, or those named)
through nevkit.cli.main in this process, each in a new temporary directory,
under the line tracer of linetrace.py.  It prints the share of statement
lines in function bodies that the cases reach outside corpus.py and
selftest.py, then, for each of those modules, the functions that no case
reaches: a method as Class.name, a nested function as outer.name, and a
function inside one that is listed is not listed again.  The golden file is
only read.
"""

import ast
import contextlib
import io
import json
import os
import sys
import tempfile

from linetrace import PACKAGE, statement_lines, traced

GOLDENS = PACKAGE.parent.parent / "perfbench" / "goldens" / "cli.json"
#: generators and the selftest, which no verb but selftest runs
NOT_COUNTED = ("corpus.py", "selftest.py")


def _functions(node, prefix=""):
    """(qualified name, node) of the functions under node, outermost
    first, each followed by those defined inside it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def run_cases(cases: list) -> set:
    """The (file name, line) of src/nevkit that the cases run."""
    from nevkit.cli import main
    here = os.getcwd()
    with traced() as ran:
        for case in cases:
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                try:
                    for name, text in case["files"].items():
                        with open(name, "w") as fh:
                            fh.write(text)
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        main(case["argv"])
                finally:
                    os.chdir(here)
    return ran


def report(ran: set) -> list[str]:
    """The share line, then one line per module: its unreached functions."""
    reached = total = 0
    lines = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in NOT_COUNTED:
            continue
        source = path.read_text()
        counted = statement_lines(source)
        hit = {line for name, line in ran if name == str(path)} & counted
        reached += len(hit)
        total += len(counted)
        missed = []
        for name, fn in _functions(ast.parse(source)):
            own = {line for line in counted
                   if fn.lineno <= line <= fn.end_lineno}
            if own and not own & hit and not any(
                    name.startswith(outer + ".") for outer in missed):
                missed.append(name)
        lines.append(f"{path.name}: {len(missed)} unreached "
                     f"{' '.join(missed)}".rstrip())
    share = f"{100 * reached / total:.1f} %"
    return [f"goldens reach {reached} of {total} lines ({share}) "
            f"outside {' and '.join(NOT_COUNTED)}", *lines]


def main(ids: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    cases = json.loads(GOLDENS.read_text())["cases"]
    chosen = [case for case in cases if not ids or case["id"] in ids]
    unknown = set(ids) - {case["id"] for case in chosen}
    if unknown:
        print(f"no golden case {' '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    print(*report(run_cases(chosen)), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
