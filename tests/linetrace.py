"""Which statement lines in function bodies of src/nevkit never run.

    python tests/linetrace.py [pytest arguments]

runs pytest in this process under sys.settrace and prints, for each module
of src/nevkit, how many statement lines in function bodies no test ran, and
which.  Docstrings and global/nonlocal declarations are not counted: they
compile to no line of their own.  Child processes, such as the CLI tests'
fresh interpreters, are not traced.  The exit status is pytest's.
"""

import ast
import sys
from contextlib import contextmanager
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nevkit"
NOT_A_LINE = (ast.Global, ast.Nonlocal)
OWN_SCOPE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.expr)


def _body_lines(node: ast.AST):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt) and not isinstance(child, NOT_A_LINE):
            yield child.lineno
        if not isinstance(child, OWN_SCOPE):
            yield from _body_lines(child)


def statement_lines(source: str) -> set[int]:
    """The lines of the statements in function bodies, docstrings not
    counted; a nested function's body counts as its own."""
    lines = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(_body_lines(fn))
            if ast.get_docstring(fn) is not None:
                lines.discard(fn.body[0].lineno)
    return lines


@contextmanager
def traced():
    """Yields the set of (file name, line) that run inside the block, for
    the files of src/nevkit."""
    ran, prefix = set(), str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        yield ran
    finally:
        sys.settrace(previous)


def unrun(ran: set) -> dict[str, list[int]]:
    """{module file name: its unrun statement lines, ascending}."""
    return {path.name: sorted(statement_lines(path.read_text())
                              - {line for name, line in ran
                                 if name == str(path)})
            for path in sorted(PACKAGE.glob("*.py"))}


def main(args: list[str]) -> int:
    import pytest
    with traced() as ran:
        status = pytest.main(args)
    missed = unrun(ran)
    totals = {name: len(statement_lines((PACKAGE / name).read_text()))
              for name in missed}
    for name, lines in missed.items():
        print(f"{name}: {len(lines)} of {totals[name]} unrun", *lines)
    print(f"total: {sum(map(len, missed.values()))} of "
          f"{sum(totals.values())} unrun")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
