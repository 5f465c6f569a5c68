"""Statement trace of the Tier-1 suite over src/trustpd.

Runs `pytest -p no:cacheprovider --hypothesis-seed=0 tests` in this process,
under `sys.settrace` and `threading.settrace`, and records the line events
of every frame whose code lives in src/trustpd. `ast` maps each line to the
statements that hold it: a statement ran when an event fell inside its
lines, and an `except` clause ran when an event fell inside its body.
Docstrings, `global` and `nonlocal` compile to nothing and are skipped.

Every other statement that never ran is printed as path:line with its first
line of source. Two kinds may stay unrun: a `raise`, and the body of
`if __name__ == "__main__":`, which only a subprocess runs. An `except`
clause whose body is only `raise` statements counts as one statement, so a
handler that nothing reaches is listed too. Exits 1 when the tests fail or
any statement outside those two kinds never ran, and 0 otherwise.

Uses the standard library alone, besides the pytest it runs. From the
repository root, with the test dependencies installed:

    python tools/statement_trace.py
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trustpd"


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _is_main_guard(node: ast.stmt) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name) and node.test.left.id == "__name__"
            and [getattr(c, "value", None) for c in node.test.comparators] == ["__main__"])


def statements(tree: ast.Module):
    """(node, first, last) for every statement and `except` clause outside
    the `__main__` body and the docstrings: the lines an event must fall on
    for it to count as run."""
    out = []

    def visit(parent):
        for field in ("body", "orelse", "finalbody", "handlers"):
            for node in getattr(parent, field, ()):
                if isinstance(node, ast.excepthandler):
                    out.append((node, node.body[0].lineno, node.end_lineno))
                elif not (_is_docstring(node, parent)
                          or isinstance(node, (ast.Global, ast.Nonlocal))):
                    first = min([node.lineno] + [d.lineno for d in
                                                 getattr(node, "decorator_list", ())])
                    out.append((node, first, node.end_lineno))
                    if _is_main_guard(node):
                        continue  # only a subprocess runs its body
                visit(node)

    visit(tree)
    return out


def unrun(path: Path, hit: set[int]) -> list[tuple[int, str]]:
    """(line, first line of source) of every statement of the file that
    never ran and may not stay unrun."""
    source = path.read_text()
    lines = source.splitlines()
    missing = []
    for node, first, last in statements(ast.parse(source)):
        if isinstance(node, ast.Raise) or any(line in hit for line in range(first, last + 1)):
            continue
        if isinstance(node, ast.excepthandler) and not all(
                isinstance(child, ast.Raise) for child in node.body):
            continue  # its body's statements are listed themselves
        missing.append((node.lineno, lines[node.lineno - 1].strip()))
    return missing


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    files = {str(p.resolve()): set() for p in sorted(PACKAGE.glob("*.py"))}
    tracers: dict[str, object] = {}

    def tracer_for(hits):
        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return tracers[name]
        except KeyError:
            hits = files.get(str(Path(name).resolve())) if name[:1] != "<" else None
            tracers[name] = tracer_for(hits) if hits is not None else None
            return tracers[name]

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-p", "no:cacheprovider", "--hypothesis-seed=0", "-q",
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name, hits in files.items():
        path = Path(name)
        for line, text in unrun(path, hits):
            total += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{total} statement(s) in src/trustpd never ran under the tests "
          f"(raise statements and the __main__ body excepted); pytest exit code {code}")
    return 1 if code != 0 or total else 0


if __name__ == "__main__":
    sys.exit(main())
