"""Statements of wickops' function bodies that a pytest run never reaches.

    python tools/line_reach.py [PYTEST ARGS...]

runs pytest in this process (by default on the whole suite, quietly) under
a sys.settrace hook that records the lines run in src/wickops, then lists
each statement inside a function body whose first line never ran, as
path:line and its text.  Child processes, such as the tests' subprocess CLI
runs, are not traced.  Statements inside an EXEMPT entry are counted apart;
an entry that matches no code is reported, so that the list cannot go stale
unseen.  Exits with pytest's code if it failed, else 1 if a statement is
unreached or an entry is stale.  Tracing about doubles the suite's run time.
Standard library and pytest only.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wickops"

# (file, qualified function name, start of the stripped first line of a
# statement or an except clause): why no test reaches it.  Everything inside
# the first such node in the function is exempt.
EXEMPT = {
    ("analysis.py", "garding_check", "except np.linalg.LinAlgError as exc:"):
        "safety code: eigvalsh does not fail to converge on the finite Hermitian "
        "matrices _assemble lets through",
    ("core.py", "gauss_hermite", "except np.linalg.LinAlgError as exc:"):
        "safety code: hermgauss's eigen-solve converges for every order under the budget",
}


def _has_code(stmt) -> bool:
    """False for statements that compile to nothing: docstrings, other bare
    constants, global and nonlocal."""
    if isinstance(stmt, ast.Expr):
        return not isinstance(stmt.value, ast.Constant)
    return not isinstance(stmt, (ast.Global, ast.Nonlocal))


def statements(path: Path):
    """(line, text, exemption key or None) of each statement with code
    inside a function body of the file, and the EXEMPT keys it matched."""
    lines = path.read_text().splitlines()
    found, matched = [], set()

    def walk(node, scope, in_function, exempt):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.stmt, ast.excepthandler)):
                continue
            text = lines[child.lineno - 1].strip()
            key = next((key for key in EXEMPT if key[:2] == (path.name, scope)
                        and text.startswith(key[2]) and key not in matched), None)
            if key:
                matched.add(key)
            mark = exempt or key
            if in_function and isinstance(child, ast.stmt) and _has_code(child):
                found.append((child.lineno, text, mark))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                walk(child, inner, in_function or not isinstance(child, ast.ClassDef), mark)
            else:
                walk(child, scope, in_function, mark)

    walk(ast.parse("\n".join(lines)), "", False, None)
    return found, matched


def run(pytest_args) -> tuple[int, set]:
    """pytest's exit code and the (file, line) pairs run in PACKAGE."""
    import pytest

    prefix, hits, ours = str(PACKAGE) + os.sep, set(), {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.abspath(name).startswith(prefix)
        return local if ours[name] else None

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {(os.path.abspath(name), line) for name, line in hits}


def main(argv) -> int:
    code, hits = run(argv or ["-q", "-p", "no:cacheprovider", str(ROOT)])
    total = exempt = 0
    unreached, matched = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        found, keys = statements(path)
        matched |= keys
        for line, text, mark in found:
            total += 1
            if mark is not None:
                exempt += 1
            elif (str(path), line) not in hits:
                unreached.append(f"{path.relative_to(ROOT)}:{line}  {text}")
    for line in unreached:
        print(line)
    stale = sorted(set(EXEMPT) - matched)
    for key in stale:
        print("stale exemption:", key)
    print(f"{total} statements in function bodies: {total - exempt - len(unreached)} reached, "
          f"{exempt} exempt, {len(unreached)} unreached")
    return code or int(bool(unreached or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
