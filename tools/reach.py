"""List the engine statements that no tier-1 test executes.

Runs the tier-1 suite with pytest in this process under sys.settrace and
threading.settrace, recording the lines executed in src/mmvcone, and prints
per module every statement (docstrings excluded) that never ran.  Forked
children are not traced: forksplit's child bodies and the simulate drawer
run in processes whose lines are lost, so a statement only they run is
listed too.

    python tools/reach.py [pytest arguments]
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "mmvcone"
ran: dict[str, set[int]] = {}


def _trace(frame, event, arg):
    """Global tracer: a line tracer for the package's frames only."""
    if not frame.f_code.co_filename.startswith(str(PKG)):
        return None
    lines = ran.setdefault(frame.f_code.co_filename, set())

    def line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return line
    return line


def _unrun(path: Path, lines: set[int]) -> list[int]:
    """First lines of the statements of path, docstrings excluded, none of
    whose lines ran: its own, a decorator's, or for a try its body's first."""
    tree = ast.parse(path.read_text())
    docs = {id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}
    missed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docs:
            continue
        own = {node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))}
        if isinstance(node, ast.Try):       # `try:` itself compiles to no line
            own.add(node.body[0].lineno)
        if not own & lines:
            missed.add(node.lineno)
    return sorted(missed)


def main(args) -> int:
    sys.settrace(_trace)
    threading.settrace(_trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args], plugins=[])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("\nStatements no test executed (forked children untraced):")
    for path in sorted(PKG.glob("*.py")):
        missed = _unrun(path, ran.get(str(path), set()))
        source = path.read_text().splitlines()
        print(f"{path.relative_to(ROOT)}: {len(missed)}")
        for n in missed:
            print(f"  {n:5d}  {source[n - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [str(ROOT / "tests")]))
