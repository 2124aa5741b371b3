"""Checks on the package's sources and on the README: the engine is
configured by its config and its arguments only, every export and every
private helper has a user, every raise is typed, and the README's Python
sketch runs."""

import ast
import builtins
import re
from pathlib import Path

import mmvcone
import mmvcone.errors

_AMBIENT = re.compile(r"os\.environ|os\.getenv|concurrent\.futures")
_PACKAGE = Path(mmvcone.__file__).parent
_README = Path(__file__).resolve().parents[1] / "README.md"


def test_engine_reads_no_environment_and_starts_no_pool():
    sources = sorted(_PACKAGE.glob("*.py"))
    assert sources
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in sources
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if _AMBIENT.search(line)]
    assert hits == []


def test_every_export_is_used_by_the_engine_an_acceptance_test_or_the_readme():
    # a name mmvcone exports is referenced on a line of another engine module
    # (not its own def or class line), in test_acceptance.py or in README.md
    tree = ast.parse((_PACKAGE / "__init__.py").read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) > 30
    lines = [line for path in sorted(_PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for line in path.read_text().splitlines()]
    documented = (_README.read_text()
                  + (Path(__file__).parent / "test_acceptance.py").read_text())
    unused = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not (word.search(documented)
                or any(word.search(line) and not own.match(line) for line in lines)):
            unused.append(name)
    assert unused == []


def _private_definitions(tree):
    """(name, line) of each underscore-named (not dunder) module-level
    function, class or constant and each such method of a module-level class."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and private(item.name):
                    yield item.name, item.lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and private(target.id):
                yield target.id, node.lineno


def test_every_private_helper_is_referenced_in_the_engine():
    # an underscore name defined in src/mmvcone is referenced on some line of
    # the package other than the one that defines it
    files = {path.name: path.read_text().splitlines() for path in sorted(_PACKAGE.glob("*.py"))}
    defined = [(name, file, line) for file, lines in files.items()
               for name, line in _private_definitions(ast.parse("\n".join(lines)))]
    assert len(defined) > 50
    unused = []
    for name, file, line in defined:
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for f, lines in files.items()
                   for i, text in enumerate(lines, 1) if (f, i) != (file, line)):
            unused.append(f"{file}:{line}: {name}")
    assert unused == []


def test_every_raise_is_typed_or_a_re_raise():
    # a raise in src names a subclass of MmvConeError, or re-raises an
    # exception object it holds; forksplit's ChildProcessError, a failure of
    # the forked child rather than of the engine's input, is the one exception
    listed = {("forksplit.py", "ChildProcessError")}
    untyped = []
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            elif not (isinstance(exc, ast.Name)
                      and isinstance(getattr(builtins, exc.id, None), type)):
                continue                        # bare raise, or raise of a held exception
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            cls = getattr(mmvcone.errors, name or "", None)
            typed = isinstance(cls, type) and issubclass(cls, mmvcone.errors.MmvConeError)
            if not typed and (path.name, name) not in listed:
                untyped.append(f"{path.name}:{node.lineno}: raise {name}(...)")
    assert untyped == []


def test_readme_python_sketch_runs(capsys):
    sketch = re.search(r"## Python API sketch\s+```python\n(.*?)```", _README.read_text(), re.S)
    assert sketch
    exec(compile(sketch.group(1), str(_README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3 and printed[-1] == "True"
