"""The package's surface: every top-level function and class of
src/coxline, and every method, classmethod and property of its classes,
has a caller besides its own definition, so the package holds only what
its commands, its library example and the benchmark use.

References are counted in the code of src/ (names and attributes, not
docstrings or comments), and as whole words in perfbench/*.py, tools/*.py
and the README's library example.  Tests do not count: a definition that
only tests use belongs beside them (tests/reference.py).

The guard is coarse.  It matches by bare name: any ast name or attribute
with the same identifier anywhere in src/ counts as a caller, whatever
object it refers to, and so does a whole-word hit anywhere in the perfbench
and tools files, comments and strings included.  So a test-only function
with a common name (h0, chi) would pass.  Dunder methods, operators
included, are not checked: Python calls them through syntax, which the
bare-name rule cannot see, so an operator that only tests use is not
caught.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coxline"


def library_example() -> str:
    """The python block of the README's Library section."""
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def surface():
    """The definitions the guard checks, as (name, file, first line, last
    line), and the references that count, as the identifiers of src/ with
    their file and line and the text of the README's library example and
    the perfbench and tools files."""
    top_level, methods, references = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                top_level.append((node.name, path, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                methods.extend(
                    (item.name, path, item.lineno, item.end_lineno)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, path, node.lineno))
    outside = library_example() + "".join(
        path.read_text() for folder in ("perfbench", "tools") for path in sorted((ROOT / folder).glob("*.py"))
    )
    return top_level, methods, references, outside


def uncalled(definitions, references, outside):
    """The definitions that no reference names outside their own lines."""
    unused = []
    for name, path, first, last in definitions:
        in_src = any(
            ref == name and not (where == path and first <= line <= last) for ref, where, line in references
        )
        if not in_src and not re.search(rf"\b{re.escape(name)}\b", outside):
            unused.append(f"{path.name}: {name}")
    return unused


def test_every_top_level_definition_has_a_caller():
    top_level, _, references, outside = surface()
    unused = uncalled(top_level, references, outside)
    assert not unused, f"defined in src/ but used only by tests or not at all: {unused}"


def test_every_method_has_a_caller():
    _, methods, references, outside = surface()
    unused = uncalled(methods, references, outside)
    assert not unused, f"method in src/ used only by tests or not at all: {unused}"
