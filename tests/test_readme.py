"""The README's library example runs, and imports exactly the package's API."""

import ast
import contextlib
import io
import re
from pathlib import Path

import coxline

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    return block


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    assert out.getvalue() == "g1 = s1*e1 + (-2)*s2*e2 + (1)*s3*e3\n"


def test_package_exports_exactly_the_readme_imports():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "coxline"
        for alias in node.names
    ]
    assert sorted(coxline.__all__) == sorted(imported)
