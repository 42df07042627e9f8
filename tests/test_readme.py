"""The README library tour runs as written, and the package exports exactly
the names its import block names."""
import ast
import re
from pathlib import Path

import rjpascal

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_source() -> str:
    text = README.read_text()
    section = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_tour_runs():
    exec(compile(tour_source(), "README.md (library tour)", "exec"), {})


def test_exports_are_the_tour_imports():
    imported = [alias.name for node in ast.walk(ast.parse(tour_source()))
                if isinstance(node, ast.ImportFrom) and node.module == "rjpascal"
                for alias in node.names]
    assert sorted(rjpascal.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)
