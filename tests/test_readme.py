"""The README library tour and CLI block run as written, and the package
exports exactly the names its import block names."""
import ast
import re
import shlex
from pathlib import Path

import rjpascal
from rjpascal import cli

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


def cli_lines() -> list[tuple[str, str]]:
    """(command, comment) for each ``rjpascal`` line of the CLI block."""
    text = README.read_text()
    section = text[text.index("## CLI"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line.partition("#") for line in block.splitlines()]
    return [(cmd.strip(), comment.strip()) for cmd, _, comment in lines
            if cmd.startswith("rjpascal ")]


def test_cli_block_runs(capsys):
    lines = cli_lines()
    assert len(lines) >= 10
    assert sum(" / " in comment for _, comment in lines) >= 3
    for cmd, comment in lines:
        assert cli.main(shlex.split(cmd)[1:]) == 0, cmd
        out = capsys.readouterr().out
        if " / " in comment:
            assert out.splitlines() == comment.split(" / "), cmd
