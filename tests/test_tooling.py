"""Repository checks: the README's library and CLI examples run, every CLI
flag it names exists, and no module of the package imports a name it never uses."""

import argparse
import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from decoguard import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "decoguard"
README = (ROOT / "README.md").read_text(encoding="utf-8")
CLI_EXAMPLES = [line for line in README.split("## CLI", 1)[1].split("```sh\n", 1)[1]
                .split("```", 1)[0].splitlines() if line.startswith("decoguard ")]


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, except on `# noqa: F401` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    source = "import os\nfrom typing import Any, Mapping\nfrom x import y  # noqa: F401\nos.sep\n"
    assert _unused_imports(source) == ["Any (line 2)", "Mapping (line 2)"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_readme_library_example_runs():
    block = README.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "dg.run_scheme(" in block
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert len(out.splitlines()) == block.count("print(")


def test_readme_cli_block_found():
    assert CLI_EXAMPLES


@pytest.mark.parametrize("line", CLI_EXAMPLES)
def test_readme_cli_example_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_readme_flags_are_cli_options():
    # every --flag the README names, outside its pip and pytest command lines
    text = "\n".join(line for line in README.splitlines()
                     if not line.lstrip().startswith(("pip ", "pytest ")))
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {opt for p in subparsers.choices.values() for a in p._actions
               for opt in a.option_strings}
    assert named and sorted(named - options) == []
