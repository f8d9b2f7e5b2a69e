"""Repository checks: the README's library and CLI examples run, every CLI
flag it names exists, no module of the package imports a name it never uses,
and the package's functools caches are the pinned ones."""

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


def _private_names(tree) -> list[str]:
    """The private module-level functions, classes and constants of a module, dunders excepted."""
    names = [node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    names += [target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
              if isinstance(target, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_no_unread_private_names():
    # a name is read where it is loaded, looked up as an attribute or imported
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    read = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    defined = [f"{module}: {name}" for module, tree in sorted(trees.items())
               for name in _private_names(tree)]
    assert len(defined) > 50
    assert [entry for entry in defined if entry.split(": ")[1] not in read] == []


_CACHES = {"cache", "lru_cache", "cached_property"}


def _cache_sites(source: str) -> list[str]:
    """Each place a module names a functools cache (cache, lru_cache or cached_property,
    bare or as an attribute): the qualified name of the function or class whose decorators
    or body name it, or "<module>" at top level."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Attribute) and child.attr in _CACHES
                    or isinstance(child, ast.Name) and child.id in _CACHES):
                sites.append(scope)
            visit(child, scope)
    visit(ast.parse(source), "<module>")
    return sites


def test_cache_site_is_found():
    source = ("import functools\nfrom functools import cache\n"
              "class A:\n    @functools.cached_property\n    def x(self): ...\n"
              "@cache\ndef f(): ...\n"
              "def g(build):\n    return functools.lru_cache(8)(build)\n"
              "h = functools.lru_cache(None)(len)\n")
    assert _cache_sites(source) == ["A.x", "f", "g", "<module>"]


def test_cache_inventory():
    # every cache the package keeps, so that adding one shows up in review
    sites = [site for p in PACKAGE.glob("*.py")
             for site in _cache_sites(p.read_text(encoding="utf-8"))]
    assert sorted(sites) == sorted(["GridSpec.strengths", "_qfbc_tables", "_qffc_tables",
                                    "_loop_search", "_channels", "KrausChannel.transfer"])


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
