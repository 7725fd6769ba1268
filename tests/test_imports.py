"""Every module in the package uses each name it imports, and reads text
files only through ``corpus.open_corpus_text``; every name the traced
benchmark wraps on ``domainsift.cli`` is one ``cli`` calls or defines.

``__init__.py`` is left out of the import check: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

import domainsift

PACKAGE = Path(domainsift.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements in ``source`` that nothing else in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import csv\n"
        "from dataclasses import dataclass, field as fld\n"
        "os.path.join(csv.writer)\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int = 0\n"
    )
    assert unused_imports(source) == [(4, "fld")]


def text_reads(source):
    """(line, enclosing function) of each call in ``source`` that decodes a file as
    text: an ``io.TextIOWrapper``, or the builtin ``open`` with no mode or a constant
    mode without "b", "w", "a" or "x"."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "TextIOWrapper"):
            found.append((node.lineno, function))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and set("bwax") & set(mode.value)):
                found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_text_files_are_read_only_through_open_corpus_text(path):
    """One function decides how a user's text file is decoded: gzip, the BOM and
    the error that names the file."""
    allowed = ["open_corpus_text"] if path.name == "corpus.py" else []
    assert [function for _, function in text_reads(path.read_text(encoding="utf-8"))] == allowed


def test_check_finds_text_reads():
    source = (
        "def a(p):\n"
        "    open(p)\n"
        "    open(p, encoding='utf-8')\n"
        "    open(p, 'rt')\n"
        "    open(p, mode='r', newline='')\n"
        "    open(p, 'rb')\n"
        "    open(p, 'w', encoding='utf-8')\n"
        "    open(p, mode='ab')\n"
        "    gzip.open(p)\n"
        "def b(p, m):\n"
        "    open(p, m)\n"
        "    io.TextIOWrapper(open(p, 'rb'))\n"
    )
    assert text_reads(source) == [(2, "a"), (3, "a"), (4, "a"), (5, "a"), (11, "b"), (12, "b")]


TRACE_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"


def cli_wrap_targets(source):
    """The attribute names of each ``tracer.wrap(cli, "<name>", ...)`` call in ``source``."""
    return [
        node.args[1].value for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "wrap" and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "tracer" and len(node.args) >= 2
        and isinstance(node.args[0], ast.Name) and node.args[0].id == "cli"
        and isinstance(node.args[1], ast.Constant)
    ]


def test_traced_cli_names_are_the_ones_cli_uses():
    """The traced benchmark wraps names on ``domainsift.cli``; a wrapper on a name that
    cli no longer calls or defines records no span, and nothing else would notice."""
    from domainsift import cli

    targets = cli_wrap_targets(TRACE_CLI.read_text(encoding="utf-8"))
    assert "extract_features" in targets and "main" in targets, targets
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in targets:
        assert hasattr(cli, name), name
        assert name in called | defined, name


def test_check_finds_cli_wrap_targets():
    source = (
        "def install(tracer, cli):\n"
        "    tracer.wrap(cli, 'save_model', 'model_io.save', count)\n"
        "    tracer.wrap(corpus, 'dedupe', 'corpus.dedupe')\n"
        "    tracer.wrap(\n"
        "        cli, 'main', 'cli')\n"
        "    other.wrap(cli, 'load_model', 'model_io.load')\n"
    )
    assert cli_wrap_targets(source) == ["save_model", "main"]
