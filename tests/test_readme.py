"""The README's examples, run or parsed as written."""

import re
import shlex
from pathlib import Path

import pytest

import domainsift
from domainsift.cli import main
from domainsift.model_io import MODEL_FORMAT_VERSION

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_runs(tmp_path, monkeypatch, capsys):
    found = re.search(r"## Python API\n.*?```python\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S)
    assert found, "README.md has no Python API example"
    monkeypatch.chdir(tmp_path)
    exec(compile(found.group(1), str(README), "exec"), {})
    assert (tmp_path / "model.dsmodel").is_file()
    accuracy = float(capsys.readouterr().out.splitlines()[0])
    assert 0.9 < accuracy <= 1.0


def _section(title):
    found = re.search(rf"\n## {title}\n(.*?)\n## ", README.read_text(encoding="utf-8"), re.S)
    assert found, f"README.md has no {title} section"
    return found.group(1)


def test_layout_names_every_module():
    found = re.search(r"## Layout\n\n```\nsrc/domainsift/\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S)
    assert found, "README.md has no Layout block"
    listed = re.findall(r"^  (\w+\.py) ", found.group(1), re.M)
    modules = Path(domainsift.__file__).parent.glob("*.py")
    assert sorted(listed) == sorted(path.name for path in modules)


def test_model_files_name_the_current_format_version():
    section = _section("Model files")
    assert f"format version {MODEL_FORMAT_VERSION}." in section
    header = '{"format_version":%d,"sha256":"<hex>"}' % MODEL_FORMAT_VERSION
    assert f"`{header}`" in section


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The CLI walkthrough section, and a directory holding the corpus its
    ``generate`` writes, at the default sizes that ``cluster`` prints for."""
    section = _section("CLI walkthrough")
    generate = re.search(r"\$ domainsift generate (.*)\n", section).group(1)
    root = tmp_path_factory.mktemp("walkthrough")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        assert main(["generate", *shlex.split(generate)]) == 0
    return section, root


def _printed_by(walkthrough, command, monkeypatch, capsys):
    """What the walkthrough shows ``command`` printing, and what it prints, run in
    the walkthrough's directory."""
    section, root = walkthrough
    found = re.search(rf"\$ domainsift {command} ([^\n]*)\n(.*?)\n```", section, re.S)
    argv, printed = found.groups()
    monkeypatch.chdir(root)
    capsys.readouterr()
    assert main([command, *shlex.split(argv)]) == 0
    return printed + "\n", capsys.readouterr().out


def test_walkthrough_train_output(walkthrough, monkeypatch, capsys):
    printed, out = _printed_by(walkthrough, "train", monkeypatch, capsys)
    assert out == printed


def test_walkthrough_evaluate_table(walkthrough, monkeypatch, capsys):
    printed, out = _printed_by(walkthrough, "evaluate", monkeypatch, capsys)
    assert out == printed


def test_walkthrough_analyze_table(walkthrough, monkeypatch, capsys):
    # the walkthrough shows the top of the table, then "..."
    printed, out = _printed_by(walkthrough, "analyze", monkeypatch, capsys)
    shown, after = printed.split("...\n")
    assert after == "" and out.startswith(shown)


def test_walkthrough_cluster_output(walkthrough, monkeypatch, capsys):
    printed, out = _printed_by(walkthrough, "cluster", monkeypatch, capsys)
    assert out == printed
