"""The README's examples, run or parsed as written."""

import re
import shlex
from pathlib import Path

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


def test_walkthrough_train_output(tmp_path, monkeypatch, capsys):
    section = _section("CLI walkthrough")
    commands = dict(re.findall(r"\$ domainsift (generate|train) (.*)\n", section))
    printed = re.search(r"\$ domainsift train .*\n(.*)\n", section).group(1)
    monkeypatch.chdir(tmp_path)
    # the census is not read by train, so a small one will do
    assert main(["generate", *shlex.split(commands["generate"]), "--census-n", "10"]) == 0
    capsys.readouterr()
    assert main(["train", *shlex.split(commands["train"])]) == 0
    assert capsys.readouterr().out == printed + "\n"
