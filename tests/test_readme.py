"""The README's Python API example, run as written."""

import re
from pathlib import Path

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
