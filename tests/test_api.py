"""The public surface: what ``ledid`` exports and what the README shows of it."""

import re
from pathlib import Path

import ledid

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in ledid.__all__ if not hasattr(ledid, name)]
    assert missing == []
    assert len(set(ledid.__all__)) == len(ledid.__all__)
    namespace = {}
    exec("from ledid import *", namespace)
    assert set(ledid.__all__) <= set(namespace)


def test_readme_python_api_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README}:Python API", "exec"), {})
    assert (tmp_path / "l1_30.csv").is_file()
    assert capsys.readouterr().out
