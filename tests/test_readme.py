"""The README's library quick start runs as written and prints what it promises."""

import re
import shutil
from pathlib import Path

from contextprob import load_report

ROOT = Path(__file__).resolve().parent.parent


def _quick_start_blocks():
    """The Python blocks of the README section "Library quick start", in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)


def test_the_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    blocks = _quick_start_blocks()
    assert len(blocks) == 2
    shutil.copytree(ROOT / "example_models", tmp_path / "example_models")
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["trigonometric", "[0.5, -0.5]"]
    assert abs(float(lines[2])) < 1e-12
    assert load_report((tmp_path / "report.json").read_bytes()).regime == "trigonometric"
    assert [line.split()[0::2] for line in lines[3:]] == [
        ["hit", "trigonometric"],
        ["miss", "trigonometric"],
    ]
