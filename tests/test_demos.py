"""Every demo, and the README's code, runs to completion against this tree's ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from balancelab.config import parse_config_text

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert not any(tmp_path.iterdir())


def test_readme_code_runs(tmp_path, monkeypatch):
    """The quickstart runs, and the config example parses."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [quickstart] = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    [example] = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.M | re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(quickstart, "README.md", "exec"), {})
    parse_config_text(example)
