"""Demo scripts and README's library quick start run to completion as
standalone programs."""
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run_script(path: Path) -> subprocess.CompletedProcess:
    """Run a script with the checkout's package, from the script's directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(path)],
        capture_output=True, text=True, timeout=120, env=env, cwd=path.parent,
    )


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, tmp_path):
    # Run a copy: polygon_to_svg.py and quick_benchmark.py write next to
    # themselves, and the checkout must stay as it was.
    shutil.copy(ROOT / "demos" / script, tmp_path)
    done = run_script(tmp_path / script)
    assert done.returncode == 0, done.stderr
    if script == "minimum_cost.py":
        assert "costs[0..12]: [0, 3, 3, 3, 3, 5, 5, 5, 6, 8, 8, 8, 9]" in done.stdout


def test_readme_quick_start_runs(tmp_path):
    # The blocks run in order as one script: the second reuses the first's wall.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    script = tmp_path / "quick_start.py"
    script.write_text("\n".join(blocks), encoding="utf-8")
    done = run_script(script)
    assert done.returncode == 0, done.stderr
