"""Demo scripts run to completion as standalone programs."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, tmp_path):
    # Run a copy: polygon_to_svg.py and quick_benchmark.py write next to
    # themselves, and the checkout must stay as it was.
    shutil.copy(ROOT / "demos" / script, tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(tmp_path / script)],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    if script == "minimum_cost.py":
        assert "costs[0..12]: [0, 3, 3, 3, 3, 5, 5, 5, 6, 8, 8, 8, 9]" in done.stdout
