"""Demo scripts run to completion as standalone programs."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_minimum_cost_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "minimum_cost.py")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert "costs[0..12]: [0, 3, 3, 3, 3, 5, 5, 5, 6, 8, 8, 8, 9]" in done.stdout
