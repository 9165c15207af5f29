"""
Timing the solvers on seeded random instances
=============================================

"""

import json
import os

# time_cell solves a batch of seeded instances for one parameter
# combination and reports per-seed wall times plus their mean, with each
# solve's work counters.  Three seeds keep this demo quick; the full
# suites default to ten.
from perimeterguard import time_cell, write_json

rows = []
rows += time_cell("table1", "lr", t=3, q=20, m=1, L=None, seeds=[0, 1, 2])
rows += time_cell("table3", "mc", t=10, q=20, m=1, L=10_000, seeds=[0, 1, 2])

for row in rows:
    print(f"{row.suite} t={row.t} q={row.q} seed={row.seed}: {row.seconds:.4f}s")

# The JSON record names the instance distributions, what was timed, the
# machine and the git revision, so a results file is readable on its own.
out = os.path.join(os.path.dirname(__file__), "timings.json")
write_json(rows, out, suite="quick_benchmark", full=False)
print("wrote", out)
with open(out) as fh:
    record = json.load(fh)
for key in ("timed", "python", "cpus", "revision"):
    print(f"  {key}: {record[key]}")
print("  first row:", record["rows"][0])
