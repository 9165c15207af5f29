"""
Timing the solvers on seeded random instances
=============================================

"""

import os

# time_cell solves a batch of seeded instances for one parameter
# combination and reports per-seed wall times plus their mean.  Three
# seeds keep this demo quick; the full suites default to ten.
from perimeterguard import time_cell, write_csv

rows = []
rows += time_cell("table1", "lr", t=3, q=20, m=1, L=None, seeds=[0, 1, 2])
rows += time_cell("table3", "mc", t=10, q=20, m=1, L=10_000, seeds=[0, 1, 2])

for row in rows:
    print(f"{row.suite} t={row.t} q={row.q} seed={row.seed}: {row.seconds:.4f}s")

# CSV output starts with '#' comments pinning the instance
# distributions, so a results file is reproducible on its own.
out = os.path.join(os.path.dirname(__file__), "timings.csv")
write_csv(rows, out)
print("wrote", out)
with open(out) as fh:
    for line in fh.read().splitlines()[:6]:
        print(" ", line)
