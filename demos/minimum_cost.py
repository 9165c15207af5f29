"""
Buying coverage: cheapest robot multiset for a segmented wall
=============================================================

"""

# Here robots are not a fixed fleet but a catalog: each type has a
# reach (max arc length) and a price, and any number of copies can be
# bought.  The goal is covering every guarded segment at minimum cost.
from perimeterguard import build_perimeter, build_types_mc, solve_mc

wall = build_perimeter(segments=[9, 4, 7], gaps=[3, 5, 2])
catalog = build_types_mc([(4, 3), (7, 5), (11, 8)])  # (length, cost)

solution = solve_mc(wall, catalog)
print("total cost:", solution.total_cost)
print("robots bought per type:", solution.counts)
for arc in solution.arcs:
    print(f"  type {arc.robot_type} covers [{arc.start}, {arc.end})")

# The engine behind the solver is a cost table: cost(L) is the
# cheapest multiset whose lengths sum to at least L.  It is monotone
# and subadditive, which the interval layer exploits.
from perimeterguard import presolve

table = presolve(catalog, 30)
print("costs[0..12]:", [table.cost(i) for i in range(13)])

# Crossing a gap is sometimes cheaper than respecting it: one reach-11
# robot happily spans segment + gap + segment.  The interval table
# weighs every split against the direct cover and keeps the cheaper.
bridged = build_perimeter(segments=[4, 4], gaps=[3, 20])
print("bridged wall cost:", solve_mc(bridged, catalog).total_cost)

# Several independent walls just sum their optima.
from perimeterguard import solve_mc_multi

yard = build_perimeter(segments=[6], gaps=[10])
combined = solve_mc_multi([wall, yard], catalog)
print("two walls, combined cost:", combined.total_cost)
