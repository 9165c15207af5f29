"""Independent re-validation of solution documents.

Deliberately avoids the solver code paths: checks work straight from the
segment/gap geometry with plain interval arithmetic, so a solver bug
cannot vouch for itself.

The checks run on integers at the validator's own scale D: the lcm of
the instance's, the objective's and the arcs' denominators, taken here
with math.lcm and shared with no solver.  Fractions are rebuilt only to
word an error message.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

from .documents import InstanceDocument, SolutionDocument
from .errors import ValidationError

# Bits the arcs' denominators may add to the scale beyond the instance's
# and the objective's.  Solver output adds none (mc arcs sit on the
# instance's grid, lr arcs on that grid times the objective's denominator);
# without a cap, n arcs with distinct prime denominators would make D
# about 20n bits long and the integer checks O(n^2) in memory.
SCALE_SLACK_BITS = 64


def _scale(instance: InstanceDocument, solution: SolutionDocument) -> tuple[int, dict[int, int]]:
    """(D, {d: D // d for every instance, objective and arc denominator d}).

    Raises ValidationError once the arcs push D past the instance's and the
    objective's bits plus SCALE_SLACK_BITS.
    """
    dens: set[int] = set()
    for per in instance.perimeters:
        dens.update(x.denominator for x in per.segments)
        dens.update(x.denominator for x in per.gaps)
    scale = math.lcm(*dens)
    obj_den = solution.objective.denominator
    limit = scale.bit_length() + obj_den.bit_length() + SCALE_SLACK_BITS
    scale = math.lcm(scale, obj_den)
    arc_dens = {a.start.denominator for a in solution.arcs}
    arc_dens.update(a.length.denominator for a in solution.arcs)
    for d in arc_dens - dens:
        scale = math.lcm(scale, d)
        if scale.bit_length() > limit:
            raise ValidationError(
                f"arc denominators need a common denominator of over {limit} bits, "
                f"{SCALE_SLACK_BITS} more than the instance and objective"
            )
    dens |= arc_dens
    dens.add(obj_den)
    return scale, {d: scale // d for d in dens}


def _line(per, mult: dict[int, int]) -> tuple[list[int], list[int], int]:
    """A perimeter's segment starts and ends in global positions, and its
    circumference, all scaled to ints."""
    starts, ends, pos = [], [], 0
    for i, seg in enumerate(per.segments):
        starts.append(pos)
        pos += seg.numerator * mult[seg.denominator]
        ends.append(pos)
        if per.gaps:
            gap = per.gaps[i]
            pos += gap.numerator * mult[gap.denominator]
    return starts, ends, pos


def validate_solution(instance: InstanceDocument, solution: SolutionDocument) -> None:
    """Raise ValidationError unless the solution genuinely solves the instance.

    Checks coverage of every segment, per-arc capacity bounds, pairwise
    disjoint arc interiors, count consistency, and that the claimed
    objective is recomputable from the arcs.
    """
    if solution.problem != instance.problem:
        raise ValidationError(
            f"solution solves {solution.problem!r} but instance is {instance.problem!r}"
        )
    lr = instance.problem == "lr"
    t = instance.fleet.t if lr else instance.types.t
    if len(solution.counts) != t:
        raise ValidationError(f"counts has {len(solution.counts)} entries for {t} types")

    scale, mult = _scale(instance, solution)
    perimeters = instance.perimeters
    lines = [_line(per, mult) for per in perimeters]
    objective = solution.objective
    if lr:
        scaled_objective = objective.numerator * mult[objective.denominator]
        limits = [a * scaled_objective for a in instance.fleet.capabilities]
    else:
        limits = [l * scale for l in instance.types.lengths]

    # Each piece of an arc within [0, C] is one int s * (C + 1) + e, so a
    # plain int sort orders pieces by (start, end).
    tallies = [0] * t
    pieces: list[list[int]] = [[] for _ in perimeters]
    attained = False   # some arc reaches its limit; in lr it realizes the objective
    for k, arc in enumerate(solution.arcs):
        p, tau = arc.perimeter, arc.robot_type
        if not 0 <= p < len(perimeters):
            raise ValidationError(f"arcs[{k}]: no perimeter {p}")
        if not 0 <= tau < t:
            raise ValidationError(f"arcs[{k}]: no robot type {tau}")
        start, length = arc.start, arc.length
        s = start.numerator * mult[start.denominator]
        n = length.numerator * mult[length.denominator]
        circ = lines[p][2]
        if not 0 <= s < circ:
            raise ValidationError(
                f"arcs[{k}]: start {start} outside [0, {perimeters[p].circumference})"
            )
        if n <= 0:
            raise ValidationError(f"arcs[{k}]: arc length {length} is not positive")
        if n > circ:
            raise ValidationError(f"arcs[{k}]: arc longer than the whole perimeter")
        if n > limits[tau]:
            if lr:
                limit = instance.fleet.capabilities[tau] * objective
                raise ValidationError(
                    f"arcs[{k}]: length {length} exceeds capability x ratio = {limit}"
                )
            limit = instance.types.lengths[tau]
            raise ValidationError(f"arcs[{k}]: length {length} exceeds type length {limit}")
        if n == limits[tau]:
            attained = True
        tallies[tau] += 1
        e = s + n
        if e <= circ:
            pieces[p].append(s * (circ + 1) + e)
        else:
            pieces[p].append(s * (circ + 1) + circ)
            pieces[p].append(e - circ)

    if tuple(tallies) != solution.counts:
        raise ValidationError(f"arcs tally to {tuple(tallies)} but counts claim {solution.counts}")
    if lr:
        for tau, n in enumerate(solution.counts):
            if n > instance.fleet.counts[tau]:
                raise ValidationError(
                    f"counts[{tau}] = {n} exceeds the {instance.fleet.counts[tau]} available"
                )

    for k, per in enumerate(perimeters):
        starts, ends, circ = lines[k]
        # Maximal runs of touching pieces; after the overlap check a piece
        # starts at or past the previous piece's end, which ends the last run.
        run_starts: list[int] = []
        run_ends: list[int] = []
        for key in sorted(pieces[k]):
            s, e = divmod(key, circ + 1)
            if run_ends and s <= run_ends[-1]:
                if s < run_ends[-1]:
                    raise ValidationError(
                        f"perimeter {k}: arcs overlap on "
                        f"({Fraction(s, scale)}, {Fraction(min(run_ends[-1], e), scale)})"
                    )
                run_ends[-1] = e
            else:
                run_starts.append(s)
                run_ends.append(e)
        for i, (a, b) in enumerate(zip(starts, ends)):
            r = bisect_right(run_starts, a) - 1
            if r < 0 or b > run_ends[r]:
                raise ValidationError(
                    f"perimeter {k}: segment {i} [{per.seg_start(i)}, {per.seg_end(i)}] "
                    f"is not covered"
                )

    if lr:
        # Every arc is within capability x objective, so the worst ratio
        # equals the objective iff some arc reaches that bound.
        if not attained:
            worst = max(
                arc.length / instance.fleet.capabilities[arc.robot_type]
                for arc in solution.arcs
            )
            raise ValidationError(
                f"objective {objective} but the arcs realize max ratio {worst}"
            )
    else:
        if objective.denominator != 1:
            raise ValidationError(f"cost objective {objective} is not an integer")
        spent = sum(n * c for n, c in zip(solution.counts, instance.types.costs))
        if spent != objective:
            raise ValidationError(f"objective {objective} but the robots cost {spent}")
