"""Seeded random instance generation.

Uses an explicit SplitMix64 stream rather than the platform RNG so a
(seed, parameters) pair produces the same instance on any machine.
Distributions: capabilities U{1..100} and per-type counts U{5..15} for
ratio instances; costs U{1..20} with length = 5*cost + U{1..20} for
cost instances.  Segment lengths are U{50..500} and gaps U{10..100};
cost instances instead split the target boundary length uniformly into
q segments so the total is exact.
"""
from __future__ import annotations

from .documents import InstanceDocument
from .errors import ValidationError
from .perimeter import build_perimeter
from .rationals import check_ints
from .solver_lr import build_fleet_lr
from .solver_mc import build_types_mc

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny deterministic 64-bit generator (integer arithmetic only)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection-sampled to kill modulo bias."""
        span = hi - lo + 1
        if span <= 0:
            raise ValidationError(f"empty range [{lo}, {hi}]")
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % span

    def distinct(self, k: int, lo: int, hi: int) -> list[int]:
        """k distinct integers from [lo, hi], sorted (Floyd's sampling)."""
        n = hi - lo + 1
        if k > n:
            raise ValidationError(f"cannot pick {k} distinct values from [{lo}, {hi}]")
        chosen: set[int] = set()
        for j in range(n - k + 1, n + 1):
            v = self.randint(1, j)
            chosen.add(j if v in chosen else v)
        return sorted(lo - 1 + v for v in chosen)


def _composition(rng: SplitMix64, total: int, parts: int) -> list[int]:
    """Split total into `parts` positive integers, uniformly at random."""
    if parts == 1:
        return [total]
    cuts = rng.distinct(parts - 1, 1, total - 1)
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def gen_random(
    problem: str,
    t: int,
    q: int,
    m: int = 1,
    seed: int = 0,
    target_length: int | None = None,
) -> InstanceDocument:
    """Generate a random instance; identical output for identical arguments.

    For "mc", target_length fixes the total guarded length of each
    perimeter (it must be at least q so every segment is nonempty).
    """
    if problem not in ("lr", "mc"):
        raise ValidationError(f"problem must be 'lr' or 'mc', got {problem!r}")
    for name, value, least in (("t", t, 1), ("q", q, 1), ("m", m, 1), ("seed", seed, 0)):
        check_ints((value,), name, least, ValidationError)

    rng = SplitMix64(seed)
    perimeters = []
    if problem == "lr":
        if target_length is not None:
            raise ValidationError("target_length only applies to mc instances")
        for _ in range(m):
            segments = [rng.randint(50, 500) for _ in range(q)]
            gaps = [rng.randint(10, 100) for _ in range(q)]
            perimeters.append(build_perimeter(segments, gaps))
        fleet = build_fleet_lr(
            (rng.randint(1, 100), rng.randint(5, 15)) for _ in range(t)
        )
        return InstanceDocument(
            problem="lr", perimeters=tuple(perimeters), fleet=fleet, seed=seed
        )

    check_ints((target_length,), "target_length", q, ValidationError)
    for _ in range(m):
        segments = _composition(rng, target_length, q)
        gaps = [rng.randint(10, 100) for _ in range(q)]
        perimeters.append(build_perimeter(segments, gaps))
    pairs = []
    for _ in range(t):
        cost = rng.randint(1, 20)
        pairs.append((5 * cost + rng.randint(1, 20), cost))
    return InstanceDocument(
        problem="mc", perimeters=tuple(perimeters), types=build_types_mc(pairs), seed=seed
    )
