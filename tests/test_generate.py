"""Seeded instance generation: determinism, ranges, exact totals."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimeterguard.errors import ValidationError
from perimeterguard.generate import SplitMix64, gen_random


def test_splitmix64_reference_vector():
    # First three outputs for seed 0, per the published reference stream.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_randint_bounds_and_bias_rejection():
    rng = SplitMix64(99)
    draws = [rng.randint(3, 7) for _ in range(2000)]
    assert set(draws) == {3, 4, 5, 6, 7}
    rng = SplitMix64(5)
    assert all(rng.randint(4, 4) == 4 for _ in range(5))


def test_distinct_sampling():
    rng = SplitMix64(11)
    for _ in range(50):
        got = rng.distinct(49, 1, 99)
        assert len(got) == len(set(got)) == 49
        assert got == sorted(got)
        assert all(1 <= v <= 99 for v in got)
    assert rng.distinct(5, 1, 5) == [1, 2, 3, 4, 5]


def test_same_seed_same_document():
    a = gen_random("lr", t=3, q=4, m=2, seed=42)
    b = gen_random("lr", t=3, q=4, m=2, seed=42)
    assert a == b
    c = gen_random("lr", t=3, q=4, m=2, seed=43)
    assert c != a
    x = gen_random("mc", t=2, q=5, seed=7, target_length=80)
    y = gen_random("mc", t=2, q=5, seed=7, target_length=80)
    assert x == y


def test_lr_ranges():
    doc = gen_random("lr", t=6, q=8, m=2, seed=1)
    assert all(5 <= n <= 15 for n in doc.fleet.counts)
    assert all(1 <= a <= 100 for a in doc.fleet.capabilities)
    for per in doc.perimeters:
        assert per.q == 8
        assert all(50 <= s <= 500 for s in per.segments)
        assert all(10 <= g <= 100 for g in per.gaps)
    assert doc.seed == 1


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10**6),
)
def test_mc_total_length_is_exact(t, q, seed):
    target = q + seed % 200
    doc = gen_random("mc", t=t, q=q, seed=seed, target_length=target)
    per = doc.perimeters[0]
    assert sum(per.segments) == target
    assert all(s >= 1 for s in per.segments)
    assert all(10 <= g <= 100 for g in per.gaps)
    for length, cost in zip(doc.types.lengths, doc.types.costs):
        assert 1 <= cost <= 20
        assert 5 * cost + 1 <= length <= 5 * cost + 20


def test_argument_validation():
    with pytest.raises(ValidationError):
        gen_random("xx", t=1, q=1, seed=0)
    with pytest.raises(ValidationError):
        gen_random("lr", t=0, q=1, seed=0)
    with pytest.raises(ValidationError):
        gen_random("lr", t=1, q=1, seed=-1)
    with pytest.raises(ValidationError):
        gen_random("lr", t=1, q=1, seed=0, target_length=50)
    with pytest.raises(ValidationError):
        gen_random("mc", t=1, q=5, seed=0)
    with pytest.raises(ValidationError):
        gen_random("mc", t=1, q=5, seed=0, target_length=4)


def test_target_length_refuses_a_bool_as_t_q_m_and_seed_do():
    # True is an int; it used to get through and fail later as a ParseError.
    with pytest.raises(ValidationError, match="^target_length must be an integer"):
        gen_random("mc", 2, 1, target_length=True)
