"""Volume experiments: deterministic Monte Carlo and exact Minkowski recovery."""

import hashlib
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy  # noqa: F401  imported before any trace, so a trace sees only the counter's arrays
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinecomb import geometry
from splinecomb.descent import descent_spline
from splinecomb.eulerian import eulerian_spline, refined_explicit, refined_triangle
from splinecomb.geometry import (
    _CHUNK_COORDS,
    _VECTOR_D_MAX,
    SliceSpec,
    _count_hits,
    _hit_range,
    _sqrt_upper_bound,
    _volume_estimate,
    mc_band,
    mc_volume,
    mc_volumes,
    minkowski_poly,
    splitmix64_stream,
)
from splinecomb.numcore import binomial, factorial
from splinecomb.polyring import Polynomial
from splinecomb.verify import VerifyConfig, mc_cases, mc_pairs

# Frozen from the scalar splitmix64 definition (additive constant
# 0x9E3779B97F4A7C15, multipliers 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB).
SPLITMIX_SEED0 = [
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
    17909611376780542444,
    1961750202426094747,
]


@lru_cache(maxsize=64)
def reference_sums(d, samples, seed):
    """U of each sample: the sum of `z >> 11` over consecutive d-slices of
    the scalar stream, in Python integers."""
    stream = splitmix64_stream(seed, samples * d)
    return tuple(sum(z >> 11 for z in stream[i : i + d]) for i in range(0, samples * d, d))


def reference_hits(d, ranges, samples, seed):
    """Hits of each [lo, hi] in `ranges`, counted from the scalar stream."""
    sums = reference_sums(d, samples, seed)
    return [sum(lo <= u <= hi for u in sums) for lo, hi in ranges]


def test_splitmix64_reference_vector():
    assert splitmix64_stream(0, 5) == SPLITMIX_SEED0
    assert splitmix64_stream(2**64, 5) == SPLITMIX_SEED0  # state is 64-bit
    assert splitmix64_stream(42, 2) == [13679457532755275413, 2949826092126892291]


def test_vectorized_generator_matches_scalar():
    from splinecomb.geometry import _splitmix64_block

    for seed in (0, 42, 2**63 + 17):
        assert list(_splitmix64_block(seed, 0, 300)) == splitmix64_stream(seed, 300)
        # blocks can start mid-stream
        assert list(_splitmix64_block(seed, 100, 50)) == splitmix64_stream(seed, 150)[100:]


def test_slice_spec_validation():
    with pytest.raises(ValueError):
        SliceSpec(d=0, scale=1, lower=Fraction(0), upper=Fraction(0))
    with pytest.raises(ValueError):
        SliceSpec(d=2, scale=1, lower=Fraction(-1), upper=Fraction(1))
    with pytest.raises(ValueError):
        SliceSpec(d=2, scale=1, lower=Fraction(2), upper=Fraction(1))
    with pytest.raises(ValueError):
        SliceSpec(d=2, scale=1, lower=Fraction(0), upper=Fraction(5, 2))


def test_slice_constructors():
    # The unit slab between sums 1 and 2 is the n = 1 dilated slab 1.
    t = SliceSpec.dilated_slice(3, 1, 1)
    assert (t.d, t.scale, t.lower, t.upper) == (3, 1, 1, 2)
    x = SliceSpec.dilated_slice(2, 2, 1)
    assert (x.d, x.scale, x.lower, x.upper) == (2, 2, 1, 3)
    # out-of-cube ends are clipped (volume unchanged)
    x0 = SliceSpec.dilated_slice(2, 3, 0)
    assert (x0.lower, x0.upper) == (0, 1)
    xd = SliceSpec.dilated_slice(2, 3, 2)
    assert (xd.lower, xd.upper) == (4, 6)


def test_whole_cube_is_exact():
    est = mc_volume(SliceSpec(d=3, scale=1, lower=Fraction(0), upper=Fraction(3)), 1000, 5)
    assert est.estimate == factorial(3)
    assert est.standard_error == 0
    assert est.hits == 1000


def test_mc_determinism_and_frozen_values():
    spec = SliceSpec.dilated_slice(2, 1, 0)
    est = mc_volume(spec, 10_000, 42)
    again = mc_volume(spec, 10_000, 42)
    assert est == again
    assert est.hits == 4957
    assert est.estimate == Fraction(4957, 5000)
    other_seed = mc_volume(spec, 10_000, 43)
    assert other_seed.hits != est.hits
    ranges = [_hit_range(spec)]
    assert _count_hits({2: ranges}, 5000, 7)[2] == reference_hits(2, ranges, 5000, 7) == [2547]


# SHA-256 of "<label> seed=<seed> hits=<hits>\n" over mc_pairs at 10^4 samples,
# frozen from the estimator that counted one slab per stream draw.
SWEEP_HITS_SHA256 = "bbc36691430a80a6677b7a3bdb63f03ec5e079dbd28cfe147217709bb5c9a2cb"


def test_sweep_hits_match_the_frozen_digest():
    pairs = list(mc_pairs(VerifyConfig(mc_samples=10_000)))
    assert len(pairs) == 189
    text = "".join(f"{label} seed={seed} hits={est.hits}\n" for label, seed, _, est, *_ in pairs)
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_HITS_SHA256


def test_mc_seed_is_reported_mod_2_64():
    spec = SliceSpec(d=2, scale=1, lower=Fraction(0), upper=Fraction(1))
    negative = mc_volume(spec, 50, -5)
    assert negative == mc_volume(spec, 50, 2**64 - 5)
    assert negative.seed == 2**64 - 5


def test_mc_unit_slab_near_eulerian_value():
    est = mc_volume(SliceSpec.dilated_slice(2, 1, 0), 10_000, 42)
    assert abs(est.estimate - 1) <= 4 * est.standard_error


def test_mc_dilated_slab_near_descent_value():
    est = mc_volume(SliceSpec.dilated_slice(2, 2, 1), 10_000, 11)
    assert est.hits == 7498
    assert abs(est.estimate - 6) <= 4 * est.standard_error


def test_mc_band_is_not_zero_for_a_slab_without_hits():
    # The slab between sums 0 and 1 of the 8-cube has probability 1/8!,
    # so 10^4 samples miss it.
    spec = SliceSpec.dilated_slice(8, 1, 0)
    est = mc_volume(spec, 10_000, 101)
    assert est.hits == 0 and est.standard_error == 0
    assert abs(est.estimate - 1) <= mc_band(spec, 1, 10_000)


def test_mc_band_still_catches_a_wrong_exact_value():
    spec = SliceSpec.dilated_slice(4, 1, 1)
    exact = eulerian_spline(4, 2)
    est = mc_volume(spec, 100_000, 101)
    assert abs(est.estimate - exact) <= mc_band(spec, exact, 100_000)
    for wrong in (exact - 1, exact + 1):
        assert abs(est.estimate - wrong) > mc_band(spec, wrong, 100_000)


def test_mc_band_is_four_outward_rounded_standard_errors():
    # norm = 2! * 2^2 = 8; exact 6 gives sqrt(6 * 2 / 3) = 2, a perfect square
    spec = SliceSpec.dilated_slice(2, 2, 1)
    assert mc_band(spec, 6, 3) == 8
    # sqrt(6 * 2 / 10^4) is irrational; the band rounds it up
    band = mc_band(spec, 6, 10_000)
    assert (band / 4) ** 2 >= Fraction(12, 10_000)
    assert mc_band(spec, 0, 10) == mc_band(spec, 8, 10) == 0


@st.composite
def slice_specs(draw):
    """Random slabs, with scales up to 3 * 10^18 and bound denominators up
    to 2^70 + 1: far past int64 before the hit test is reduced to a range.
    d is small, or past the int64 limit of the coordinate sum."""
    d = draw(st.one_of(st.integers(min_value=1, max_value=7), st.sampled_from([513, 1025, 1100])))
    scale = draw(st.one_of(st.integers(1, 5), st.integers(10**18, 3 * 10**18)))
    bounds = []
    for _ in range(2):
        den = draw(st.one_of(st.integers(1, 1000), st.integers(2**62, 2**70 + 1)))
        bounds.append(Fraction(draw(st.integers(0, scale * d * den)), den))
    lower, upper = sorted(bounds)
    return SliceSpec(d=d, scale=scale, lower=lower, upper=upper)


@st.composite
def specs_and_samples(draw, max_specs):
    """Up to `max_specs` random slabs and a sample count: up to 300, or up
    to 40 when a slab's d is past the int64 limit, to bound the scalar
    reference's work."""
    specs = draw(st.lists(slice_specs(), min_size=1, max_size=max_specs))
    big = any(spec.d > _VECTOR_D_MAX for spec in specs)
    return specs, draw(st.integers(1, 40 if big else 300))


@settings(max_examples=80, deadline=None)
@given(specs_and_samples(1), st.integers(-(2**65), 2**65))
def test_hit_counts_match_the_scalar_reference(specs_samples, seed):
    (spec,), samples = specs_samples
    ranges = [_hit_range(spec)]
    assert _count_hits({spec.d: ranges}, samples, seed)[spec.d] == reference_hits(spec.d, ranges, samples, seed)


@settings(max_examples=40, deadline=None)
@given(specs_and_samples(8), st.integers(-(2**65), 2**65))
def test_batched_estimates_equal_one_slab_at_a_time(specs_samples, seed):
    specs, samples = specs_samples
    estimates = mc_volumes(specs, samples, seed)
    assert len(estimates) == len(specs)
    for spec, est in zip(specs, estimates):
        (hits,) = reference_hits(spec.d, [_hit_range(spec)], samples, seed)
        assert est == _volume_estimate(spec, hits, samples, seed)


def test_batched_estimates_across_the_int64_dimension_limit():
    # one call mixing both sum dtypes keeps each slab's single-slab estimate,
    # down to an empty hit range (lower = upper off the 2^-53 grid)
    specs = [
        SliceSpec(d=1100, scale=1, lower=Fraction(546), upper=Fraction(554)),
        SliceSpec.dilated_slice(2, 1, 0),
        SliceSpec(d=2, scale=3, lower=Fraction(1, 3), upper=Fraction(1, 3)),
        SliceSpec(d=1100, scale=1, lower=Fraction(0), upper=Fraction(550)),
        SliceSpec.dilated_slice(2, 2, 1),
    ]
    assert mc_volumes(specs, 40, 17) == tuple(mc_volume(spec, 40, 17) for spec in specs)
    assert mc_volumes((), 40, 17) == ()
    with pytest.raises(ValueError):
        mc_volumes(specs, 0, 17)


@pytest.mark.parametrize("d", [512, 1100])
def test_hit_counts_on_both_sides_of_the_int64_dimension_limit(d):
    # d = 512 is the last dimension summed in int64; at d = 1100 an int64
    # coordinate sum could overflow, so the counter sums in Python integers.
    spec = SliceSpec(d=d, scale=1, lower=Fraction(d, 2) - 4, upper=Fraction(d, 2) + 4)
    est = mc_volume(spec, 40, 17)
    assert 0 < est.hits < 40
    assert [est.hits] == reference_hits(d, [_hit_range(spec)], 40, 17)


@pytest.mark.parametrize("d", [1, 6, 512, 513, 1100])
def test_counter_reads_the_stream_in_bounded_chunks(monkeypatch, d):
    # Each chunk is whole samples of at most max(_CHUNK_COORDS, d)
    # coordinates, and the chunks read the stream back to back.
    blocks = []
    block = geometry._splitmix64_block
    monkeypatch.setattr(
        geometry, "_splitmix64_block", lambda seed, start, count: blocks.append((start, count)) or block(seed, start, count)
    )
    samples = 3 * _CHUNK_COORDS // d + 5
    mc_volume(SliceSpec(d=d, scale=1, lower=Fraction(d, 4), upper=Fraction(3 * d, 4)), samples, 9)
    assert len(blocks) >= 2
    assert all(count <= max(_CHUNK_COORDS, d) and count % d == 0 for _, count in blocks)
    assert [start for start, _ in blocks] == [sum(count for _, count in blocks[:i]) for i in range(len(blocks))]
    assert sum(count for _, count in blocks) == d * samples


@pytest.mark.parametrize(
    "dims, samples",
    [
        # chunks of 9362 samples of d = 7; the prefixes of d = 4, 5 and 6
        # run past the first chunk, that of d = 2 ends inside it
        ((2, 4, 5, 6, 7), 20_000),
        # chunks of 109 samples of d = 600; 512 divides 2^16 but not the
        # chunk, 513 sums in Python integers, 3 and 7 end in the first chunk
        ((3, 7, 512, 513, 600), 300),
    ],
)
def test_every_dimension_counts_its_own_prefix_across_chunks(dims, samples):
    # Each d reads a prefix of the one stream drawn for the largest d, and
    # carries a partial sample from one chunk into the next.
    specs = [SliceSpec(d=d, scale=1, lower=Fraction(d, 3), upper=Fraction(2 * d, 3)) for d in reversed(dims)]
    top = max(dims)
    assert samples * top >= 2 * (max(1, _CHUNK_COORDS // top) * top)
    for spec, est in zip(specs, mc_volumes(specs, samples, 23)):
        assert [est.hits] == reference_hits(spec.d, [_hit_range(spec)], samples, 23)


def test_no_slab_draws_no_stream(monkeypatch):
    monkeypatch.setattr(geometry, "_splitmix64_block", lambda *args: pytest.fail("drew a block"))
    assert mc_volumes((), 1000, 5) == ()
    assert _count_hits({}, 1000, 5) == {}


@pytest.mark.parametrize("d_max", [6, 9])
def test_sweep_counter_memory_is_bounded(d_max):
    # One call over every slab of the sweep keeps a chunk, its sums and a
    # partial sample per d, never a whole stream.
    # The peak is read above what is traced before the call, and a trace
    # already running (python -X tracemalloc) is left running.
    specs = [spec for _, spec, _ in mc_cases(VerifyConfig(d_max=d_max))]
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    try:
        mc_volumes(specs, VerifyConfig().mc_samples, 101)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert peak - before < 3 * 2**20


@pytest.mark.parametrize("d,scale,lower,upper", [(600, 7, 1000, 2000), (40, 3, 7, 100)])
def test_int_bounds_give_the_hit_range_of_their_fraction_twin(d, scale, lower, upper):
    # Equal specs hash alike, so they must count alike: an int bound is
    # divided exactly, as its Fraction twin is, and not in floating point.
    as_int = SliceSpec(d=d, scale=scale, lower=lower, upper=upper)
    as_fraction = SliceSpec(d=d, scale=scale, lower=Fraction(lower), upper=Fraction(upper))
    assert as_int == as_fraction and hash(as_int) == hash(as_fraction)
    exact = (-(-lower * 2**53 // scale), upper * 2**53 // scale)
    assert _hit_range(as_int) == _hit_range(as_fraction) == exact
    assert mc_volume(as_int, 50, 11).hits == mc_volume(as_fraction, 50, 11).hits


@pytest.mark.parametrize("lower, upper", [(0.1, 1), (0, 1.0)])
def test_a_bound_that_is_not_exact_is_refused(lower, upper):
    # A float bound would set the hit range from its binary value.
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        SliceSpec(d=2, scale=1, lower=lower, upper=upper)


def test_huge_denominator_bound_keeps_the_hits_of_its_rounded_slab():
    tiny = Fraction(1, 3 * 10**18)
    spec = SliceSpec(d=2, scale=1, lower=tiny, upper=Fraction(1))
    est = mc_volume(spec, 2000, 3)
    reference = mc_volume(SliceSpec(d=2, scale=1, lower=Fraction(0), upper=Fraction(1)), 2000, 3)
    # the shaved-off corner has measure ~0 at this sample count
    assert est.hits == reference.hits


def test_mc_estimate_bounds():
    spec = SliceSpec.dilated_slice(4, 1, 1)
    est = mc_volume(spec, 1000, 123)
    assert 0 <= est.estimate <= factorial(4)
    with pytest.raises(ValueError):
        mc_volume(spec, 0, 1)


def test_sqrt_upper_bound():
    assert _sqrt_upper_bound(Fraction(0)) == 0
    assert _sqrt_upper_bound(Fraction(9, 4)) == Fraction(3, 2)  # exact on squares
    r = Fraction(2, 7)
    u = _sqrt_upper_bound(r)
    assert u * u >= r
    assert (u - Fraction(1, 7)) ** 2 < r  # and not absurdly loose


@given(st.fractions(min_value=0, max_value=100, max_denominator=999))
def test_sqrt_upper_bound_property(r):
    u = _sqrt_upper_bound(r)
    assert u >= 0 and u * u >= r


def test_minkowski_constant_case():
    assert minkowski_poly(1, 0) == Polynomial([1])
    assert minkowski_poly(1, 1) == Polynomial([0, 1])


def test_minkowski_at_zero_is_next_slice_volume():
    for d in range(1, 6):
        for k in range(d + 1):
            assert minkowski_poly(d, k)(0) == eulerian_spline(d, k + 1)


# d = 16 is the size the tables-large benchmark runs.
@pytest.mark.parametrize("d", [*range(1, 7), 16, 24])
def test_minkowski_coefficients_are_refined_counts(d):
    triangle = refined_triangle(d, "explicit")
    for k in range(d + 1):
        poly = minkowski_poly(d, k)
        assert poly.degree <= d
        for j in range(d + 1):
            assert poly.coefficient(j) == binomial(d, j) * triangle.values[k][j]


@pytest.mark.parametrize("d", range(1, 6))
def test_minkowski_evaluations_recover_descent_tables(d):
    # Weights 0..d are the interpolation nodes; the rest lie off them, so
    # they check that the scaled spline value is a polynomial in the weight.
    for k in range(d + 1):
        poly = minkowski_poly(d, k)
        for lam in (*range(d + 3), 2 * d + 5, 40):
            assert poly(lam) == descent_spline(d, lam + 1, k)


@pytest.mark.parametrize("d", range(1, 9))
def test_minkowski_coefficient_grid_matches_refined_explicit(d):
    # Runs to d = 8, past the triangle test above and acceptance criterion
    # 08, which both stop at d = 6.
    for k in range(d + 1):
        poly = minkowski_poly(d, k)
        for j in range(d + 1):
            assert poly.coefficient(j) == binomial(d, j) * refined_explicit(d, k, j)


def test_geometry_argument_validation():
    with pytest.raises(ValueError):
        minkowski_poly(0, 0)
    with pytest.raises(ValueError):
        minkowski_poly(3, 4)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32),
)
def test_mc_is_deterministic(d, k, seed):
    if k > d:
        k = d
    spec = SliceSpec.dilated_slice(d, 1, k - 1)
    assert mc_volume(spec, 500, seed) == mc_volume(spec, 500, seed)
