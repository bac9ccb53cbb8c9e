"""Volume experiments connecting the combinatorial tables back to geometry.

Monte Carlo estimation of normalized slab volumes of a dilated unit cube
(slabs between hyperplanes of constant coordinate sum), and exact recovery
of the volume polynomial of the Minkowski combination of two adjacent unit
slabs, whose coefficients are refined Eulerian numbers.

Volumes are normalized so the d-cube has volume d!, which makes every slab
volume an integer.  The Monte Carlo estimator is fully deterministic: the
PRNG is splitmix64 (additive constant 0x9E3779B97F4A7C15, then one output
mix `_mix` with multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB for
both the scalar stream and the vectorized blocks).  A coordinate is
(output >> 11) / 2^53 scaled by the dilation, so a sample hits the slab
exactly when the integer sum U of its d raw coordinates lies in the integer
range [ceil(lower 2^53 / scale), floor(upper 2^53 / scale)].  The dimension
alone picks the counter: numpy int64 for d <= 512, Python integers above.
Both count the same hits, so estimates are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import ceil, floor, isqrt

import numpy as np

from .errors import NegativeResult
from .numcore import binomial, factorial
from .polyring import Polynomial, interpolate
from .splinecore import bspline_eval_explicit

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_COORD_BITS = 53

# SliceSpec keeps 0 <= lower <= upper <= scale * d, so U and its hit range lie
# in [0, d * 2^53]: while d * (2^53 - 1) < 2^62 (d <= 512) they fit in int64.
_VECTOR_D_MAX = ((1 << 62) - 1) // ((1 << _COORD_BITS) - 1)

_CHUNK_SAMPLES = 1 << 18


@dataclass(frozen=True)
class SliceSpec:
    """Slab {x in scale * [0,1]^d : lower <= sum x_i <= upper}."""

    d: int
    scale: int
    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.scale < 1:
            raise ValueError("cube dilation factor must be >= 1")
        if not 0 <= self.lower <= self.upper <= self.scale * self.d:
            raise ValueError(
                f"slab [{self.lower}, {self.upper}] not inside [0, {self.scale * self.d}]"
            )

    @classmethod
    def cube_slice(cls, d: int, k: int) -> "SliceSpec":
        """k-th unit-cube slab: coordinate sums between k-1 and k."""
        if not 1 <= k <= d:
            raise ValueError(f"slice index must be in 1..{d}, got {k}")
        return cls(d=d, scale=1, lower=Fraction(k - 1), upper=Fraction(k))

    @classmethod
    def dilated_slice(cls, d: int, n: int, k: int) -> "SliceSpec":
        """k-th slab of the n-dilated cube: sums between (k-1)n+1 and kn+1,
        clipped to the cube (clipping never changes the volume)."""
        if n < 1:
            raise ValueError("dilation must be >= 1")
        if not 0 <= k <= d:
            raise ValueError(f"slice index must be in 0..{d}, got {k}")
        lower = max(0, (k - 1) * n + 1)
        upper = min(n * d, k * n + 1)
        return cls(d=d, scale=n, lower=Fraction(lower), upper=Fraction(upper))


@dataclass(frozen=True)
class VolumeEstimate:
    """Deterministic Monte Carlo estimate of a normalized slab volume."""

    estimate: Fraction
    standard_error: Fraction
    samples: int
    seed: int  # reduced mod 2^64: the seed the generator ran from
    hits: int


def _mix(z):
    """splitmix64's output mix of `z`: a Python int, or a numpy uint64 array elementwise."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _splitmix64(seed: int):
    """Endless scalar splitmix64 output stream started from `seed`."""
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        yield _mix(state)


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """First `count` outputs of splitmix64 started from `seed` (scalar form)."""
    return list(islice(_splitmix64(seed), count))


def _splitmix64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start+1 .. start+count of the stream, vectorized.

    splitmix64 is counter-based: output i is the mix of seed + i * gamma,
    so any block of the stream can be produced directly.
    """
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return _mix(np.uint64(seed & _MASK64) + idx * np.uint64(_GAMMA))


def _hit_range(spec: SliceSpec) -> tuple[int, int]:
    """Integer range [lo, hi] of the hit test on U, the sum of the d raw
    53-bit coordinates of one sample: lower <= scale * U / 2^53 <= upper
    holds exactly when lo <= U <= hi, as U is an integer and scale > 0."""
    lo = ceil(spec.lower * (1 << _COORD_BITS) / spec.scale)
    hi = floor(spec.upper * (1 << _COORD_BITS) / spec.scale)
    return lo, hi


def _count_hits_vector(spec: SliceSpec, samples: int, seed: int) -> int:
    lo, hi = _hit_range(spec)
    d = spec.d
    hits = 0
    done = 0
    while done < samples:
        n = min(_CHUNK_SAMPLES, samples - done)
        u = _splitmix64_block(seed, done * d, n * d) >> np.uint64(11)
        total = u.astype(np.int64).reshape(n, d).sum(axis=1)
        hits += int(np.count_nonzero((total >= lo) & (total <= hi)))
        done += n
    return hits


def _count_hits_exact(spec: SliceSpec, samples: int, seed: int) -> int:
    lo, hi = _hit_range(spec)
    d = spec.d
    hits = 0
    stream = _splitmix64(seed)
    for _ in range(samples):
        total = sum(z >> 11 for z in islice(stream, d))
        if lo <= total <= hi:
            hits += 1
    return hits


def _sqrt_upper_bound(value: Fraction) -> Fraction:
    """Smallest convenient rational >= sqrt(value); exact on perfect squares."""
    if value < 0:
        raise ValueError("square root of negative value")
    if value == 0:
        return Fraction(0)
    n, m = value.numerator, value.denominator
    root = isqrt(n * m)
    if root * root == n * m:
        return Fraction(root, m)
    return Fraction(root + 1, m)


def mc_volume(spec: SliceSpec, samples: int, seed: int) -> VolumeEstimate:
    """Deterministic Monte Carlo estimate of the normalized slab volume.

    Draws `samples` points uniformly from the dilated cube and counts those
    whose coordinate sum lies in the (closed) slab.  The estimate is
    d! * scale^d * hits / samples; the standard error is the binomial one
    of the estimate, rounded outward to a rational.  Acceptance against an
    exact volume uses mc_band, not this error.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if spec.d <= _VECTOR_D_MAX:
        hits = _count_hits_vector(spec, samples, seed)
    else:
        hits = _count_hits_exact(spec, samples, seed)
    norm = factorial(spec.d) * spec.scale**spec.d
    p_hat = Fraction(hits, samples)
    stderr = norm * _sqrt_upper_bound(p_hat * (1 - p_hat) / samples)
    return VolumeEstimate(
        estimate=norm * p_hat,
        standard_error=stderr,
        samples=samples,
        seed=seed & _MASK64,
        hits=hits,
    )


def mc_band(spec: SliceSpec, exact: int, samples: int) -> Fraction:
    """Half-width of the Monte Carlo acceptance band around the exact
    normalized volume `exact` of `spec`: 4 standard errors of a
    `samples`-point estimate of the exact slab probability,
    sqrt(exact * (norm - exact) / samples) with norm = d! * scale^d,
    rounded outward.  Taken from the exact value rather than from the
    estimate, the band is not 0 when a slab gets no hits.
    """
    norm = factorial(spec.d) * spec.scale**spec.d
    return 4 * _sqrt_upper_bound(Fraction(exact * (norm - exact), samples))


def minkowski_poly(d: int, k: int) -> Polynomial:
    """Volume polynomial (in the dilation weight) of the Minkowski sum of
    unit-cube slabs k and k+1, with the second body's weight fixed at 1.

    Evaluated exactly at integer weights 0..d through the spline identity
    and recovered by Lagrange interpolation; degree is at most d and
    coefficient j is C(d, j) times the refined Eulerian number
    AR(d+1, k, d+1-j).
    """
    _check_geometry_args(d, k, k)
    points = []
    for lam in range(d + 1):
        value = (
            factorial(d)
            * (lam + 1) ** d
            * bspline_eval_explicit(d + 1, k + Fraction(1, lam + 1))
        )
        points.append((Fraction(lam), value))
    return interpolate(points)


def mixed_volume_row(poly: Polynomial, d: int) -> tuple[Fraction, ...]:
    """Mixed volumes j = 0..d read from the Minkowski volume polynomial
    `poly` = minkowski_poly(d, k) of adjacent unit-cube slabs k and k+1.

    Entry j is coefficient d-j of the polynomial divided by C(d, d-j);
    always a non-negative integer (a refined Eulerian number).
    """
    row = []
    for j in range(d + 1):
        value = poly.coefficient(d - j) / binomial(d, d - j)
        if value < 0:
            raise NegativeResult(f"mixed volume j={j} of a degree-{d} Minkowski polynomial = {value}")
        row.append(value)
    return tuple(row)


def mixed_volume(d: int, k: int, j: int) -> Fraction:
    """j-th mixed volume of adjacent unit-cube slabs k and k+1: entry j
    of mixed_volume_row(minkowski_poly(d, k), d)."""
    _check_geometry_args(d, k, j)
    return mixed_volume_row(minkowski_poly(d, k), d)[j]


def _check_geometry_args(d: int, k: int, j: int) -> None:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not 0 <= k <= d:
        raise ValueError(f"slice index k must be in 0..{d}, got {k}")
    if not 0 <= j <= d:
        raise ValueError(f"mixed-volume index j must be in 0..{d}, got {j}")
