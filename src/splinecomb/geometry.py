"""Volume experiments connecting the combinatorial tables back to geometry.

Monte Carlo estimation of normalized slab volumes of a dilated unit cube
(slabs between hyperplanes of constant coordinate sum), and exact recovery
of the volume polynomial of the Minkowski combination of two adjacent unit
slabs, whose coefficients are refined Eulerian numbers.

Volumes are normalized so the d-cube has volume d!, which makes every slab
volume an integer.  The Monte Carlo estimator is fully deterministic: the
PRNG is splitmix64 (additive constant 0x9E3779B97F4A7C15, multiplies
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB), a coordinate is
(output >> 11) / 2^53 scaled by the dilation, and the hit test is exact
integer arithmetic, so estimates are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import isqrt

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

# Above this magnitude the vectorized int64 hit test could overflow, so the
# exact big-integer path takes over.
_INT64_SAFE = 1 << 62

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


def _splitmix64(seed: int):
    """Endless scalar splitmix64 output stream started from `seed`."""
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        yield z ^ (z >> 31)


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """First `count` outputs of splitmix64 started from `seed` (scalar form)."""
    return list(islice(_splitmix64(seed), count))


def _splitmix64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start+1 .. start+count of the stream, vectorized.

    splitmix64 is counter-based: output i is the mix of seed + i * gamma,
    so any block of the stream can be produced directly.
    """
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + idx * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _hit_bounds(spec: SliceSpec) -> tuple[int, int, int, int]:
    """Integerized hit test: lower <= scale * U / 2^53 <= upper becomes
    lo_lhs <= lo_mul * U  and  hi_mul * U <= hi_rhs, with U the integer
    sum of the d raw 53-bit coordinates of one sample."""
    lo_lhs = spec.lower.numerator << _COORD_BITS
    lo_mul = spec.lower.denominator * spec.scale
    hi_rhs = spec.upper.numerator << _COORD_BITS
    hi_mul = spec.upper.denominator * spec.scale
    return lo_lhs, lo_mul, hi_rhs, hi_mul


def _count_hits_vector(spec: SliceSpec, samples: int, seed: int) -> int:
    lo_lhs, lo_mul, hi_rhs, hi_mul = _hit_bounds(spec)
    d = spec.d
    hits = 0
    done = 0
    while done < samples:
        n = min(_CHUNK_SAMPLES, samples - done)
        u = _splitmix64_block(seed, done * d, n * d) >> np.uint64(11)
        total = u.astype(np.int64).reshape(n, d).sum(axis=1)
        ok = (lo_mul * total >= lo_lhs) & (hi_mul * total <= hi_rhs)
        hits += int(np.count_nonzero(ok))
        done += n
    return hits


def _count_hits_exact(spec: SliceSpec, samples: int, seed: int) -> int:
    lo_lhs, lo_mul, hi_rhs, hi_mul = _hit_bounds(spec)
    d = spec.d
    hits = 0
    stream = _splitmix64(seed)
    for _ in range(samples):
        total = sum(z >> 11 for z in islice(stream, d))
        if lo_lhs <= lo_mul * total and hi_mul * total <= hi_rhs:
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
    d! * scale^d * hits / samples; the standard error is the binomial one,
    rounded outward to a rational so the 4-sigma acceptance band is a
    rigorous bound rather than a float approximation.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    lo_lhs, lo_mul, hi_rhs, hi_mul = _hit_bounds(spec)
    max_total = spec.d * ((1 << _COORD_BITS) - 1)
    if (
        max(abs(lo_lhs), abs(hi_rhs)) < _INT64_SAFE
        and lo_mul * max_total < _INT64_SAFE
        and hi_mul * max_total < _INT64_SAFE
    ):
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


def mixed_volume_row(d: int, k: int) -> tuple[Fraction, ...]:
    """Mixed volumes j = 0..d of adjacent unit-cube slabs k and k+1.

    Entry j is coefficient d-j of the Minkowski volume polynomial divided
    by C(d, d-j); always a non-negative integer (a refined Eulerian
    number).  The polynomial is interpolated once for the whole row.
    """
    poly = minkowski_poly(d, k)
    row = []
    for j in range(d + 1):
        value = poly.coefficient(d - j) / binomial(d, d - j)
        if value < 0:
            raise NegativeResult(f"mixed_volume({d}, {k}, {j}) = {value}")
        row.append(value)
    return tuple(row)


def mixed_volume(d: int, k: int, j: int) -> Fraction:
    """j-th mixed volume of adjacent unit-cube slabs k and k+1: entry j
    of mixed_volume_row(d, k)."""
    _check_geometry_args(d, k, j)
    return mixed_volume_row(d, k)[j]


def _check_geometry_args(d: int, k: int, j: int) -> None:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not 0 <= k <= d:
        raise ValueError(f"slice index k must be in 0..{d}, got {k}")
    if not 0 <= j <= d:
        raise ValueError(f"mixed-volume index j must be in 0..{d}, got {j}")
