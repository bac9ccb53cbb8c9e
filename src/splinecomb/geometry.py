"""Volume experiments connecting the combinatorial tables back to geometry.

Monte Carlo estimation of normalized slab volumes of a dilated unit cube
(slabs between hyperplanes of constant coordinate sum), and exact recovery
of the volume polynomial of the Minkowski combination of two adjacent unit
slabs, whose coefficients are refined Eulerian numbers.

Volumes are normalized so the d-cube has volume d!, which makes every slab
volume an integer.  The Monte Carlo estimator is fully deterministic: the
PRNG is splitmix64, whose state starts at the seed mod 2^64 and gains the
constant 0x9E3779B97F4A7C15 before each output, the output being the mix
`_mix` of the state (multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).
`splitmix64_stream` is that loop, the scalar reference; the counter reads
the same stream as numpy blocks.  A coordinate is (output >> 11) / 2^53
scaled by the dilation, so a sample hits the slab exactly when the integer
sum U of its d raw coordinates lies in the integer range
[ceil(lower 2^53 / scale), floor(upper 2^53 / scale)].  Sample s of
dimension d is outputs s*d+1 .. s*d+d of the seed's stream, so every d reads
a prefix of one stream: `mc_volumes`, the batched entry, draws it once per
seed for the largest d and tests each sample's U against the hit range of
every slab of its d; `mc_volume` is its one-slab case.  One counter serves
every d: it reads the stream in chunks of whole samples of the largest d,
about 2^16 coordinates, and sums U in numpy int64 for d <= 512, in Python
integers above, where int64 could overflow, so estimates are reproducible
bit-for-bit.  numpy is imported by that counter, not with this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, isqrt

from .errors import check_range, check_rational
from .numcore import factorial
from .polyring import Polynomial, interpolate

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_COORD_BITS = 53

# SliceSpec keeps 0 <= lower <= upper <= scale * d, so U and its hit range lie
# in [0, d * 2^53]: while d * (2^53 - 1) < 2^62 (d <= 512) they fit in int64.
_VECTOR_D_MAX = ((1 << 62) - 1) // ((1 << _COORD_BITS) - 1)

# Coordinates per counter chunk: a block of 512 KiB of uint64 at every d.
_CHUNK_COORDS = 1 << 16


@dataclass(frozen=True)
class SliceSpec:
    """Slab {x in scale * [0,1]^d : lower <= sum x_i <= upper}."""

    d: int
    scale: int
    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        check_range("dimension", self.d, 1)
        check_range("cube dilation factor", self.scale, 1)
        for bound in (self.lower, self.upper):
            check_rational("slab bound", bound)
        if not 0 <= self.lower <= self.upper <= self.scale * self.d:
            raise ValueError(
                f"slab [{self.lower}, {self.upper}] not inside [0, {self.scale * self.d}]"
            )

    @classmethod
    def dilated_slice(cls, d: int, n: int, k: int) -> "SliceSpec":
        """k-th slab of the n-dilated cube: sums between (k-1)n+1 and kn+1,
        clipped to the cube (clipping never changes the volume)."""
        check_range("dilation", n, 1)
        check_range("slice index", k, 0, d)
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


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """First `count` outputs of splitmix64 started from `seed`: the scalar
    reference, which adds gamma to the 64-bit state and emits its mix."""
    state = seed & _MASK64
    out = []
    for _ in range(count):
        state = (state + _GAMMA) & _MASK64
        out.append(_mix(state))
    return out


def _splitmix64_block(seed: int, start: int, count: int):
    """Outputs start+1 .. start+count of the stream as a numpy uint64 array.

    splitmix64 is counter-based: output i is the mix of seed + i * gamma,
    so any block of the stream can be produced directly.
    """
    import numpy as np

    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return _mix(np.uint64(seed & _MASK64) + idx * np.uint64(_GAMMA))


def _hit_range(spec: SliceSpec) -> tuple[int, int]:
    """Integer range [lo, hi] of the hit test on U, the sum of the d raw
    53-bit coordinates of one sample: lower <= scale * U / 2^53 <= upper
    holds exactly when lo <= U <= hi, as U is an integer and scale > 0.
    The bounds are read as Fractions, so int bounds divide exactly too."""
    lo = ceil(Fraction(spec.lower) * (1 << _COORD_BITS) / spec.scale)
    hi = floor(Fraction(spec.upper) * (1 << _COORD_BITS) / spec.scale)
    return lo, hi


def _count_hits(ranges_by_d: dict[int, list[tuple[int, int]]], samples: int, seed: int) -> dict[int, list[int]]:
    """Hits of each [lo, hi] in `ranges_by_d[d]` among the first `samples`
    samples of dimension d, for every d at once.

    The stream is drawn once: outputs 1 .. D * samples for the largest d,
    D, in chunks of whole samples of D, at most max(_CHUNK_COORDS, D)
    coordinates each.  Each d reads its prefix of d * samples coordinates,
    sums the whole samples in each chunk and carries a partial sample into
    the next chunk.  U is summed in numpy int64 while d <= _VECTOR_D_MAX
    and in Python integers (object dtype) above, where int64 could
    overflow.
    """
    if not ranges_by_d:
        return {}
    import numpy as np

    top = max(ranges_by_d)
    bounds = {d: np.array(r, dtype=np.int64 if d <= _VECTOR_D_MAX else object).T for d, r in ranges_by_d.items()}
    hits = {d: np.zeros(len(r), dtype=np.int64) for d, r in ranges_by_d.items()}
    carry = {d: np.empty(0, dtype=np.int64) for d in ranges_by_d}
    step = max(1, _CHUNK_COORDS // top) * top
    for start in range(0, top * samples, step):
        chunk = (_splitmix64_block(seed, start, min(step, top * samples - start)) >> np.uint64(11)).view(np.int64)
        for d, (lo, hi) in bounds.items():
            if d * samples <= start:
                continue  # d's prefix ended in an earlier chunk
            coords = chunk[: d * samples - start]
            if carry[d].size:
                coords = np.concatenate((carry[d], coords))
            whole = coords.size - coords.size % d
            # a copy, since a view would keep the whole chunk alive
            carry[d] = coords[whole:].copy()
            rows = coords[:whole].reshape(-1, d)
            # numpy's row sum runs a slow short-axis reduction on short rows;
            # einsum's is as fast or faster at every d up to 512.  On Python
            # integers einsum is slower, so that side keeps the row sum.
            if lo.dtype == object:
                total = rows.sum(axis=1, dtype=object)
            else:
                total = np.einsum("ij->i", rows)
            total.sort()
            # #(U <= hi) - #(U < lo) counts lo <= U <= hi, as lower <= upper
            # keeps hi >= lo - 1.
            hits[d] += np.searchsorted(total, hi, side="right") - np.searchsorted(total, lo, side="left")
    return {d: [int(h) for h in counts] for d, counts in hits.items()}


def _sqrt_upper_bound(value: Fraction) -> Fraction:
    """Smallest convenient rational >= sqrt(value); exact on perfect squares."""
    if value < 0:
        raise ValueError("square root of negative value")
    n, m = value.numerator, value.denominator
    root = isqrt(n * m)
    if root * root == n * m:
        return Fraction(root, m)
    return Fraction(root + 1, m)


def mc_volumes(specs, samples: int, seed: int) -> tuple[VolumeEstimate, ...]:
    """Deterministic Monte Carlo estimates of the normalized volumes of
    `specs`, one per spec in input order.

    Each slab's estimate uses `samples` points drawn uniformly from its
    dilated cube and counts those whose coordinate sum lies in the (closed)
    slab.  The points of dimension d are a prefix of the seed's one stream,
    so the stream is drawn once, for the largest d, and every slab is
    counted from its d's prefix.  The estimate is d! * scale^d * hits /
    samples; the standard error is the binomial one of the estimate,
    rounded outward to a rational.  `samples` must be an int >= 1 and
    `seed` an int (any sign; the generator runs from it mod 2^64).
    Acceptance against an exact volume uses mc_band, not this error.
    """
    check_range("sample count", samples, 1)
    check_range("seed", seed)
    specs = tuple(specs)
    ranges: dict[int, list[tuple[int, int]]] = {}
    for spec in specs:
        ranges.setdefault(spec.d, []).append(_hit_range(spec))
    # one iterator of hit counts per d, read back in input order
    hits = {d: iter(h) for d, h in _count_hits(ranges, samples, seed).items()}
    return tuple(_volume_estimate(spec, next(hits[spec.d]), samples, seed) for spec in specs)


def _volume_estimate(spec: SliceSpec, hits: int, samples: int, seed: int) -> VolumeEstimate:
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


def mc_volume(spec: SliceSpec, samples: int, seed: int) -> VolumeEstimate:
    """Monte Carlo estimate of one slab: mc_volumes((spec,), samples, seed)[0]."""
    return mc_volumes((spec,), samples, seed)[0]


def mc_band(spec: SliceSpec, exact: int, samples: int) -> Fraction:
    """Half-width of the Monte Carlo acceptance band around the exact
    normalized volume `exact` of `spec`: 4 standard errors of a
    `samples`-point estimate of the exact slab probability,
    sqrt(exact * (norm - exact) / samples) with norm = d! * scale^d,
    rounded outward.  Taken from the exact value rather than from the
    estimate, the band is not 0 when a slab gets no hits.  `exact` must be
    an int in 0..norm and `samples` an int >= 1.
    """
    norm = factorial(spec.d) * spec.scale**spec.d
    check_range("exact volume", exact, 0, norm)
    check_range("sample count", samples, 1)
    return 4 * _sqrt_upper_bound(Fraction(exact * (norm - exact), samples))


def minkowski_poly(d: int, k: int) -> Polynomial:
    """Volume polynomial (in the dilation weight) of the Minkowski sum of
    unit-cube slabs k and k+1, with the second body's weight fixed at 1.

    Interpolated from its values at the weights lam = 0..d, the scaled
    spline values d! (lam+1)^d B_{d+1}(k + 1/(lam+1)) = descent_spline(d,
    lam+1, k); degree is at most d and coefficient j is C(d, j) times the
    refined Eulerian number AR(d+1, k, d+1-j).
    """
    # Imported here, so that `geometry mc` does not load descent and
    # eulerian; the attribute lookup keeps a rebound descent_spline seen.
    from . import descent

    check_range("dimension", d, 1)
    check_range("slice index k", k, 0, d)
    return interpolate([descent.descent_spline(d, lam + 1, k) for lam in range(d + 1)])
