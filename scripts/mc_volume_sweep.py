#!/usr/bin/env python3
"""Monte Carlo volume sweep: estimated vs exact slab volumes.

Runs the sweep of the Monte Carlo verify suite (verify.mc_pairs, with its
slice labels): every unit-cube slab up to --d-max and every dilated slab
up to --dilated-d-max at dilations n = 2..--n-max + 1, for each seed.  It
prints one CSV row per (slice, seed) with the exact value, the estimate,
its outward-rounded standard error, and whether the estimate sits inside
the acceptance band of the verify suite (geometry.mc_band).  All numbers
are exact rational strings.  Sizes must be positive.

Example:
    python scripts/mc_volume_sweep.py --samples 200000 --seeds 11,421,9001
"""

import argparse
import sys

from splinecomb.cli import _positive_int
from splinecomb.numcore import format_rational
from splinecomb.verify import VerifyConfig, mc_pairs


def _seed_list(text: str) -> tuple[int, ...]:
    return tuple(int(seed) for seed in text.split(","))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d-max", type=_positive_int, default=6)
    parser.add_argument("--dilated-d-max", type=_positive_int, default=4)
    parser.add_argument("--n-max", type=_positive_int, default=3)
    parser.add_argument("--samples", type=_positive_int, default=100_000)
    parser.add_argument("--seeds", type=_seed_list, default="101,20231,777003",
                        help="comma-separated seed list")
    args = parser.parse_args(argv)

    print("slice,seed,exact,estimate,standard_error,within_4_sigma")
    excursions = 0
    config = VerifyConfig(d_max=args.d_max, n_max=args.n_max, mc_samples=args.samples, mc_seeds=args.seeds,
                          mc_dilated_d_max=args.dilated_d_max)
    for label, seed, exact, est, band in mc_pairs(config):
        inside = abs(est.estimate - exact) <= band
        excursions += not inside
        print(
            ",".join(
                [
                    label,
                    str(seed),
                    format_rational(exact),
                    format_rational(est.estimate),
                    format_rational(est.standard_error),
                    "yes" if inside else "NO",
                ]
            )
        )
    print(f"# excursions: {excursions}", file=sys.stderr)
    return 0 if excursions <= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
