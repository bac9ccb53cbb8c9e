#!/usr/bin/env python3
"""How tight is log-concavity of the descent histograms?

For each (d, n) prints the minimum normalized margin
min_k (v_k^2 - v_{k-1} v_{k+1}) / v_k^2 over interior k, as an exact
rational.  A zero would mean a geometric (equality) stretch; negative is
impossible.  Useful for seeing where the inequality is closest to sharp.

Example:
    python scripts/log_concavity_margins.py --d-max 12 --n-max 6
"""

import argparse
import sys
from fractions import Fraction

from splinecomb.cli import _at_least
from splinecomb.descent import descent_table, log_concavity_verdict
from splinecomb.numcore import format_rational


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # d = 1 has no interior margin, so the sweep starts at d = 2.
    parser.add_argument("--d-max", type=_at_least(2), default=10)
    parser.add_argument("--n-max", type=_at_least(1), default=4)
    args = parser.parse_args(argv)

    print("d,n,min_margin,min_normalized_margin")
    for d in range(2, args.d_max + 1):
        for n in range(1, args.n_max + 1):
            table = descent_table(d, n, "spline")
            margins = log_concavity_verdict(table)
            normalized = [
                Fraction(m, table.values[k + 1] ** 2) if table.values[k + 1] else Fraction(0)
                for k, m in enumerate(margins)
            ]
            print(
                ",".join(
                    [
                        str(d),
                        str(n),
                        format_rational(min(margins)),
                        format_rational(min(normalized)),
                    ]
                )
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
