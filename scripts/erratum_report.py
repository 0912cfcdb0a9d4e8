#!/usr/bin/env python3
"""Show how the uncorrected closed-form variants deviate from the oracle.

The closed form's correction term is a ratio of recurrence-sequence values.
Two published-looking ways to write that ratio are wrong and are kept in the
package purely for comparison:

  * the full-index ratio V_ell * V_(n-ell) / V_n, where V runs the
    recurrence with the root gamma itself;
  * for k=2, the doubled-index Fibonacci form
    (2/5) ell (n-ell) + (4/5) n F_(2 ell) F_(2(n-ell)) / F_(2n).

The verified form uses the half-index sequence (coefficient delta with
delta^2 = gamma + 2), which for k=2 collapses to single-index Fibonacci
numbers.  This script tabulates all three against the exact solve.

Usage:
    python scripts/erratum_report.py [--n-max 16]
"""

import argparse
from fractions import Fraction

from mpmath import mp

from cyclepow import GraphSpec, hit_closed_literal, hit_exact


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=16)
    args = parser.parse_args()

    print("k = 2;  'verified' is (2/5) l(n-l) + (4/5) n F_l F_(n-l) / F_n")
    print(
        f"{'n':>3} {'ell':>4} {'exact':>8} {'verified':>10} "
        f"{'full-index':>11} {'doubled-idx':>12}"
    )
    worst = 0.0
    with mp.workprec(288):
        for n in range(5, args.n_max + 1):
            for ell in range(1, n // 2 + 1):
                exact = hit_exact(GraphSpec(n, 2), ell)
                verified = Fraction(2, 5) * ell * (n - ell) + Fraction(4, 5) * n * \
                    Fraction(fibonacci(ell) * fibonacci(n - ell), fibonacci(n))
                literal = hit_closed_literal(GraphSpec(n, 2), ell, 256)
                doubled = Fraction(2, 5) * ell * (n - ell) + Fraction(4, 5) * n * \
                    Fraction(
                        fibonacci(2 * ell) * fibonacci(2 * (n - ell)),
                        fibonacci(2 * n),
                    )
                assert verified == exact
                worst = max(worst, abs(float(literal - float(exact))),
                            abs(float(doubled - exact)))
                print(
                    f"{n:>3} {ell:>4} {str(exact):>8} {str(verified):>10} "
                    f"{mp.nstr(literal, 7):>11} {float(doubled):>12.5f}"
                )
    print(f"\nverified form is exact everywhere; worst wrong-form deviation: "
          f"{worst:.4f}")


if __name__ == "__main__":
    main()
