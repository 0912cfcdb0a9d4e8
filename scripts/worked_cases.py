#!/usr/bin/env python3
"""Print the spectral data and a method-comparison table for small jump radii.

For each k up to --kmax this shows the symbol polynomial, its cofactor, the
cofactor roots with their inner roots and partial-fraction coefficients (one
per real root, and one per conjugate pair, labelled as its upper root "and
its conjugate"), and
then a table of h(0, ell) for one chosen n comparing the exact solve,
the spectral sum, and the closed form.

Usage:
    python scripts/worked_cases.py [--kmax 3] [--n 12] [--precision 256]
"""

import argparse

from mpmath import mp

from cyclepow import (
    GraphSpec,
    build_phi,
    build_psi,
    cached_factorization,
    hit_closed,
    hit_exact,
    hit_spectral,
)


def poly_str(coeffs) -> str:
    parts = []
    for power, coeff in enumerate(coeffs):
        if coeff == 0:
            continue
        if power == 0:
            parts.append(f"{coeff}")
        elif power == 1:
            parts.append(f"{coeff:+d}*x")
        else:
            parts.append(f"{coeff:+d}*x^{power}")
    return " ".join(parts) if parts else "0"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=3)
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--precision", type=int, default=256)
    args = parser.parse_args()

    for k in range(1, args.kmax + 1):
        print(f"=== k = {k} " + "=" * 50)
        print(f"  symbol    phi_{k}(x) = {poly_str(build_phi(k))}")
        print(f"  cofactor  psi_{k}(x) = {poly_str(build_psi(k))}")
        sf = cached_factorization(k, args.precision)
        print(f"  pole coefficient B = {sf.pole_coefficient}")
        for i, factor in enumerate(sf.factors):
            pair = " (and its conjugate)" if factor.root.imag else ""
            print(f"  root {i}:  gamma = {mp.nstr(factor.root, 12)}{pair}")
            print(f"           rho   = {mp.nstr(factor.inner_root, 12)}")
            print(f"           A     = {mp.nstr(factor.coefficient, 12)}")

        n = args.n
        if n < 2 * k + 1:
            print(f"  (n={n} too small for k={k}; skipping the table)")
            continue
        spec = GraphSpec(n, k)
        print(f"\n  h(0, ell) on n = {n}:")
        print(f"  {'ell':>4}  {'exact':>12}  {'spectral':>16}  {'closed':>16}")
        with mp.workprec(args.precision + 32):
            for ell in range(n // 2 + 1):
                exact = hit_exact(spec, ell)
                spectral = hit_spectral(spec, ell, args.precision)
                closed = hit_closed(spec, ell, args.precision)
                print(
                    f"  {ell:>4}  {str(exact):>12}  "
                    f"{mp.nstr(spectral, 12):>16}  {mp.nstr(closed, 12):>16}"
                )
        print()


if __name__ == "__main__":
    main()
