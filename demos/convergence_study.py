"""Convergence study on the variable-coefficient manufactured solution.

Solves the time-harmonic elastic problem with smoothly varying Lame
parameters and density on a ladder of structured meshes, for two flux
variants, and prints the observed orders of convergence. The displacement
converges at order k+2 and the (unscaled) stress at order k+1.

Usage::

    python demos/convergence_study.py [--k 1] [--kappa 1.0]
"""

import argparse

from hdg_elastic.cli import run_experiment


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--k", type=int, default=1)
    ap.add_argument("--kappa", type=float, default=1.0)
    args = ap.parse_args()

    header = (f"{'n':>2} {'h':>7} {'err_u':>10} {'eoc':>5} "
              f"{'err_sigma':>10} {'eoc':>5} {'skeleton dofs':>13}")
    for variant in ("first-order", "second-order"):
        print(f"\nvariant = {variant}  (k = {args.k}, kappa = {args.kappa})")
        print(header)
        rows, _ = run_experiment("varcoeff", variant, args.k, [1, 2, 3, 4],
                                 kappa=args.kappa)
        for r in rows:
            print(f"{r['n']:>2} {r['h']:7.4f} {r['err_u']:10.3e} "
                  f"{r['eoc_u'] and float(r['eoc_u']) or 0:5.2f} "
                  f"{r['err_sigma']:10.3e} "
                  f"{r['eoc_sigma'] and float(r['eoc_sigma']) or 0:5.2f} "
                  f"{r['dofs_skeleton']:>13}")
        print(f"expected: EOC(u) -> {args.k + 2}, EOC(sigma) -> {args.k + 1}")


if __name__ == "__main__":
    main()
