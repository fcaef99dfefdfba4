"""Experiment harness: convergence ladders, checks, CSV reporting.

Examples:
  hdg-elastic --test varcoeff --variant first-order --k 1 --n 1,2,3,4 --out run.csv
  hdg-elastic --test pwave --bc all-dirichlet --k 1 --n 1,2,4
  hdg-elastic --test hk-const --k 1 --n 1,2,3,4 --hk 0.1732
  hdg-elastic --check energy-identity
"""

import argparse
import csv
import math
import sys

import numpy as np

from .cases import make_case
from .discretization import Discretization
from .errors import (compute_errors, eoc, problem_data_from_case,
                     run_energy_identity_check)
from .global_system import solve_monolithic, solve_time_harmonic
from .local_ops import VARIANTS
from .mesh import build_structured_cube, tag_boundary

CSV_COLUMNS = ["test", "variant", "k", "n", "h", "kappa",
               "err_u", "err_sigma", "rel_err_u", "rel_err_sigma",
               "eoc_u", "eoc_sigma", "dofs_skeleton", "dofs_total",
               "assemble_s", "solve_s"]

VARIANT_NAMES = {
    "first-order": "first_order",
    "time-reversal": "time_reversed",
    "kappa-scaled": "kappa_scaled",
    "second-order": "conservative",
}

_DEFAULT_BC = {"varcoeff": "mixed", "polynomial": "mixed",
               "pwave": "all-dirichlet", "swave": "all-dirichlet",
               "hk-const": "impedance"}
DEFAULT_HK = math.sqrt(3.0) / 10.0


def _case_for(test, kappa, k):
    if test not in _DEFAULT_BC:
        raise ValueError(f"unknown test {test!r}")
    return make_case("pwave" if test == "hk-const" else test, kappa=kappa, k=k)


def run_experiment(test, variant_name, k, ns, kappa=1.0, hk=DEFAULT_HK,
                   bc=None, oracle_monolithic=False):
    """Run one ladder; returns (rows, oracle_report or None)."""
    variant = VARIANTS[VARIANT_NAMES.get(variant_name, variant_name)]
    bc = bc or _DEFAULT_BC[test]
    if test == "hk-const" and bc != "impedance":
        raise ValueError("the fixed h*kappa sweep is an impedance experiment")
    rows = []
    hs, errs_u, errs_s = [], [], []
    oracle_report = None
    case = None
    for idx, n in enumerate(ns):
        h = math.sqrt(3.0) / n
        kap = hk / h if test == "hk-const" else kappa
        if case is None or case.kappa != kap:   # only hk-const changes kappa
            case = _case_for(test, kap, k)
        mesh = tag_boundary(build_structured_cube(n), bc)
        disc = Discretization(mesh, k)
        data = problem_data_from_case(case)
        solution, info = solve_time_harmonic(disc, case.material, data, variant)
        report = compute_errors(disc, case.material, case, solution)
        if oracle_monolithic and idx == 0:
            oracle = solve_monolithic(disc, case.material, data, variant)
            num = (np.linalg.norm(oracle.sigma - solution.sigma)
                   + np.linalg.norm(oracle.u - solution.u)
                   + np.linalg.norm(oracle.uhat - solution.uhat))
            den = (np.linalg.norm(oracle.sigma) + np.linalg.norm(oracle.u)
                   + np.linalg.norm(oracle.uhat))
            oracle_report = num / max(den, 1e-300)
        hs.append(report.h)
        errs_u.append(report.err_u)
        errs_s.append(report.err_sigma)
        rows.append({
            "test": test, "variant": variant_name, "k": k, "n": n,
            "h": report.h, "kappa": kap,
            "err_u": report.err_u, "err_sigma": report.err_sigma,
            "rel_err_u": report.rel_err_u, "rel_err_sigma": report.rel_err_sigma,
            "eoc_u": "", "eoc_sigma": "",
            "dofs_skeleton": info["dofs_skeleton"],
            "dofs_total": info["dofs_total"],
            "assemble_s": info["assemble_s"],
            "solve_s": info["solve_s"],
        })
    for i, (ou, os_) in enumerate(zip(eoc(errs_u, hs), eoc(errs_s, hs))):
        if i == 0 or ou is None:
            continue
        rows[i]["eoc_u"] = "" if math.isnan(ou) else f"{ou:.6f}"
        rows[i]["eoc_sigma"] = "" if math.isnan(os_) else f"{os_:.6f}"
    return rows, oracle_report


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            for key in ("h", "kappa", "err_u", "err_sigma",
                        "rel_err_u", "rel_err_sigma"):
                out[key] = f"{row[key]:.12e}"
            for key in ("assemble_s", "solve_s"):
                out[key] = f"{row[key]:.6f}"
            writer.writerow(out)


def _print_rows(rows, stream):
    print(",".join(CSV_COLUMNS), file=stream)
    for row in rows:
        print(",".join(str(row[c]) for c in CSV_COLUMNS), file=stream)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hdg-elastic",
        description="Convergence and diagnostic runs for the hybrid elastic wave solver")
    parser.add_argument("--test", choices=["varcoeff", "pwave", "swave",
                                           "hk-const", "polynomial"])
    parser.add_argument("--variant", choices=sorted(VARIANT_NAMES),
                        default="first-order")
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--n", type=lambda s: [int(t) for t in s.split(",")],
                        default=[1, 2], metavar="N1,N2,...")
    parser.add_argument("--kappa", type=float, default=1.0)
    parser.add_argument("--hk", type=float, default=DEFAULT_HK,
                        help="fixed h*kappa for the hk-const sweep")
    parser.add_argument("--bc", choices=["mixed", "all-dirichlet", "impedance"])
    parser.add_argument("--check", choices=["energy-identity", "none"], default="none")
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--oracle-monolithic", action="store_true",
                        help="cross-check the coarsest level against the uncondensed solve")
    args = parser.parse_args(argv)

    if args.check == "energy-identity":
        lhs, rhs, rel = run_energy_identity_check()
        print(f"energy identity: lhs={lhs:.12e} rhs={rhs:.12e} rel_diff={rel:.3e}")
        return 0 if rel <= 1e-8 else 3

    if args.test is None:
        parser.error("--test is required unless --check is given")
    if any(n < 1 for n in args.n):
        parser.error("mesh subdivisions must be positive")
    if len(set(args.n)) < len(args.n):
        parser.error("mesh subdivisions must be distinct")
    if args.k < 1:
        parser.error("polynomial degree k must be >= 1")
    if not (math.isfinite(args.kappa) and args.kappa >= 0):
        parser.error("--kappa must be finite and >= 0")
    if not (math.isfinite(args.hk) and args.hk > 0):
        parser.error("--hk must be finite and > 0")

    rows, oracle = run_experiment(args.test, args.variant, args.k, args.n,
                                  kappa=args.kappa, hk=args.hk, bc=args.bc,
                                  oracle_monolithic=args.oracle_monolithic)
    if args.out:
        write_csv(args.out, rows)
    _print_rows(rows, sys.stdout)
    if oracle is not None:
        print(f"monolithic oracle relative difference: {oracle:.3e}")
        if oracle > 1e-9:
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
