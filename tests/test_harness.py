"""Manufactured cases, error reports, EOC, CLI and CSV output."""

import csv
import math

import numpy as np
import pytest

from hdg_elastic import (Discretization, build_structured_cube, compute_errors,
                         eoc, make_case, solve_time_harmonic, tag_boundary,
                         VARIANTS)
from hdg_elastic import cli
from hdg_elastic.cli import CSV_COLUMNS, main, run_experiment
from hdg_elastic.errors import problem_data_from_case
from hdg_elastic.materials import pack_sym


RNG = np.random.default_rng(12345)


# ---------------------------------------------------------------- cases

def test_pwave_defaults():
    case = make_case("pwave")
    assert case.kappa == 1.0
    assert case.params["amplitude"] == 0.3
    x = RNG.uniform(0, 1, (8, 3))
    # pressure wave: u = a d exp(-i kappa/c x.d), c = sqrt(3)
    d = np.asarray(case.params["direction"])
    ref = 0.3 * d[None, :] * np.exp(-1j / np.sqrt(3) * (x @ d))[:, None]
    assert np.abs(case.u(x) - ref).max() < 1e-13


def test_swave_polarization_orthogonal():
    case = make_case("swave")
    d = np.asarray(case.params["direction"])
    e = np.asarray(case.params["polarization"])
    assert abs(d @ e) < 1e-13
    assert abs(np.linalg.norm(d) - 1) < 1e-13
    assert abs(np.linalg.norm(e) - 1) < 1e-13
    x = RNG.uniform(0, 1, (8, 3))
    ref = 0.3 * e[None, :] * np.exp(-1j * (x @ d))[:, None]  # c_s = 1
    assert np.abs(case.u(x) - ref).max() < 1e-13


def test_pwave_rejects_bad_direction():
    with pytest.raises(ValueError):
        make_case("pwave", direction=(1.0, 1.0, 0.0))  # not unit


def test_swave_rejects_nonorthogonal():
    with pytest.raises(ValueError):
        make_case("swave", direction=(1.0, 0.0, 0.0),
                  polarization=(1.0, 0.0, 0.0))


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        make_case("vortex")


def test_varcoeff_origin_value():
    case = make_case("varcoeff")
    val = case.u(np.zeros((1, 3)))[0]
    assert np.abs(val - np.array([0.0, 17.0, 1.0])).max() < 1e-13


def test_case_constants_are_exact_doubles():
    # at the origin the phase is 1 and only the constants remain
    x = np.zeros((1, 3))
    d = np.ones(3) / np.sqrt(3.0)
    assert np.array_equal(make_case("pwave").u(x)[0], 0.3 * d)
    rng = np.random.default_rng(20240901)
    constant_terms = [rng.uniform(-1.0, 1.0, size=10)[0] for _ in range(3)]  # 10 monomials
    assert np.array_equal(make_case("polynomial", k=1).u(x)[0], constant_terms)


def test_polynomial_case_degree_and_seed():
    a = make_case("polynomial", k=1, seed=7)
    b = make_case("polynomial", k=1, seed=7)
    c = make_case("polynomial", k=1, seed=8)
    x = RNG.uniform(0, 1, (4, 3))
    assert np.abs(a.u(x) - b.u(x)).max() == 0
    assert np.abs(a.u(x) - c.u(x)).max() > 1e-8


def test_case_data_consistency():
    # f = div sigma + kappa^2 rho u at random points (finite differences)
    for tag, kw in (("varcoeff", {}), ("pwave", {}),
                    ("polynomial", {"k": 2})):
        case = make_case(tag, kappa=1.3, **kw)
        x = RNG.uniform(0.2, 0.8, (6, 3))
        h = 1e-6
        div = np.zeros((6, 3), dtype=complex)
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            sp = np.asarray(case.sigma(x + e))
            sm = np.asarray(case.sigma(x - e))
            div += (sp[:, :, d] - sm[:, :, d]) / (2 * h)
        f_ref = div + 1.3 ** 2 * case.material.rho(x)[:, None] * case.u(x)
        assert np.abs(case.f(x) - f_ref).max() < 1e-5


def test_case_constitutive_consistency():
    # sigma = 2 mu eps(u) + lambda div(u) I at random points
    case = make_case("varcoeff", kappa=1.0)
    x = RNG.uniform(0.2, 0.8, (5, 3))
    h = 1e-6
    grad = np.zeros((5, 3, 3), dtype=complex)
    for d in range(3):
        e = np.zeros(3)
        e[d] = h
        grad[:, :, d] = (case.u(x + e) - case.u(x - e)) / (2 * h)
    eps = 0.5 * (grad + grad.transpose(0, 2, 1))
    lam, mu = case.material.lam(x), case.material.mu(x)
    tr = np.trace(eps, axis1=1, axis2=2)
    ref = 2 * mu[:, None, None] * eps \
        + (lam * tr)[:, None, None] * np.eye(3)
    assert np.abs(np.asarray(case.sigma(x)) - ref).max() < 1e-6


def test_impedance_data():
    # impedance condition sigma n + i kappa u = g_r, here with kappa = 2
    case = make_case("pwave", kappa=2.0)
    x = RNG.uniform(0, 1, (4, 3))
    n = np.array([0.0, 0.0, 1.0])
    sig = np.asarray(case.sigma(x))
    ref = np.einsum("qab,b->qa", sig, n) + 2.0j * case.u(x)
    assert np.abs(case.g_r(x, n) - ref).max() < 1e-12


# ---------------------------------------------------------------- errors

def test_exact_discrete_solution_zero_error():
    case = make_case("polynomial", kappa=1.0, k=1)
    mesh = tag_boundary(build_structured_cube(1), "mixed")
    disc = Discretization(mesh, 1)
    from hdg_elastic.global_system import SolutionFields
    ne = mesh.num_elements
    sigma = np.stack([disc.project_v(e, case.sigma) for e in range(ne)])
    u = np.stack([disc.project_w(e, case.u) for e in range(ne)])
    uhat = np.stack([disc.project_face(fi, case.u)
                     for fi in range(mesh.num_faces)])
    sol = SolutionFields(1.0, "first_order", 1, sigma, u, uhat, {})
    rep = compute_errors(disc, case.material, case, sol)
    assert rep.err_u <= 1e-12
    assert rep.err_sigma <= 1e-12
    assert rep.err_trace <= 1e-12


def test_error_report_nonnegative_and_relative():
    case = make_case("varcoeff", kappa=1.0)
    mesh = tag_boundary(build_structured_cube(1), "mixed")
    disc = Discretization(mesh, 1)
    sol, _ = solve_time_harmonic(disc, case.material,
                                 problem_data_from_case(case),
                                 VARIANTS["first_order"])
    rep = compute_errors(disc, case.material, case, sol)
    assert rep.err_u > 0 and rep.err_sigma > 0
    assert rep.err_trace > 0
    # relative errors divide the absolute ones by the exact-field norms
    assert 0 < rep.rel_err_u < rep.err_u       # ||u|| > 1 for this case
    assert 0 < rep.rel_err_sigma < rep.err_sigma
    assert rep.h == pytest.approx(np.sqrt(3))
    assert rep.k == 1 and rep.kappa == 1.0


def test_eoc_values():
    rates = eoc([1e-2, 2.5e-3], [0.5, 0.25])
    assert rates[0] is None
    assert abs(rates[1] - 2.0) < 1e-12
    rates = eoc([1e-3, 1e-3], [1.0, 0.5])
    assert abs(rates[1]) < 1e-12
    rates = eoc([1e-3, 0.0], [1.0, 0.5])
    assert math.isnan(rates[1])
    with pytest.raises(ValueError, match="same mesh size"):
        eoc([1e-2, 1e-3, 1e-4], [1.0, 0.5, 0.5])
    # a saturated level has no rate to divide by its mesh sizes
    assert math.isnan(eoc([0.0, 0.0], [1.0, 1.0])[1])


# ---------------------------------------------------------------- CLI

def test_cli_csv_schema(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["--test", "polynomial", "--k", "1", "--variant",
                 "first-order", "--n", "1", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert rows[0] == ("test,variant,k,n,h,kappa,err_u,err_sigma,rel_err_u,"
                       "rel_err_sigma,eoc_u,eoc_sigma,dofs_skeleton,"
                       "dofs_total,assemble_s,solve_s").split(",")
    assert len(rows) == 2
    assert rows[1][0] == "polynomial"
    assert float(rows[1][8]) < 1e-9   # polynomial exactness via the CLI


def test_cli_deterministic(tmp_path):
    args = ["--test", "pwave", "--k", "1", "--variant", "first-order",
            "--n", "1,2", "--bc", "all-dirichlet"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    with open(out1) as fh:
        rows1 = list(csv.reader(fh))
    with open(out2) as fh:
        rows2 = list(csv.reader(fh))
    timing = {CSV_COLUMNS.index("assemble_s"), CSV_COLUMNS.index("solve_s")}
    for r1, r2 in zip(rows1, rows2):
        for i, (a, b) in enumerate(zip(r1, r2)):
            if i not in timing:
                assert a == b


def test_cli_invalid_args():
    with pytest.raises(SystemExit):
        main(["--test", "unknown-test"])
    with pytest.raises(SystemExit):
        main(["--test", "varcoeff", "--variant", "bogus"])
    # kappa must be finite and >= 0; hk must be finite and > 0 (hk = 0 is a
    # static pure-traction impedance problem); the --n values must be distinct
    for argv in (["--test", "varcoeff", "--kappa", "-1"],
                 ["--test", "varcoeff", "--kappa", "nan"],
                 ["--test", "varcoeff", "--kappa", "inf"],
                 ["--test", "hk-const", "--hk", "-0.1"],
                 ["--test", "hk-const", "--hk", "0"],
                 ["--test", "hk-const", "--hk", "nan"],
                 ["--test", "varcoeff", "--n", "1,1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_cli_oracle_monolithic(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["--test", "polynomial", "--k", "1", "--variant",
                 "second-order", "--n", "1", "--oracle-monolithic",
                 "--out", str(out)])
    assert code == 0


def test_cli_energy_identity_check(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["--test", "varcoeff", "--k", "1", "--variant", "first-order",
                 "--n", "1", "--check", "energy-identity", "--out", str(out)])
    assert code == 0


def test_run_experiment_hk_const():
    rows, _ = run_experiment("hk-const", "first-order", 1, [1, 2], hk=np.sqrt(3) / 10)
    assert len(rows) == 2
    # kappa scales with n so that h * kappa is constant
    assert abs(rows[0]["h"] * rows[0]["kappa"] - np.sqrt(3) / 10) < 1e-12
    assert abs(rows[1]["h"] * rows[1]["kappa"] - np.sqrt(3) / 10) < 1e-12
    assert rows[1]["kappa"] == pytest.approx(2 * rows[0]["kappa"])


@pytest.mark.parametrize("test,calls", [("varcoeff", 1), ("hk-const", 2)])
def test_case_built_once_per_frequency(monkeypatch, test, calls):
    # only the fixed h*kappa sweep changes kappa between levels
    made = []

    def counting(*args, **kwargs):
        made.append(kwargs.get("kappa"))
        return make_case(*args, **kwargs)

    monkeypatch.setattr(cli, "make_case", counting)
    rows, _ = run_experiment(test, "first-order", 1, [1, 2])
    assert len(made) == calls
    assert [row["kappa"] for row in rows][-calls:] == made
