"""Convergence in the wave regime: the S-wave at kappa = 2 pi, one
wavelength across the unit cube, within criterion 3's rate windows."""

import math

from hdg_elastic.cli import run_experiment


def test_swave_rates_at_two_pi():
    # the optimal rates are k + 2 for u and k + 1 for sigma; the windows
    # reach 0.3 below and 0.5 above them. Measured: EOC(u) 4.08 and 4.00,
    # EOC(sigma) 2.78 and 2.85
    k = 2
    rows, _ = run_experiment("swave", "first-order", k, [2, 3, 4], kappa=2 * math.pi)
    for row in rows[1:]:
        eoc_u, eoc_s = float(row["eoc_u"]), float(row["eoc_sigma"])
        assert k + 2 - 0.3 <= eoc_u <= k + 2 + 0.5, (row["n"], eoc_u)
        assert k + 1 - 0.3 <= eoc_s <= k + 1 + 0.5, (row["n"], eoc_s)
