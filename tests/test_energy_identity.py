"""The discrete error energy identity on every boundary configuration, and
its independence of the element batch size."""

import numpy as np
import pytest

from hdg_elastic import (VARIANTS, Discretization, build_structured_cube,
                         energy_identity_sides, make_case, solve_time_harmonic,
                         tag_boundary, variable_preset)
from hdg_elastic import errors, local_ops
from hdg_elastic.errors import problem_data_from_case


def _sides(bc, k, kappa=1.3):
    case = make_case("varcoeff", kappa=kappa)
    disc = Discretization(tag_boundary(build_structured_cube(1), bc), k, exactness=20)
    material = variable_preset()
    solution, _ = solve_time_harmonic(disc, material, problem_data_from_case(case),
                                      VARIANTS["first_order"])
    return disc, material, case, solution


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("bc", ["mixed", "all-dirichlet", "all-neumann", "impedance"])
def test_identity_closes(bc, k):
    # on impedance faces the left side carries ||P_M u - u_hat||^2; without
    # it the sides differ by that term (relative 2e-2 to 1e-1)
    lhs, rhs = energy_identity_sides(*_sides(bc, k))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
    assert abs(lhs) > 1e-8


def test_identity_independent_of_batches(monkeypatch):
    args = _sides("impedance", 1)
    lhs, rhs = energy_identity_sides(*args)
    calls = []

    def counting(*a, **kw):
        calls.append(len(a[2]))
        return local_ops.element_blocks(*a, **kw)

    monkeypatch.setattr(errors, "element_blocks", counting)
    monkeypatch.setattr(local_ops, "_BATCH_BYTES", local_ops._BATCH_BYTES // 3)
    lhs_b, rhs_b = energy_identity_sides(*args)
    assert len(calls) >= 3 and sum(calls) == args[0].mesh.num_elements
    assert abs(lhs_b - lhs) <= 1e-13 * abs(lhs)
    assert abs(rhs_b - rhs) <= 1e-13 * abs(rhs)
