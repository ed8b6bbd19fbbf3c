"""NuOp's direct L-BFGS-B loop against ``scipy.optimize.minimize``.

:func:`repro.core.decomposer.minimise_lbfgsb` drives scipy's
reverse-communication ``setulb`` itself instead of going through
``minimize(method="L-BFGS-B")``.  Every optimised NuOp count, and so every
golden decomposition, depends on the two agreeing bit for bit: these tests
compare final ``x`` and value bytes, iteration and evaluation counts on
every template family, from zero and random starts, under the iteration
cap, and on the objective's zero-overlap early return.  A scipy release
that changes ``setulb`` or ``_minimize_lbfgsb`` fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.core.decomposer import minimise_lbfgsb
from repro.core.templates import continuous_family_template, fixed_gate_template
from repro.gates.parametric import fsim
from repro.gates.standard import CZ
from repro.gates.unitary import random_su4

TEMPLATES = {
    **{f"fixed_L{layers}": fixed_gate_template(layers, CZ) for layers in range(4)},
    **{f"syc_L{layers}": fixed_gate_template(layers, fsim(np.pi / 2, np.pi / 6)) for layers in (1, 2)},
    **{f"xy_L{layers}": continuous_family_template(layers, "xy") for layers in (1, 2, 3)},
    **{f"fsim_L{layers}": continuous_family_template(layers, "fsim") for layers in (1, 2)},
}


def scipy_reference(objective, x0, maxiter):
    return minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": maxiter, "ftol": 1e-14, "gtol": 1e-10},
    )


def assert_same_run(objective, x0, maxiter):
    want = scipy_reference(objective, x0.copy(), maxiter)
    x, value, iterations, evaluations = minimise_lbfgsb(objective, x0.copy(), maxiter)
    assert x.tobytes() == want.x.tobytes()
    assert np.float64(value).tobytes() == np.float64(want.fun).tobytes()
    assert iterations == want.nit
    assert evaluations == want.nfev
    return iterations


@pytest.mark.parametrize("name", list(TEMPLATES))
def test_loop_matches_minimize_from_zeros_and_random_starts(name):
    template = TEMPLATES[name]
    rng = np.random.default_rng(31)
    for _ in range(3):
        target = random_su4(rng)

        def objective(flat):
            return template.objective_with_gradient(flat, target)

        assert_same_run(objective, template.initial_parameters(), 250)
        assert_same_run(objective, template.initial_parameters(rng), 250)


def test_iteration_cap_stops_both_at_the_same_point():
    template = TEMPLATES["fixed_L3"]
    rng = np.random.default_rng(32)
    target = random_su4(rng)
    start = template.initial_parameters(rng)

    def objective(flat):
        return template.objective_with_gradient(flat, target)

    assert assert_same_run(objective, start, 250) > 4  # converging needs more than 4
    assert assert_same_run(objective, start, 4) == 4


def test_zero_overlap_start_returns_at_once():
    # U3 layers at zero make the identity; X (x) I has zero trace against it,
    # so the objective returns value 1 and a zero gradient.
    template = TEMPLATES["fixed_L0"]
    target = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)).astype(complex)

    def objective(flat):
        return template.objective_with_gradient(flat, target)

    value, gradient = objective(template.initial_parameters())
    assert value == 1.0 and not gradient.any()
    assert assert_same_run(objective, template.initial_parameters(), 250) == 0
