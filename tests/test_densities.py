import numpy as np
import pytest
from numpy.testing import assert_allclose

from snode_lab import densities, quadrature, serialization
from snode_lab.errors import QuadratureNotConverged


def test_density_by_name():
    for name in ["uniform", "cauchy", "exp_sqrt"]:
        dens = densities.density_by_name(name)
        assert dens.name == name
    with pytest.raises(KeyError):
        densities.density_by_name("nope")


def test_table_density_interpolates_and_clips():
    dens = densities.density_by_name("table", {"t": [-1.0, 0.0, 1.0], "v": [0.0, 2.0, 0.0]})
    assert dens(np.array([0.0]))[0, 0, 0].real == pytest.approx(2.0)
    assert dens(np.array([0.5]))[0, 0, 0].real == pytest.approx(1.0)
    assert dens(np.array([3.0]))[0, 0, 0].real == 0.0
    assert dens.support == (-1.0, 1.0)


def test_log_det_falls_back_to_values():
    dens = densities.DensityFn("two", lambda t: 2.0 * np.ones_like(t)[:, None, None].astype(complex))
    assert_allclose(dens.log_det_at(np.array([0.0, 5.0])), np.log(2.0) * np.ones(2))


def test_graded_line_integrator_handles_cusp():
    # integral of exp(-sqrt|t|) over the line is 4
    f = lambda t: np.exp(-np.sqrt(np.abs(t)))
    [value] = quadrature.integrate_line_graded(f, next(quadrature._graded_rules((24,), [(0.0,)])), (24,))
    assert value == pytest.approx(4.0, rel=1e-12)


def test_graded_line_integrator_smooth_case():
    [value] = quadrature.integrate_line_graded(
        lambda t: 1.0 / (1.0 + t * t), next(quadrature._graded_rules((24,), [()])), (24,)
    )
    assert value == pytest.approx(np.pi, rel=1e-12)


def test_integrate_with_check_raises_on_drift():
    rng = np.random.default_rng(0)
    noisy = lambda t: 1.0 / (1.0 + t * t) + 1e-3 * rng.standard_normal(t.shape)
    with pytest.raises(QuadratureNotConverged):
        # a budget of 64 * 64 runs the line rule on the pair (64, 128)
        quadrature.integrate_with_check(noisy, (-np.inf, np.inf), (), 64 * 64, 1e-10)


def test_complex_matrix_json_roundtrip():
    M = np.array([[1 + 2j, -0.5], [0.25j, 3.0]])
    again = serialization.matrix_from_json(serialization.matrix_to_json(M))
    assert_allclose(again, M, atol=0)
