"""Tests for Stackel matrices, time functions and metric coefficients."""

import math

import numpy as np
import pytest

import schrodsep.stackel
from schrodsep import coords
from schrodsep.coords import all_system_ids, jacobian, make_system, sample_domain
from schrodsep.elliptic import modulus
from schrodsep.errors import ConfigurationError, DomainError
from schrodsep.frame import (
    constant,
    identity_frame,
    make_frame,
    polynomial,
    rotation_matrix,
    sinusoid,
)
from schrodsep.stackel import metric_r_squared, stackel_row, stackel_values, t_functions

A = 1.3
K = 0.8


def build(name):
    try:
        return make_system(name, a=A, k=K)
    except ConfigurationError:
        pass
    try:
        return make_system(name, a=A)
    except ConfigurationError:
        return make_system(name)


def wiggly_frame(class_of):
    """A deliberately generic admissible frame for the given class."""
    kwargs = dict(
        alpha=sinusoid(0.4, 1.1),
        beta=polynomial([0.2, 0.3]),
        gamma=sinusoid(0.3, 0.7, 0.5),
        h1=sinusoid(0.2, 0.9, 0.0, 1.4),
        w1=sinusoid(0.5, 1.2),
        w2=constant(-0.3),
        w3=polynomial([0.1, 0.2]),
    )
    if class_of == "complete":
        kwargs["h2"] = polynomial([1.1, 0.05, 0.02])
        kwargs["h3"] = constant(0.8)
    elif class_of == "partial":
        kwargs["h3"] = constant(0.8)
    return make_frame(class_of, **kwargs)


def test_stackel_cartesian_identity():
    s = build("cartesian")
    np.testing.assert_array_equal(stackel_values(s, (0.4, -1.0, 2.0)), np.eye(3))


def test_stackel_cylindrical_at_zero():
    s = build("cylindrical")
    F = stackel_values(s, (0.0, 1.0, -0.5))
    np.testing.assert_allclose(F, [[1, -1, 0], [0, 1, 0], [0, 0, 1]], atol=1e-15)


def test_stackel_spherical_example():
    s = build("spherical")
    F = stackel_values(s, (1.0, 0.0, 1.0))
    np.testing.assert_allclose(F, [[1, -1, 0], [0, 1, -1], [0, 0, 1]], atol=1e-15)


def test_stackel_row_locality():
    # Row i may depend on omega_i only.
    rng = np.random.default_rng(8)
    for name in all_system_ids():
        s = build(name)
        for w in sample_domain(s, seed=2, n=10):
            F0 = stackel_values(s, w)
            for i in range(3):
                row = stackel_row(s, i, float(w[i]))
                np.testing.assert_array_equal(F0[i], row)
            # Changing the other coordinates must leave row i intact.
            w2 = sample_domain(s, seed=int(rng.integers(1 << 30)), n=1)[0]
            for i in range(3):
                mixed = w2.copy()
                mixed[i] = w[i]
                np.testing.assert_array_equal(stackel_values(s, mixed)[i], F0[i])


@pytest.mark.parametrize("name", all_system_ids())
def test_stackel_values_on_a_stack(name, monkeypatch):
    # one row call per axis for the whole stack, each matrix the one at its
    # point to a few ulp: numpy squares an array but raises a float to the
    # power 2 through pow, and a row may take the fourth power
    s = build(name)
    w = sample_domain(s, seed=3, n=40)
    calls = []

    def counted(system, axis, v):
        calls.append(axis)
        return stackel_row(system, axis, v)

    monkeypatch.setattr(schrodsep.stackel, "stackel_row", counted)
    F = stackel_values(s, w)
    assert calls == [0, 1, 2] and F.shape == (40, 3, 3)
    for point, matrix in zip(w, F):
        np.testing.assert_allclose(matrix, stackel_values(s, point), rtol=1e-15, atol=0)
    bad = w.copy()
    bad[7, 0] = s.domain[0].lo - 1.0 if math.isfinite(s.domain[0].lo) else math.nan
    with pytest.raises(DomainError):
        stackel_values(s, bad)


@pytest.mark.parametrize("name", all_system_ids())
def test_stackel_values_at_one_point_equal_the_stacked_rows(name):
    # the rows square by multiplying, which numpy rounds the same way on a
    # float and on an array, so a one-point matrix is the stacked one bit
    # for bit
    s = build(name)
    w = sample_domain(s, seed=3, n=40)
    F = stackel_values(s, w)
    for point, matrix in zip(w, F):
        np.testing.assert_array_equal(stackel_values(s, point), matrix)


def test_stackel_row_rejects_bad_axis():
    with pytest.raises(ConfigurationError):
        stackel_row(build("spherical"), 3, 1.0)


def test_stackel_values_domain_check():
    with pytest.raises(DomainError):
        stackel_values(build("spherical"), (0.0, 0.0, 1.0))


@pytest.mark.parametrize("name", all_system_ids())
def test_stackel_matrix_nondegenerate(name):
    s = build(name)
    for w in sample_domain(s, seed=12, n=25):
        F = stackel_values(s, w)
        sigma = np.linalg.svd(F, compute_uv=False)
        assert sigma[-1] > 1e-10


def test_t_functions_examples():
    cart = build("cartesian")
    assert t_functions(cart, identity_frame("complete"), 0.3) == (1.0, 1.0, 1.0)

    sph = build("spherical")
    fr = make_frame("nonsplit", h1=constant(2.0))
    assert t_functions(sph, fr, 0.0) == (0.25, 0.0, 0.0)

    cyl = build("cylindrical")
    fr = make_frame("partial", h1=constant(2.0), h3=constant(5.0))
    assert t_functions(cyl, fr, 0.0) == (0.25, 0.0, 0.04)


def test_metric_cartesian_unit_frame():
    s = build("cartesian")
    assert metric_r_squared(s, identity_frame("complete"), 0.0, (0.5, 1.0, -2.0)) == (
        1.0,
        1.0,
        1.0,
    )


def test_metric_spherical_example():
    s = build("spherical")
    r2 = metric_r_squared(s, identity_frame("nonsplit"), 0.0, (2.0, 0.0, 1.0))
    np.testing.assert_allclose(r2, (1.0 / 16.0, 0.25, 0.25), rtol=1e-14)


#: Points next to the focal sets, where some metric coefficients are small
#: and a formula that subtracted two nearly equal terms would lose its
#: relative accuracy.
NEAR_FOCAL = {
    "oblate_spheroidal": [(0.5 * math.pi - 1e-6, 1e-5, 0.3)],
    "paraboloidal": [(0.0, 1e-5, 0.2), (0.2, 0.5 * math.pi - 1e-5, 0.0)],
    "ellipsoidal": [(modulus(K).K - 1e-5, 0.0, 0.6), (modulus(K).K - 1e-4, 1e-4, 0.6)],
}


@pytest.mark.parametrize("name", all_system_ids())
def test_metric_equals_jacobian_column_norms(name):
    s = build(name)
    fr = wiggly_frame(s.split_class.value)
    for t in (-0.7, 0.0, 0.9):
        T = rotation_matrix(fr, t)
        h = np.array(fr.scales(t))
        for w in [*sample_domain(s, seed=5, n=40), *NEAR_FOCAL.get(name, [])]:
            Acols = T @ (h[:, None] * jacobian(s, w))
            col2 = np.sum(Acols * Acols, axis=0)
            R2 = np.array(metric_r_squared(s, fr, t, w))
            np.testing.assert_allclose(col2, R2, rtol=1e-9)


#: Relative bound on the metric against a 40-digit evaluation of the same
#: chart map.  Near the ellipsoidal focal set the map takes cn(omega_1) of
#: order 1e-5 from `jacobi`, whose absolute error of about 1e-16 is a
#: relative 1e-11 there, so those points get the wider bound.
REFERENCE_RTOL = 4e-15
JACOBI_LIMITED_RTOL = 1e-10


@pytest.mark.parametrize("name", all_system_ids())
def test_metric_matches_40_digit_reference(name, monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    s = build(name)
    fr = identity_frame(s.split_class)
    samples = [(w, REFERENCE_RTOL) for w in sample_domain(s, seed=7, n=40)]
    focal_rtol = JACOBI_LIMITED_RTOL if name == "ellipsoidal" else REFERENCE_RTOL
    points = [*samples, *((w, focal_rtol) for w in NEAR_FOCAL.get(name, []))]
    got = [metric_r_squared(s, fr, 0.0, w) for w, _ in points]

    def jacobi(u, k):
        return tuple(mpmath.ellipfun(kind, u, k=k) for kind in ("sn", "cn", "dn"))

    monkeypatch.setattr(coords, "math", mpmath)
    monkeypatch.setattr(coords, "jacobi", jacobi)
    with mpmath.workdps(40):
        for (w, rtol), R2 in zip(points, got):
            _, J = s.chart.map(s, *(mpmath.mpf(float(v)) for v in w))
            for a in range(3):
                ref = sum(J[k][a] ** 2 for k in range(3))
                assert abs(R2[a] - ref) <= rtol * ref, (w, a)


@pytest.mark.parametrize("name", all_system_ids())
def test_stackel_relation(name):
    # sum_i F[i][j] / R_i^2 = T_j for each j, tying the three surfaces
    # of this module together.
    s = build(name)
    fr = wiggly_frame(s.split_class.value)
    for t in (-0.7, 0.0, 0.9):
        Tf = np.array(t_functions(s, fr, t))
        for w in sample_domain(s, seed=6, n=40):
            R2 = np.array(metric_r_squared(s, fr, t, w))
            F = stackel_values(s, w)
            lhs = F.T @ (1.0 / R2)
            scale = np.maximum(np.abs(Tf), np.max(np.abs(F.T) / R2, axis=1))
            assert np.max(np.abs(lhs - Tf) / scale) <= 1e-9
