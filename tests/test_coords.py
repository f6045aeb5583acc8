"""Tests for the coordinate chart catalogue, Jacobians and inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from schrodsep.coords import (
    _CHARTS,
    _near_singular,
    CONTRACT_TOL,
    SplitClass,
    SystemId,
    all_system_ids,
    base_system_ids,
    forward,
    invert,
    jacobian,
    make_system,
    sample_domain,
    sampling_box,
)
from schrodsep.errors import (
    ConfigurationError,
    DomainError,
    InversionError,
    SchrodsepError,
    SingularityError,
)
from schrodsep.frame import embed, identity_frame, make_frame
from schrodsep.stackel import t_functions

A = 1.3
K = 0.8


def build(name):
    """System under test with nontrivial parameters where applicable."""
    try:
        return make_system(name, a=A, k=K)
    except ConfigurationError:
        pass
    try:
        return make_system(name, a=A)
    except ConfigurationError:
        return make_system(name)


def test_system_catalogue():
    assert len(all_system_ids()) == 13
    assert len(base_system_ids()) == 11
    assert "prolate_spheroidal_ii_plus" not in base_system_ids()
    assert "prolate_spheroidal_ii_minus" not in base_system_ids()


def test_chart_table_is_complete():
    assert set(_CHARTS) == set(SystemId)
    assert len(_CHARTS) == len(SystemId) == 13
    assert len(base_system_ids()) == 11
    for sid, chart in _CHARTS.items():
        k = K if chart.uses_k else None
        s = make_system(sid, a=A, k=k)
        assert s.chart is chart is sid.chart
        # a frame drives the chart exactly when its class is the record's
        w = sample_domain(s, seed=1, n=1)[0]
        for cls in SplitClass:
            if cls is chart.split_class:
                embed(s, make_frame(cls), 0.0, w)
            else:
                with pytest.raises(ConfigurationError):
                    embed(s, make_frame(cls), 0.0, w)
        # the focal scale is validated exactly when the chart uses it
        if chart.uses_a:
            with pytest.raises(ConfigurationError):
                make_system(sid, a=0.0, k=k)
        else:
            make_system(sid, a=0.0, k=k)
        # the modulus is required where used and refused elsewhere
        with pytest.raises(ConfigurationError):
            make_system(sid, a=A, k=None if chart.uses_k else K)


def test_split_classes():
    assert build("cartesian").split_class is SplitClass.COMPLETE
    for name in ("cylindrical", "parabolic_cylindrical", "elliptic_cylindrical"):
        assert build(name).split_class is SplitClass.PARTIAL
    for name in ("spherical", "prolate_spheroidal", "oblate_spheroidal",
                 "parabolic", "paraboloidal", "ellipsoidal", "conical",
                 "prolate_spheroidal_ii_plus", "prolate_spheroidal_ii_minus"):
        assert build(name).split_class is SplitClass.NONSPLIT


def test_make_system_validation():
    with pytest.raises(ConfigurationError):
        make_system("jacobian_of_all_trades")
    with pytest.raises(ConfigurationError):
        make_system("ellipsoidal")  # modulus required
    with pytest.raises(ConfigurationError):
        make_system("spherical", k=0.5)  # modulus not accepted
    with pytest.raises(ConfigurationError):
        make_system("oblate_spheroidal", a=0.0)


@pytest.mark.parametrize("a", [math.inf, math.nan, -1.0])
def test_make_system_rejects_nonfinite_focal_scale(a):
    with pytest.raises(ConfigurationError, match="focal scale"):
        make_system("prolate_spheroidal", a=a)


def test_forward_cartesian_identity():
    s = build("cartesian")
    np.testing.assert_array_equal(forward(s, (1.5, -2.0, 0.25)), [1.5, -2.0, 0.25])


def test_forward_spherical_example():
    s = build("spherical")
    z = forward(s, (2.0, 0.0, math.pi / 2))
    np.testing.assert_allclose(z, [0.0, 0.5, 0.0], atol=1e-15)


def test_forward_elliptic_cylindrical_example():
    s = make_system("elliptic_cylindrical", a=2.0)
    z = forward(s, (0.0, 0.0, 1.0))
    np.testing.assert_allclose(z, [2.0, 0.0, 1.0], atol=1e-15)


def test_prolate_variants_shift_z3():
    base = build("prolate_spheroidal")
    plus = build("prolate_spheroidal_ii_plus")
    minus = build("prolate_spheroidal_ii_minus")
    w = (0.9, 0.4, 1.1)
    z0 = forward(base, w)
    zp = forward(plus, w)
    zm = forward(minus, w)
    np.testing.assert_allclose(zp - z0, [0.0, 0.0, A], atol=1e-15)
    np.testing.assert_allclose(zm - z0, [0.0, 0.0, -A], atol=1e-15)


def test_domain_error_names_axis():
    with pytest.raises(DomainError) as info:
        forward(build("spherical"), (0.0, 0.0, 1.0))
    assert info.value.axis == 1
    with pytest.raises(DomainError) as info:
        forward(build("conical"), (1.0, 99.0, 1.0))
    assert info.value.axis == 2
    with pytest.raises(DomainError) as info:
        forward(build("parabolic"), (0.0, 0.0, -0.5))
    assert info.value.axis == 3


def test_jacobian_cartesian_identity():
    J = jacobian(build("cartesian"), (0.3, -4.0, 12.0))
    np.testing.assert_array_equal(J, np.eye(3))


def test_jacobian_cylindrical_origin():
    # By hand: d z1/d omega1 = exp(omega1) cos(omega2) = 1 at the origin,
    # and similarly for the rest; the matrix is the identity.
    J = jacobian(build("cylindrical"), (0.0, 0.0, 0.0))
    np.testing.assert_allclose(J, np.eye(3), atol=1e-15)


@pytest.mark.parametrize("name", all_system_ids())
def test_jacobian_matches_finite_differences(name):
    s = build(name)
    fwd, jac = s.chart.forward, s.chart.jacobian
    h = 1e-6
    for w in sample_domain(s, seed=101, n=60):
        J = np.array(jac(s, *w))
        Jfd = np.empty((3, 3))
        for i in range(3):
            wp = w.copy()
            wm = w.copy()
            wp[i] += h
            wm[i] -= h
            Jfd[:, i] = (
                np.array(fwd(s, *wp)) - np.array(fwd(s, *wm))
            ) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(J))))
        assert np.max(np.abs(J - Jfd)) <= 1e-7 * scale


def test_jacobian_singularity_guard():
    # The elliptic cylinder chart degenerates on the focal segment
    # (omega1 = omega2 = 0), which is an admissible boundary point of the
    # box, so the determinant guard must fire there.
    with pytest.raises(SingularityError):
        jacobian(build("elliptic_cylindrical"), (0.0, 0.0, 0.5))


def test_jacobian_guard_ignores_unequal_column_lengths():
    # Column norms about 1e12, 1e6 and 1e6 at the lower end of the
    # spherical sampling box: |det J| equals their product, so the point
    # is regular however much the lengths differ.
    J = jacobian(build("spherical"), (1e-6, 0.0, math.pi))
    ratio = abs(np.linalg.det(J)) / np.prod(np.linalg.norm(J, axis=0))
    assert ratio == pytest.approx(1.0, rel=1e-12)
    assert not _near_singular(np.diag([1e12, 1e6, 1e-6]), 1e12)


@pytest.mark.parametrize("columns", [
    ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), (0.0, 0.0, 1.0)),
    ((1e12, 0.0, 0.0), (0.0, 1e6, 1e-7), (0.0, 1e6, 0.0)),
])
def test_determinant_guard_refuses_degenerate_columns(columns):
    # A zero, a repeated and a nearly parallel column.
    m = np.array(columns).T
    assert _near_singular(m, float(np.linalg.det(m)))


def test_invert_cartesian_trivial():
    s = build("cartesian")
    w = invert(s, (3.0, 4.0, 5.0), (0.0, 0.0, 0.0))
    np.testing.assert_allclose(w, [3.0, 4.0, 5.0], atol=1e-12)


def test_invert_spherical_example():
    s = build("spherical")
    w = invert(s, (0.0, 0.5, 0.0), (1.5, 0.3, 1.2))
    np.testing.assert_allclose(w, [2.0, 0.0, math.pi / 2], atol=1e-9)


@pytest.mark.parametrize("name", all_system_ids())
def test_invert_round_trip(name):
    s = build(name)
    rng = np.random.default_rng(404)
    for w in sample_domain(s, seed=17, n=250):
        z = forward(s, w)
        w_rec = invert(s, z, w + rng.uniform(-5e-3, 5e-3, 3))
        assert np.max(np.abs(w_rec - w)) <= 1e-9
        z_rec = forward(s, w_rec)
        assert np.linalg.norm(z_rec - z) <= 1e-11 * (1 + np.linalg.norm(z))


def test_invert_failure_carries_last_iterate():
    # The origin is not in the image of the spherical chart (|z| = 1/omega1
    # never vanishes), so inversion must fail and report its state.
    s = build("spherical")
    with pytest.raises(InversionError) as info:
        invert(s, (0.0, 0.0, 0.0), (1.0, 0.1, 1.0))
    err = info.value
    assert err.last_omega.shape == (3,)
    assert err.residual > 0.0


def test_sample_domain_determinism():
    s = build("paraboloidal")
    a = sample_domain(s, seed=9, n=50)
    b = sample_domain(s, seed=9, n=50)
    np.testing.assert_array_equal(a, b)
    c = sample_domain(s, seed=10, n=50)
    assert np.any(a != c)


@pytest.mark.parametrize("name", all_system_ids())
def test_sample_domain_containment(name):
    s = build(name)
    for w in sample_domain(s, seed=3, n=100):
        forward(s, w)  # must not raise


def test_sample_domain_empty():
    assert sample_domain(build("conical"), seed=1, n=0).shape == (0, 3)


@pytest.mark.parametrize("name", all_system_ids())
def test_jacobian_columns_orthogonal(name):
    s = build(name)
    for w in sample_domain(s, seed=23, n=40):
        J = jacobian(s, w)
        G = J.T @ J
        norms = np.sqrt(np.diag(G))
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(G[i, j]) <= 1e-9 * norms[i] * norms[j]


@pytest.mark.parametrize("name", all_system_ids())
def test_inverse_components_are_harmonic(name):
    # Each omega_a(x) is a harmonic function.  Checked with a second-order
    # central Laplacian of the numerical inverse around forward(omega);
    # points where the chart is poorly conditioned are skipped because the
    # stencil there amplifies Newton round-off beyond the tolerance.
    s = build(name)
    h = 1e-4
    checked = 0
    for w in sample_domain(s, seed=31, n=40):
        J = jacobian(s, w)
        sigma = np.linalg.svd(J, compute_uv=False)
        if sigma[-1] < 0.3 or sigma[0] > 20.0:
            continue
        z = forward(s, w)
        lap = -6.0 * np.asarray(w, dtype=float)
        ok = True
        for axis in range(3):
            for sign in (-1.0, 1.0):
                zs = z.copy()
                zs[axis] += sign * h
                try:
                    lap = lap + invert(s, zs, w, slack=0.05)
                except (InversionError, DomainError):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        assert np.max(np.abs(lap)) / h**2 <= 1e-5
        checked += 1
        if checked >= 8:
            break
    assert checked >= 4


@pytest.mark.parametrize("name", all_system_ids())
@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(data=st.data())
def test_chart_properties_inside_sampling_box(name, data):
    # Three properties of every record at any point of the sampling box:
    # Newton inversion keeps its contract, the closed-form metric matches
    # the Jacobian columns, and whatever fails does so with a typed error.
    s = build(name)
    box = sampling_box(s)
    w = np.array([data.draw(st.floats(lo, hi), label=f"omega_{i + 1}")
                  for i, (lo, hi) in enumerate(box)])
    nudge = np.array(data.draw(st.lists(st.floats(-1e-3, 1e-3), min_size=3, max_size=3)))
    try:
        z = forward(s, w)
        w_rec = invert(s, z, w + nudge)
    except SchrodsepError:
        reject()
    J = jacobian(s, w)  # the determinant guard refuses no point of the box
    assert np.linalg.norm(forward(s, w_rec) - z) <= CONTRACT_TOL * (1.0 + np.linalg.norm(z))
    T = t_functions(s, identity_frame(s.split_class), 0.0)
    R2 = s.chart.metric(s, T, *(float(v) for v in w))
    np.testing.assert_allclose(np.sum(J * J, axis=0), R2, rtol=1e-9)
