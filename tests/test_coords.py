"""Tests for the coordinate chart catalogue, Jacobians and inversion."""

import itertools
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import schrodsep.coords
from schrodsep.coords import (
    _CHARTS,
    _adjugate,
    _det3,
    _near_singular,
    _norm,
    _steps_batch,
    CONTRACT_TOL,
    FLOOR_TOL,
    TARGET_TOL,
    SplitClass,
    SystemId,
    all_system_ids,
    base_system_ids,
    forward,
    invert,
    invert_batch,
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
from schrodsep.frame import constant, embed, make_frame
from schrodsep.stackel import metric_r_squared

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
    # z and J both come from single calls of the chart's one map function.
    s = build(name)
    h = 1e-6
    for w in sample_domain(s, seed=101, n=60):
        J = np.array(s.chart.map(s, *w)[1])
        Jfd = np.empty((3, 3))
        for i in range(3):
            wp = w.copy()
            wm = w.copy()
            wp[i] += h
            wm[i] -= h
            Jfd[:, i] = (
                np.array(s.chart.map(s, *wp)[0]) - np.array(s.chart.map(s, *wm)[0])
            ) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(J))))
        assert np.max(np.abs(J - Jfd)) <= 1e-7 * scale


@pytest.mark.parametrize("name", all_system_ids())
def test_array_map_stacks_the_scalar_map(name):
    # z comes as one (3, n) float array and J as one (3, 3, n), a constant
    # entry broadcast to that shape, each entry the scalar map's at its
    # sample up to the rounding of numpy's functions against math's,
    # relative to the largest entry there (the shifted prolate z3 cancels).
    s = build(name)
    w = sample_domain(s, seed=17, n=40)
    z, J = s.chart.array_map(s, *w.T)
    assert (z.dtype, z.shape, J.dtype, J.shape) == (np.float64, (3, 40), np.float64, (3, 3, 40))
    if name == "cartesian":
        assert J.tobytes() == np.repeat(np.eye(3)[:, :, None], 40, axis=2).tobytes()
    for j, point in enumerate(w):
        z_j, J_j = (np.array(part) for part in s.chart.map(s, *point))
        assert np.max(np.abs(z[:, j] - z_j)) <= 1e-14 * np.max(np.abs(z_j))
        assert np.max(np.abs(J[:, :, j] - J_j)) <= 1e-14 * np.max(np.abs(J_j))


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


def _matrices(kind: str, seed: int, n: int = 64):
    """A stack (3, 3, n) of 3x3 matrices, entry (a, i) at [a, i], and a stack
    (3, n) of right-hand sides: standard normal entries, then rows and columns
    scaled over twelve decades ("scaled"), or a third column that is a
    combination of the other two plus a perturbation of 1e-15 to 0.1 of it
    ("near_singular")."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 3, n))
    if kind == "scaled":
        m *= 10.0 ** rng.uniform(-6, 6, (3, 1, n)) * 10.0 ** rng.uniform(-6, 6, (1, 3, n))
    elif kind == "near_singular":
        c = rng.standard_normal((2, n))
        noise = 10.0 ** rng.uniform(-15, -1, n) * rng.standard_normal((3, n))
        m[:, 2] = c[0] * m[:, 0] + c[1] * m[:, 1] + noise
    return m, rng.standard_normal((3, n))


def _permanent(m):
    """The permanent of each 3x3 matrix of the stack m: the sum of the
    absolute terms of the determinant when m is non-negative."""
    return sum(m[0, p] * m[1, q] * m[2, r] for p, q, r in itertools.permutations(range(3)))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(kind=st.sampled_from(["random", "scaled", "near_singular"]), seed=st.integers(0, 2**32 - 1))
def test_det3_and_adjugate_invert_a_3x3_stack(kind, seed):
    # The one 3x3 determinant and adjugate: adj(m) m = det(m) I to rounding,
    # det against LAPACK's, and the Newton step adj(m) d / det against
    # LAPACK's solve where m is well conditioned.
    m, d = _matrices(kind, seed)
    det, adj = _det3(m), _adjugate(m)
    eps = np.finfo(float).eps
    product = np.einsum("ikn,kjn->ijn", adj, m)
    for i, j in itertools.product(range(3), repeat=2):
        # entry (i, j) is the determinant of m with column j in place of
        # column i; its rounding is bounded by its absolute terms
        swapped = np.abs(m)
        swapped[:, i] = swapped[:, j]
        exact = det if i == j else 0.0
        assert np.all(np.abs(product[i, j] - exact) <= 8.0 * eps * _permanent(swapped))
    columns = np.prod(np.linalg.norm(m, axis=0), axis=0)
    assert np.all(np.abs(det - np.linalg.det(m.transpose(2, 0, 1))) <= 1e-12 * columns)
    keep, step = _steps_batch(m, d, np.arange(m.shape[2]))
    assert np.array_equal(keep, det != 0.0)
    mats, rhs = m.transpose(2, 0, 1)[keep], d.T[keep]
    cond = np.linalg.cond(mats)
    well = cond < 1e8
    want = np.linalg.solve(mats[well], rhs[well][..., None])[..., 0].T
    miss = np.linalg.norm(step[:, well] - want, axis=0)
    assert np.all(miss <= 64.0 * eps * cond[well] * np.linalg.norm(want, axis=0))


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


def test_overflow_at_extreme_finite_input_is_typed():
    # exp(800) and the squares of 1e308 and 1e200 overflow in float
    # arithmetic; each entry point reports that as its own error type.
    for name, cls in (("cartesian", "complete"), ("spherical", "nonsplit")):
        huge = make_frame(cls, h1=constant(1e308))
        with pytest.raises(SingularityError, match="metric"):
            metric_r_squared(make_system(name), huge, 0.0, (1.0, 0.5, 0.5))
    parabolic = make_system("parabolic")
    for fn in (forward, jacobian):
        with pytest.raises(DomainError, match="overflow"):
            fn(parabolic, (800.0, 0.0, 0.0))
    for name, z in (("cartesian", (1e308,) * 3), ("parabolic", (1e200, 0.0, 0.0))):
        with pytest.raises(InversionError, match="overflow") as info:
            invert(make_system(name), z, (0.0, 0.0, 0.0))
        assert info.value.last_omega.shape == (3,)
        assert info.value.residual == math.inf


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
                    lap = lap + invert(s, zs, w)
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
    # Newton inversion keeps its contract, the determinant guard refuses no
    # point, and whatever fails does so with a typed error.
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
    jacobian(s, w)  # the determinant guard refuses no point of the box
    assert np.linalg.norm(forward(s, w_rec) - z) <= CONTRACT_TOL * (1.0 + np.linalg.norm(z))


@pytest.mark.parametrize("name", all_system_ids())
@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(data=st.data())
def test_invert_batch_keeps_the_scalar_contract(name, data):
    # Targets are images of points of the sampling box, guesses points near
    # them, some far enough off that Newton backtracks, clamps or fails.
    # Every accepted row meets the contract of invert, and every row that
    # invert solves from the same guess the batch solves too, to the same
    # omega bit for bit: invert is a one-row batch.
    s = build(name)
    box = sampling_box(s)
    n = data.draw(st.integers(1, 6), label="rows")
    points = np.array([[data.draw(st.floats(lo, hi)) for lo, hi in box] for _ in range(n)])
    reach = data.draw(st.sampled_from([1e-3, 0.1, 1.0]), label="reach")
    nudge = np.array(data.draw(st.lists(st.floats(-reach, reach), min_size=3 * n,
                                        max_size=3 * n))).reshape(n, 3)
    try:
        Z = np.array([forward(s, w) for w in points])
    except SchrodsepError:
        reject()
    G = points + nudge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        omega, ok = invert_batch(s, Z, G)
    assert omega.shape == (n, 3) and ok.shape == (n,)
    for z, g, w, accepted in zip(Z, G, omega, ok):
        if accepted:
            assert np.linalg.norm(forward(s, w) - z) <= CONTRACT_TOL * (1.0 + np.linalg.norm(z))
        try:
            w_scalar = invert(s, z, g)
        except SchrodsepError:
            continue
        assert accepted
        assert w.tobytes() == w_scalar.tobytes()


def test_invert_batch_fails_bad_rows_alone():
    # An overflowing target, a non-finite one, a guess whose image
    # overflows and one where the Jacobian is singular (exp(-800) = 0 on
    # the cylindrical chart) each fail their own row; the other rows
    # converge exactly as they do without them, and no numpy warning
    # escapes.
    for name, bad_rows in (
        ("cylindrical", [((1e200, 1e200, 0.0), (0.1, 0.2, 0.3)),
                         ((math.nan, 0.0, 0.0), (0.1, 0.2, 0.3)),
                         ((1.0, 0.0, 0.0), (-800.0, 0.0, 0.0))]),
        ("parabolic", [((1.0, 1.0, 1.0), (800.0, 0.0, 0.5)),
                       ((math.inf, 0.0, 0.0), (0.1, 0.2, 0.3))]),
    ):
        s = build(name)
        good = sample_domain(s, seed=9, n=6)
        Z = np.array([forward(s, w) for w in good])
        G = good + 0.05
        rows = [(z, g, False) for z, g in zip(Z, G)]
        for k, (z, g) in enumerate(bad_rows):
            rows.insert(2 * k + 1, (z, g, True))
        mixed_Z, mixed_G, bad = (np.array(column) for column in zip(*rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone, ok_alone = invert_batch(s, Z, G)
            omega, ok = invert_batch(s, mixed_Z, mixed_G)
        assert ok_alone.all() and not ok[bad].any() and ok[~bad].all(), name
        np.testing.assert_array_equal(omega[~bad], alone)
        for z, g in bad_rows:
            with pytest.raises(SchrodsepError):
                invert(s, z, g)


def test_invert_checks_the_floor_then_inverts_one_row(monkeypatch):
    # A start at the rounding floor costs one scalar chart map and no
    # batch; any other start is a one-row invert_batch call, and a row that
    # fails is typed: a singular Jacobian and a target off the image read
    # as a stall that carries the last iterate and its residual.
    batches = []

    def counted(system, Z, G):
        batches.append(np.shape(Z))
        return invert_batch(system, Z, G)

    monkeypatch.setattr(schrodsep.coords, "invert_batch", counted)
    s = build("spherical")
    maps = []

    def chart_map(*args):
        maps.append(args[1:])
        return _CHARTS[SystemId.SPHERICAL].map(*args)

    object.__setattr__(s, "chart", types.SimpleNamespace(
        map=chart_map, array_map=_CHARTS[SystemId.SPHERICAL].array_map))
    omega = sample_domain(s, seed=2, n=1)[0]
    z = forward(s, omega)
    maps.clear()
    assert invert(s, z, omega).tobytes() == omega.tobytes()
    assert len(maps) == 1 and batches == []

    maps.clear()
    got = invert(s, z, omega + 1e-3)
    assert batches == [(1, 3)] and len(maps) == 1
    assert np.linalg.norm(forward(s, got) - z) <= CONTRACT_TOL * (1.0 + np.linalg.norm(z))

    for system, target, start in ((s, (0.0, 0.0, 0.0), (1.0, 0.1, 1.0)),
                                  (build("cylindrical"), (1.0, 0.0, 0.0), (-800.0, 0.0, 0.0))):
        with pytest.raises(InversionError, match="stalled") as info:
            invert(system, target, start)
        assert info.value.last_omega.shape == (3,)
        assert 0.0 < info.value.residual < math.inf
    assert len(batches) == 3


@pytest.mark.parametrize("name", ["spherical", "parabolic", "conical", "paraboloidal"])
def test_invert_leaves_a_start_at_the_rounding_floor_alone(name):
    # A start whose image misses the target by one ulp is at the rounding
    # floor: both inversions return it bit for bit, with no polishing step.
    # A start that misses by half of TARGET_TOL needs no Newton step but is
    # still polished, and the polish lowers the residual.
    s = build(name)
    for omega in sample_domain(s, seed=4, n=5):
        z = forward(s, omega)
        at_floor = z.copy()
        at_floor[0] = np.nextafter(z[0], math.inf)
        miss = np.linalg.norm(forward(s, omega) - at_floor)
        assert 0.0 < miss <= FLOOR_TOL * (1.0 + np.linalg.norm(at_floor))
        assert invert(s, at_floor, omega).tobytes() == omega.tobytes()
        batch, ok = invert_batch(s, at_floor[None], omega[None])
        assert ok[0] and batch[0].tobytes() == omega.tobytes()

        near = z + 0.5 * TARGET_TOL * (1.0 + np.linalg.norm(z)) * np.array([0.6, 0.0, 0.8])
        before = np.linalg.norm(forward(s, omega) - near)
        for got in (invert(s, near, omega), invert_batch(s, near[None], omega[None])[0][0]):
            assert got.tobytes() != omega.tobytes()
            assert np.linalg.norm(forward(s, got) - near) < before


def triple_forms(values):
    """The input forms of the real triple ``values`` that ``invert`` and
    ``unembed`` take, by name: a list, a tuple, and the int64 and float32
    arrays where those hold the values; each must give what the float64
    array of its values gives."""
    forms = {"list": list(values), "tuple": tuple(values)}
    if all(float(v).is_integer() and abs(v) < 2**53 for v in values):
        forms["int array"] = np.array(values, dtype=np.int64)
    if not any(1e38 < abs(v) < math.inf for v in values):
        forms["float32 array"] = np.array(values, dtype=np.float32)
    return forms


def outcome(call):
    """The bits of a result, or the type, text and fields of the error."""
    try:
        got = call()
    except SchrodsepError as exc:
        last = getattr(exc, "last_omega", None)
        residual = getattr(exc, "residual", None)
        return type(exc), str(exc), None if last is None else last.tobytes(), residual
    return got.dtype, got.shape, got.tobytes()


@pytest.mark.parametrize("name", ["spherical", "cartesian", "parabolic"])
def test_invert_takes_every_real_triple_as_a_float_array(name):
    # Targets and starts with -0.0, non-finite and overflowing entries:
    # every input form gives the float64 array's bits, or its error with
    # the same text, last iterate and residual.
    s = build(name)
    targets = [(1, 2, 2), (0.5, -0.25, 1.5), (-0.0, 0.0, -0.0), (0, 0, 0),
               (math.inf, 0.0, 1.0), (math.nan, 1.0, 1.0), (1e300, 1e300, 1e300)]
    starts = [(1, 1, 1), (-0.0, 0.5, -0.0), (math.nan, 0.5, 0.5), (1e300, -1e300, 3)]
    errors = set()
    for z in targets:
        for g in starts:
            for form, zg in triple_forms(z + g).items():
                zf, gf = zg[:3], zg[3:]
                want = outcome(lambda: invert(s, np.asarray(zf, dtype=float), np.asarray(gf, dtype=float)))
                assert outcome(lambda: invert(s, zf, gf)) == want, (z, g, form)
                if want[0] is InversionError:
                    errors.add(want[1].split(":")[1].split()[0])
    assert "overflow" in errors and (name == "cartesian" or "Newton" in errors)


def test_invert_failure_texts_keep_their_form():
    s = build("spherical")
    with pytest.raises(InversionError) as info:
        invert(s, [math.inf, 0, 1], (1, 1, 1))
    assert str(info.value).startswith("spherical: overflow while inverting z=(inf, 0.0, 1.0) at omega=(")
    assert info.value.residual == math.inf
    with pytest.raises(InversionError) as info:
        invert(s, (1, 2, 2), np.array([math.nan, 0.5, 0.5], dtype=np.float32))
    assert str(info.value) == (
        "spherical: overflow while inverting z=(1.0, 2.0, 2.0) at omega=(nan, 0.5, 0.5)")


@pytest.mark.parametrize(
    "z, guess",
    [((1.0, 2.0, 2.0), (1.0, 0.5)), ((1.0, 2.0, 2.0), np.ones((17, 3))),
     ((1.0, 2.0, 2.0), None), ((1, 2), (1.0, 0.5, 0.5))],
    ids=["short_start", "start_per_node", "no_start", "short_target"],
)
def test_invert_refuses_inputs_that_are_not_three_numbers(z, guess):
    with pytest.raises(ConfigurationError, match="three numbers for z and the start"):
        invert(build("spherical"), z, guess)


@pytest.mark.parametrize("z, guess", [("abc", (1.0, 0.5, 0.5)), ((1.0, 2.0, 2.0), "abc")],
                         ids=["target", "start"])
def test_invert_refuses_a_string_with_a_configuration_error(z, guess):
    with pytest.raises(ConfigurationError, match="three numbers for z and the start"):
        invert(build("spherical"), z, guess)


@pytest.mark.parametrize("n, seed, message", [
    (2.5, 1, "sample count must be an integer, got 2.5"),
    (2, -1, "seed must be >= 0, got -1"),
    (2, 1.5, "seed must be an integer, got 1.5"),
])
def test_sample_domain_refuses_a_count_or_seed_that_is_no_count(n, seed, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        sample_domain(build("spherical"), seed=seed, n=n)


@pytest.mark.parametrize("omega", [(1.0, 2.0), (1.0, 1.0, 1.0, 2.0), "abc", 1.0, "123", b"123"],
                         ids=["two", "four", "string", "number", "digits", "bytes"])
@pytest.mark.parametrize("entry", ["forward", "jacobian", "embed", "metric_r_squared"])
def test_chart_entries_refuse_an_omega_that_is_not_three_numbers(entry, omega):
    # checked where the domain is, before the map reads any entry; a string
    # of three digits is one text, not three numbers
    s = build("spherical")
    call = {"forward": lambda: forward(s, omega), "jacobian": lambda: jacobian(s, omega),
            "embed": lambda: embed(s, make_frame("nonsplit"), 0.0, omega),
            "metric_r_squared": lambda: metric_r_squared(s, make_frame("nonsplit"), 0.0, omega),
            }[entry]
    with pytest.raises(ConfigurationError, match="^spherical: omega must be three numbers$"):
        call()


def test_norm_has_the_bits_of_numpy_norm():
    # the same dot product under the square root, on contiguous vectors and
    # strided views alike; a sum of float squares differs where BLAS fuses
    rng = np.random.default_rng(5)
    stack = rng.uniform(-3.0, 3.0, (2000, 3))
    vectors = list(stack) + list(stack.T.copy().T[:50]) + [stack[:, 0][:3], stack[::7, 1][:3]]
    vectors += [np.array(v) for v in ((-0.0, 0.0, -0.0), (math.inf, 1.0, 0.0),
                                       (math.nan, 1.0, 0.0), (1e200, 1e200, 0.0))]
    with np.errstate(over="ignore"):  # both warn alike where the squares overflow
        for x in vectors:
            assert np.float64(_norm(x)).tobytes() == np.linalg.norm(x).tobytes()
