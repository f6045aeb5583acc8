"""Tests for Jacobi elliptic functions and the complete integral K."""

import math

import numpy as np
import pytest

from schrodsep.elliptic import _landen_scheme, complete_K, jacobi, jacobi_array, modulus
from schrodsep.errors import DomainError

# Frozen oracle values.  Computed once by arithmetic-geometric-mean
# iteration (complete_K itself, cross-checked against scipy.special.ellipk
# with parameter m = k**2) and pinned here.
K_08 = 1.9953027776647292
K_06 = 1.7507538029157523


def test_complete_k_degenerate():
    assert complete_K(0.0) == pytest.approx(math.pi / 2, rel=1e-15)


def test_complete_k_pinned():
    assert complete_K(0.8) == pytest.approx(K_08, rel=1e-13)
    assert complete_K(0.6) == pytest.approx(K_06, rel=1e-13)


def test_complete_k_complementary_symmetry():
    m = modulus(0.6)
    assert m.Kprime == pytest.approx(complete_K(0.8), rel=1e-14)


def test_complete_k_against_scipy():
    special = pytest.importorskip("scipy.special")
    for k in np.linspace(0.0, 0.999, 40):
        assert complete_K(k) == pytest.approx(special.ellipk(k * k), rel=1e-13)


def test_complete_k_against_mpmath_where_the_mean_stalls():
    # K is pi / (2 a_N) with a_N the last mean of the Landen sequence; for
    # about a quarter of all moduli, 0.6 and 0.8 among them, a_N and b_N
    # end a rounding unit apart, and K must still be right to a few ulp.
    mpmath = pytest.importorskip("mpmath")
    ks = [0.6, 0.8, *np.random.default_rng(4).uniform(0.0, 0.999, 60)]
    with mpmath.workdps(40):
        for k in ks:
            exact = float(mpmath.ellipk(mpmath.mpf(float(k)) ** 2))
            assert abs(complete_K(float(k)) - exact) <= 2 * np.spacing(exact), k


@pytest.mark.parametrize("k", [-0.1, 1.0, 1.5, math.inf, math.nan])
def test_complete_k_rejects_bad_modulus(k):
    with pytest.raises(DomainError):
        complete_K(k)


def test_modulus_invariants():
    for k in (0.1, 0.35, 0.6, 0.8, 0.99):
        m = modulus(k)
        assert abs(m.k**2 + m.kprime**2 - 1.0) < 1e-14
        assert m.K > math.pi / 2
        assert m.K == pytest.approx(complete_K(k), rel=1e-15)
        assert m.Kprime == pytest.approx(complete_K(m.kprime), rel=1e-15)


def test_jacobi_origin():
    for k in (0.0, 0.3, 0.8, 0.999):
        assert jacobi(0.0, k) == (0.0, 1.0, 1.0)


def test_jacobi_trigonometric_degeneration():
    sn, cn, dn = jacobi(1.2, 0.0)
    assert sn == pytest.approx(math.sin(1.2), abs=1e-15)
    assert cn == pytest.approx(math.cos(1.2), abs=1e-15)
    assert dn == pytest.approx(1.0, abs=1e-15)


def test_jacobi_half_argument():
    # sn(K/2, k) = 1/sqrt(1 + k') is the standard half-argument value.
    m = modulus(0.8)
    sn, _, _ = jacobi(m.K / 2, 0.8)
    assert sn == pytest.approx(1.0 / math.sqrt(1.0 + m.kprime), rel=1e-12)


def test_jacobi_hyperbolic_limit():
    sn, cn, dn = jacobi(0.7, 1.0)
    assert sn == pytest.approx(math.tanh(0.7), rel=1e-14)
    assert cn == pytest.approx(1.0 / math.cosh(0.7), rel=1e-14)
    assert dn == pytest.approx(1.0 / math.cosh(0.7), rel=1e-14)


def test_jacobi_identities_random():
    rng = np.random.default_rng(2024)
    u = rng.uniform(-8.0, 8.0, 1000)
    k = rng.uniform(0.0, 0.999, 1000)
    for ui, ki in zip(u, k):
        sn, cn, dn = jacobi(ui, ki)
        assert abs(sn * sn + cn * cn - 1.0) < 1e-12
        assert abs(dn * dn + ki * ki * sn * sn - 1.0) < 1e-12


def test_jacobi_periodicity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = rng.uniform(0.05, 0.95)
        u = rng.uniform(-5.0, 5.0)
        K = complete_K(k)
        s0, c0, d0 = jacobi(u, k)
        s1, c1, d1 = jacobi(u + 4 * K, k)
        assert abs(s1 - s0) < 1e-10
        assert abs(c1 - c0) < 1e-10
        assert abs(d1 - d0) < 1e-10


def test_jacobi_against_scipy():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(11)
    for _ in range(400):
        k = rng.uniform(0.0, 0.995)
        u = rng.uniform(-10.0, 10.0)
        sn, cn, dn = jacobi(u, k)
        rs, rc, rd, _ = special.ellipj(u, k * k)
        assert sn == pytest.approx(rs, abs=2e-13)
        assert cn == pytest.approx(rc, abs=2e-13)
        assert dn == pytest.approx(rd, abs=2e-13)


@pytest.mark.parametrize("k", [0.0, 1e-15, 0.3, 0.8, 0.999999, 1.0])
def test_jacobi_array_matches_scalar(k):
    # Over four quarter periods (k = 1 has none; it borrows those of
    # 0.999999) the amplitude am(u) spans [-2 pi, 2 pi].  The twin runs the
    # same descent, and numpy's asin may round the last bit differently
    # from math's, which moves the amplitude by about an ulp; 4 ulp of it
    # bound the difference in sn, cn and dn.
    K = complete_K(min(k, 0.999999))
    u = np.linspace(-4.0 * K, 4.0 * K, 2001)
    got = np.array(jacobi_array(u, k))
    want = np.array([jacobi(float(v), k) for v in u]).T
    assert got.shape == want.shape == (3, 2001)
    assert np.max(np.abs(got - want)) <= 4 * np.spacing(2.0 * math.pi)
    # a float gives 0-d results, a grid keeps its shape
    assert np.shape(jacobi_array(0.4, k)[0]) == ()
    assert np.shape(jacobi_array(u.reshape(3, 667), k)[2]) == (3, 667)


def test_jacobi_array_degenerate_branches_are_exact():
    u = np.linspace(-3.0, 3.0, 41)
    sn, cn, dn = jacobi_array(u, 1e-15)
    np.testing.assert_array_equal(sn, np.sin(u))
    np.testing.assert_array_equal(dn, np.ones_like(u))
    sn, cn, dn = jacobi_array(u, 1.0)
    np.testing.assert_array_equal(sn, np.tanh(u))
    np.testing.assert_array_equal(cn, dn)


@pytest.mark.parametrize("k", [-0.1, 1.5, math.nan])
def test_jacobi_array_rejects_bad_modulus(k):
    with pytest.raises(DomainError):
        jacobi_array(np.zeros(3), k)


@pytest.mark.parametrize("k", [0.6, 0.8])
def test_landen_descent_stops_when_the_sequence_stalls(k):
    # For these moduli a_n and b_n end a rounding unit apart and c_n stays
    # at about 5.6e-17 instead of vanishing; the descent stops there, not
    # at the AGM_CAP of 32 levels, and loses nothing.
    mpmath = pytest.importorskip("mpmath")
    aa, cc = _landen_scheme(k)
    assert len(aa) - 1 <= 6
    assert abs(cc[-1]) <= np.spacing(aa[-1])
    with mpmath.workdps(40):
        for u in np.linspace(-4.0, 4.0, 17):
            got = jacobi(float(u), k)
            for value, kind in zip(got, ("sn", "cn", "dn")):
                exact = mpmath.ellipfun(kind, float(u), k=k)
                assert abs(value - float(exact)) <= 2 * np.spacing(4.0)
