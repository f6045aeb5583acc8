"""Jacobi elliptic functions and the complete elliptic integral K.

Everything here uses the *modulus* convention: arguments named ``k`` are the
modulus, not the parameter m = k**2.  The complementary modulus is
k' = sqrt(1 - k**2).

K(k) comes from the arithmetic-geometric mean,

    K(k) = pi / (2 * agm(1, k')),

and sn/cn/dn from the descending Landen (Gauss) transformation: build the
AGM sequences a_n, b_n, c_n, set phi_N = 2**N * a_N * u, then recover the
amplitude through

    phi_{n-1} = (phi_n + asin((c_n / a_n) * sin(phi_n))) / 2,

with sn = sin(phi_0), cn = cos(phi_0) and dn = sqrt(1 - k**2 * sn**2).
Both iterations converge quadratically; the iteration count is capped.

First derivatives follow from the standard identities

    sn' = cn * dn,    cn' = -sn * dn,    dn' = -k**2 * sn * cn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

from .errors import DomainError

AGM_CAP = 32
_AGM_STOP = 1e-17


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    Parameters
    ----------
    k : float
        Modulus, 0 <= k < 1.

    Returns
    -------
    float
        K(k), accurate to machine precision.
    """
    if not 0.0 <= k < 1.0:
        raise DomainError(f"modulus must satisfy 0 <= k < 1, got {k!r}")
    a = 1.0
    b = math.sqrt((1.0 - k) * (1.0 + k))
    for _ in range(AGM_CAP):
        if abs(a - b) <= _AGM_STOP * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


@dataclass(frozen=True)
class Modulus:
    """A modulus together with its complement and quarter periods.

    Attributes
    ----------
    k, kprime : float
        Modulus and complementary modulus, k**2 + kprime**2 = 1.
    K, Kprime : float
        Quarter periods K(k) and K(kprime).
    """

    k: float
    kprime: float
    K: float
    Kprime: float


def modulus(k: float) -> Modulus:
    """Build a :class:`Modulus` from k with 0 < k < 1."""
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus must satisfy 0 < k < 1, got {k!r}")
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    return Modulus(k=k, kprime=kp, K=complete_K(k), Kprime=complete_K(kp))


@cache
def _landen_scheme(k: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The Landen sequences (a_n, c_n) of modulus k, cached per modulus;
    index 0 holds a_0 = 1, c_0 = k."""
    a = 1.0
    b = math.sqrt((1.0 - k) * (1.0 + k))
    c = k
    aa = [a]
    cc = [c]
    for _ in range(AGM_CAP):
        if abs(c) <= _AGM_STOP * a:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        aa.append(a)
        cc.append(c)
    return (tuple(aa), tuple(cc))


@lru_cache(maxsize=1024)
def jacobi(u: float, k: float) -> tuple[float, float, float]:
    """Jacobi elliptic functions sn, cn, dn at argument u, modulus k.

    Parameters
    ----------
    u : float
        Real argument.
    k : float
        Modulus, 0 <= k <= 1.  k = 1 degenerates to hyperbolic functions
        (useful in tests), k = 0 to circular ones.

    Returns
    -------
    (sn, cn, dn) : tuple of float

    Notes
    -----
    Memoized: chart forward maps and their Jacobians evaluate the same
    (u, k) pairs back to back inside every Newton inversion step.
    """
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"modulus must satisfy 0 <= k <= 1, got {k!r}")
    if k == 1.0:
        sech = 1.0 / math.cosh(u)
        return math.tanh(u), sech, sech
    if k < 1e-14:
        return math.sin(u), math.cos(u), 1.0
    aa, cc = _landen_scheme(k)
    n = len(aa) - 1
    phi = math.ldexp(aa[n] * u, n)
    for i in range(n, 0, -1):
        s = cc[i] / aa[i] * math.sin(phi)
        # Clamp against harmless rounding excursions beyond +-1.
        if s > 1.0:
            s = 1.0
        elif s < -1.0:
            s = -1.0
        phi = 0.5 * (phi + math.asin(s))
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = math.sqrt((1.0 - k * sn) * (1.0 + k * sn))
    return sn, cn, dn


def jacobi_derivatives(u: float, k: float) -> tuple[float, float, float]:
    """First derivatives (sn', cn', dn') at (u, k) via the product identities."""
    sn, cn, dn = jacobi(u, k)
    return cn * dn, -sn * dn, -(k * k) * sn * cn
