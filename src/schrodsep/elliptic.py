"""Jacobi elliptic functions and the complete elliptic integral K.

Everything here uses the *modulus* convention: arguments named ``k`` are the
modulus, not the parameter m = k**2.  The complementary modulus is
k' = sqrt(1 - k**2).

Both come from one descending Landen (Gauss) transformation: build the
AGM sequences a_n, b_n, c_n, take K from their last mean a_N,

    K(k) = pi / (2 * agm(1, k')) = pi / (2 * a_N),

set phi_N = 2**N * a_N * u for sn/cn/dn, then recover the amplitude
through

    phi_{n-1} = (phi_n + asin((c_n / a_n) * sin(phi_n))) / 2,

with sn = sin(phi_0), cn = cos(phi_0) and dn = sqrt(1 - k**2 * sn**2).
The iteration converges quadratically; its count is capped (DLMF 22.20).
:func:`jacobi` runs the descent on one float; :func:`jacobi_array` is its
body run over numpy by :func:`_over_arrays`, the rule that also derives the
array forms of the chart maps and their inverses, of the Jacobian guard, of
the Euler rotation and of the sinusoid time profile.

The chart Jacobians take first derivatives from the standard identities

    sn' = cn * dn,    cn' = -sn * dn,    dn' = -k**2 * sn * cn.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from functools import cache, lru_cache, partial, reduce

import numpy as np

from .errors import DomainError

AGM_CAP = 32
_AGM_STOP = 1e-17


def _hypot(*coordinates):
    """math.hypot of float arrays, element-wise, without overflow."""
    return reduce(np.hypot, coordinates)


#: The ``math`` and ``cmath`` of a body run over arrays (numpy 1.24 has no
#: ``np.asin``); numpy's functions take complex arrays as they are.
_ARRAY_MATH = types.SimpleNamespace(asin=np.arcsin, asinh=np.arcsinh, atan2=np.arctan2,
                                    cos=np.cos, cosh=np.cosh, exp=np.exp, hypot=_hypot,
                                    ldexp=np.ldexp, log=np.log, prod=math.prod, sin=np.sin,
                                    sinh=np.sinh, sqrt=np.sqrt, tan=np.tan, tanh=np.tanh)
_ARRAY_CMATH = types.SimpleNamespace(acosh=np.arccosh, sqrt=np.sqrt)


def _over_arrays(fn, **names):
    """``fn``, a function or a partial of one, with its body run over numpy
    arrays: a copy of its module's names, with ``math`` and ``cmath`` bound
    to :data:`_ARRAY_MATH` and :data:`_ARRAY_CMATH` and each of ``names`` as
    given."""
    if isinstance(fn, partial):
        return partial(_over_arrays(fn.func, **names), *fn.args, **fn.keywords)
    scope = {**fn.__globals__, "math": _ARRAY_MATH, "cmath": _ARRAY_CMATH, **names}
    return types.FunctionType(fn.__code__, scope, fn.__name__, fn.__defaults__, fn.__closure__)


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
    return math.pi / (2.0 * _landen_scheme(k)[0][-1])


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
    index 0 holds a_0 = 1, c_0 = k.

    c_n falls quadratically until it vanishes, or until a_n and b_n sit a
    rounding unit apart and c_n stops falling: the levels after that only
    reshuffle the last bit, so the sequence ends there.
    """
    a = 1.0
    b = math.sqrt((1.0 - k) * (1.0 + k))
    c = k
    aa = [a]
    cc = [c]
    for _ in range(AGM_CAP):
        if abs(c) <= _AGM_STOP * a:
            break
        a, b, c_next = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        if not abs(c_next) < abs(c):
            break
        c = c_next
        aa.append(a)
        cc.append(c)
    return (tuple(aa), tuple(cc))


def _clamp(s: float) -> float:
    """s clamped to [-1, 1], against harmless rounding excursions beyond."""
    return min(max(s, -1.0), 1.0)


def _unit(u) -> float:
    """dn at modulus 0, for a float u."""
    return 1.0


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
    Memoized: at one sample point the chart map (also behind the metric)
    asks for the same (u, k) pairs, and a Newton inversion often starts
    from a point that was just evaluated.  The Stackel rows and the
    batched Newton inversion evaluate whole arrays at a time through
    :func:`jacobi_array` and never use the cache.
    """
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"modulus must satisfy 0 <= k <= 1, got {k!r}")
    if k == 1.0:
        sech = 1.0 / math.cosh(u)
        return math.tanh(u), sech, sech
    if k < 1e-14:
        return math.sin(u), math.cos(u), _unit(u)
    aa, cc = _landen_scheme(k)
    n = len(aa) - 1
    phi = math.ldexp(aa[n] * u, n)
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + math.asin(_clamp(cc[i] / aa[i] * math.sin(phi))))
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = math.sqrt((1.0 - k * sn) * (1.0 + k * sn))
    return sn, cn, dn


_jacobi_over_arrays = _over_arrays(
    jacobi.__wrapped__, _clamp=lambda s: np.clip(s, -1.0, 1.0), _unit=np.ones_like)


def jacobi_array(u, k: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sn, cn, dn at every element of ``u``, modulus k: the body of
    :func:`jacobi` over numpy, with the clamp and the unit dn of k = 0 in
    array form, so within a few ulp of :func:`jacobi` (numpy's sin, asin
    and friends may round unlike math's).  Not memoized."""
    return _jacobi_over_arrays(np.asarray(u, dtype=float), k)
