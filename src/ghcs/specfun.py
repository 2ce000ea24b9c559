"""Scalar special-function kernels.

Everything downstream (state coefficients, weight densities, operator
matrix elements) reduces to a handful of scalar kernels: the log-gamma
function, Pochhammer symbols, the 0F1 and 2F1 hypergeometric series,
modified Bessel functions of real order, and a Mellin-Barnes evaluator
for the one G-function instance that defines the bounded-support weight
density.  All kernels are pure functions of their value arguments and
are safe to call concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SeriesControl",
    "ContourSpec",
    "ConvergenceError",
    "log_gamma",
    "pochhammer",
    "hyp_0f1",
    "hyp_2f1",
    "bessel_i",
    "bessel_k",
    "meijer_g_2022",
    "default_contour",
]


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to converge within its budget."""


# ---------------------------------------------------------------------------
# Truncation controls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesControl:
    """Stopping rule for the infinite series used throughout.

    max_terms:  hard budget of summed terms.
    rel_tol:    target relative size of the final terms.
    abs_floor:  guard used in place of the partial sum when the latter
                passes through zero (alternating series).
    """

    max_terms: int = 20000
    rel_tol: float = 1e-15
    abs_floor: float = 1e-300

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must lie strictly between 0 and 1")
        if self.abs_floor <= 0.0:
            raise ValueError("abs_floor must be positive")


DEFAULT_SERIES = SeriesControl()


def _sum_ratio_series(first_term, ratio, ctl: SeriesControl):
    """Sum t0 + t1 + ... where t_{k+1} = t_k * ratio(k).

    Stops only after two consecutive terms fall below rel_tol relative
    to the running sum, so an accidental zero of an alternating term
    cannot end the summation early.
    """
    term = first_term
    total = term
    small = 0
    for k in range(ctl.max_terms):
        term = term * ratio(k)
        total += term
        if abs(term) <= ctl.rel_tol * max(abs(total), ctl.abs_floor):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"series did not converge within {ctl.max_terms} terms "
        f"(last |term| = {abs(term):.3e})"
    )


# ---------------------------------------------------------------------------
# Log-gamma
# ---------------------------------------------------------------------------

_LN_SQRT_2PI = 0.9189385332046727417803297364
# B_2, B_4, ..., B_16 over (2k)(2k-1), for the Stirling tail.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    7.0 / 1092.0,
    -3617.0 / 122400.0,
)


def _log_gamma_asym(z: complex) -> complex:
    # Stirling series; needs Re z reasonably large (we recurse up to 12).
    s = (z - 0.5) * cmath.log(z) - z + _LN_SQRT_2PI
    zi = 1.0 / z
    z2 = zi * zi
    t = zi
    for c in _STIRLING:
        s += c * t
        t *= z2
    return s


def _log_gamma_right(z: complex) -> complex:
    # Re z > 0; recurse up so Stirling applies, then subtract the logs.
    # Additive 2*pi*i ambiguities from summing logs never arise here since
    # every shifted argument has positive real part.
    shift = 0
    acc = 0.0 + 0.0j
    while z.real < 12.0:
        acc += cmath.log(z)
        z += 1.0
        shift += 1
    return _log_gamma_asym(z) - acc


def log_gamma(x):
    """A logarithm of Gamma(x) for real or complex x: exp of it is Gamma(x).

    Real positive x returns a float; a negative real or complex argument
    returns a complex value.  Non-positive integers are poles and raise.
    On the real axis the value is the principal log.  For complex x with
    Re x < 0.5 the reflection formula is used, and its value may differ
    from the principal branch by 2*pi*i*k (|k| = 4 at Re x = -7.3).
    """
    if isinstance(x, complex):
        z = x
        if z.imag == 0.0:
            return log_gamma(z.real)
        if z.real >= 0.5:
            return _log_gamma_right(z)
        # reflection through Gamma(z)Gamma(1-z) = pi/sin(pi z)
        return (
            math.log(math.pi)
            - cmath.log(cmath.sin(math.pi * z))
            - _log_gamma_right(1.0 - z)
        )
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"log_gamma pole at non-positive integer {x}")
    if x >= 0.5:
        return _log_gamma_right(complex(x, 0.0)).real
    # Reflection on the real axis.  Gamma(x) may be negative there, in
    # which case the principal log picks up i*pi.
    lg = (
        math.log(math.pi)
        - math.log(abs(math.sin(math.pi * x)))
        - _log_gamma_right(complex(1.0 - x, 0.0)).real
    )
    # Gamma alternates sign on the intervals (-k-1, -k).
    k = math.floor(x)
    gamma_negative = (k % 2) == 1  # x in (-1,0): k=-1 -> negative
    if x > 0 or not gamma_negative:
        return lg
    return complex(lg, math.pi)


# ---------------------------------------------------------------------------
# Pochhammer symbols
# ---------------------------------------------------------------------------

def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1).

    Always computed as a direct product, so negative real `a` (where the
    gamma-ratio form hits poles) is handled with no special cases.
    """
    if n < 0:
        raise ValueError("pochhammer order must be a non-negative integer")
    out = 1.0
    for k in range(n):
        out *= a + k
    return out


def log_pochhammer(a: float, n: int) -> float:
    """log (a)_n for a > 0, via the gamma ratio (stable for large n)."""
    if a <= 0.0:
        raise ValueError("log_pochhammer requires a > 0; use pochhammer")
    if n == 0:
        return 0.0
    return log_gamma(a + n) - log_gamma(a)


# ---------------------------------------------------------------------------
# Hypergeometric series
# ---------------------------------------------------------------------------

def _check_not_nonpositive_int(value: float, name: str) -> None:
    if value <= 0.0 and value == math.floor(value):
        raise ValueError(f"{name} must not be a non-positive integer (got {value})")


def hyp_0f1(b: float, x, ctl: SeriesControl = DEFAULT_SERIES):
    """0F1(; b; x) by its ascending series.

    `x` may be complex (used for kernel evaluations at cross products of
    labels); real arguments must be non-negative.
    """
    _check_not_nonpositive_int(b, "0F1 parameter b")
    if not isinstance(x, complex):
        if x < 0.0:
            raise ValueError("hyp_0f1 requires x >= 0 for real arguments")
        if x == 0.0:
            return 1.0
    return _sum_ratio_series(1.0 * (x * 0 + 1), lambda k: x / ((k + 1.0) * (b + k)), ctl)


def hyp_2f1(a: float, b: float, c: float, x: float,
            ctl: SeriesControl = DEFAULT_SERIES) -> float:
    """Gauss series 2F1(a, b; c; x) on |x| < 1."""
    _check_not_nonpositive_int(c, "2F1 parameter c")
    if abs(x) >= 1.0:
        raise ValueError(f"hyp_2f1 series requires |x| < 1 (got {x})")
    if x == 0.0:
        return 1.0
    return _sum_ratio_series(
        1.0, lambda k: (a + k) * (b + k) * x / ((c + k) * (k + 1.0)), ctl
    )


# ---------------------------------------------------------------------------
# Modified Bessel functions
# ---------------------------------------------------------------------------

def bessel_i(order: float, x: float) -> float:
    """I_order(x) by the ascending series.

    Any order > -1 is accepted (the series is regular there, and the
    0F1 identity at small parameter b needs orders in (-1, 0)); x >= 0.
    """
    if order <= -1.0:
        raise ValueError("bessel_i requires order > -1")
    if x < 0.0:
        raise ValueError("bessel_i requires x >= 0")
    if x == 0.0:
        if order == 0.0:
            return 1.0
        return 0.0 if order > 0.0 else math.inf
    # t_0 = (x/2)^order / Gamma(order+1); all terms positive, no cancellation.
    t = math.exp(order * math.log(0.5 * x) - log_gamma(order + 1.0))
    q = 0.25 * x * x
    total = t
    for k in range(1000):
        t *= q / ((k + 1.0) * (order + k + 1.0))
        total += t
        if t <= 1e-17 * total:
            return total
    raise ConvergenceError(f"bessel_i series stalled at order={order}, x={x}")


# Taylor coefficients of 1/Gamma(1+w); used for the small-|mu| limits in
# the K-Bessel series where the naive (I_-mu - I_mu) form degenerates.
_RG = (
    1.0,
    0.57721566490153286061,
    -0.65587807152025388108,
    -0.042002635034095235529,
    0.1665386113822914895,
    -0.042197734555544336748,
    -0.0096219715278769735621,
    0.0072189432466630995424,
    -0.0011651675918590651121,
    -0.00021524167411495097282,
    0.00012805028238811618615,
    -0.000020134854780788238656,
)


def _recip_gamma_1p(w: float) -> float:
    # 1/Gamma(1+w), |w| <= 0.5
    return math.exp(-log_gamma(1.0 + w))


def _temme_gammas(mu: float):
    """gam1 = [1/G(1-mu) - 1/G(1+mu)]/(2 mu), gam2, 1/G(1+mu), 1/G(1-mu)."""
    gampl = _recip_gamma_1p(mu)
    gammi = _recip_gamma_1p(-mu)
    gam2 = 0.5 * (gammi + gampl)
    if abs(mu) < 0.05:
        # odd part of the reciprocal-gamma Taylor series; avoids the
        # subtractive loss of the direct quotient as mu -> 0
        mu2 = mu * mu
        gam1 = -(_RG[1] + mu2 * (_RG[3] + mu2 * (_RG[5] + mu2 * (_RG[7] + mu2 * _RG[9]))))
    else:
        gam1 = (gammi - gampl) / (2.0 * mu)
    return gam1, gam2, gampl, gammi


def _bessel_k_pair_small(mu: float, x: float):
    """(K_mu, K_{mu+1}) for 0 < x <= 2, |mu| <= 1/2, via Temme's series."""
    x2 = 0.5 * x
    pimu = math.pi * mu
    fact = 1.0 if abs(pimu) < 1e-15 else pimu / math.sin(pimu)
    d = -math.log(x2)
    e = mu * d
    fact2 = 1.0 if abs(e) < 1e-15 else math.sinh(e) / e
    gam1, gam2, gampl, gammi = _temme_gammas(mu)
    ff = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
    total = ff
    ee = math.exp(e)
    p = 0.5 * ee / gampl
    q = 0.5 / (ee * gammi)
    c = 1.0
    d2 = x2 * x2
    total1 = p
    for i in range(1, 30000):
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c *= d2 / i
        p /= i - mu
        q /= i + mu
        dl = c * ff
        total += dl
        dl1 = c * (p - i * ff)
        total1 += dl1
        if abs(dl) < abs(total) * 1e-17:
            break
    else:
        raise ConvergenceError(f"K series stalled at mu={mu}, x={x}")
    return total, total1 * (2.0 / x)


def _bessel_k_pair_cf2(mu: float, x: float):
    """(e^x K_mu, e^x K_{mu+1}) for x > 2, |mu| <= 1/2 (Steed's CF2)."""
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1 = 0.0
    q2 = 1.0
    a1 = 0.25 - mu * mu
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, 30000):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < 1e-17:
            break
    else:
        raise ConvergenceError(f"K continued fraction stalled at mu={mu}, x={x}")
    h = a1 * h
    k_mu = math.sqrt(math.pi / (2.0 * x)) / s
    k_mu1 = k_mu * (mu + x + 0.5 - h) / x
    return k_mu, k_mu1


def bessel_k(order: float, x: float, scaled: bool = False) -> float:
    """K_order(x) for real order >= 0 and x > 0.

    With scaled=True returns e^x K_order(x), which stays representable far
    into the exponential tail (needed by the half-line quadrature rule).
    Small arguments use Temme's series, large ones the continued-fraction
    complement, then a stable upward recurrence in the order.
    """
    if x <= 0.0:
        raise ValueError("bessel_k requires x > 0")
    order = abs(float(order))
    nl = int(order + 0.5)
    mu = order - nl
    if x <= 2.0:
        kmu, kmu1 = _bessel_k_pair_small(mu, x)
        if scaled:
            ex = math.exp(x)
            kmu, kmu1 = kmu * ex, kmu1 * ex
    else:
        kmu, kmu1 = _bessel_k_pair_cf2(mu, x)
        if not scaled:
            ex = math.exp(-x)
            kmu, kmu1 = kmu * ex, kmu1 * ex
    for j in range(nl):
        kmu, kmu1 = kmu1, kmu + (2.0 * (mu + j + 1) / x) * kmu1
    return kmu


# ---------------------------------------------------------------------------
# Mellin-Barnes evaluation of G^{2,0}_{2,2}(x | a,a ; 0, 2a-1), a = m+nu
# ---------------------------------------------------------------------------
#
# The Mellin transform that defines the bounded-support weight density is
# the gamma ratio F(s) = Gamma(s) Gamma(s+2a-1) / Gamma(s+a)^2.  On a
# vertical contour the exponential parts of the four gamma factors cancel
# exactly and |F| decays only like 1/|t|, so the raw integrand cannot be
# truncated.  We therefore peel off the first terms of the large-s
# expansion F(s) = sum_k d_k (s+sigma)^{-1-k}: each peeled term inverts in
# closed form to x^sigma (-ln x)^k / k! on (0,1) (and to zero on x > 1),
# and the remaining integrand decays like |t|^{-(K+2)}, which the stated
# truncation rule (magnitude below 1e-16 of the peak) then satisfies at a
# modest contour height.

_BERNOULLI = (
    1.0, -0.5, 1.0 / 6.0, 0.0, -1.0 / 30.0, 0.0, 1.0 / 42.0, 0.0,
    -1.0 / 30.0, 0.0, 5.0 / 66.0, 0.0, -691.0 / 2730.0, 0.0, 7.0 / 6.0,
    0.0, -3617.0 / 510.0, 0.0,
)

_SUBTRACT_TERMS = 14


@dataclass(frozen=True)
class ContourSpec:
    """Vertical Mellin inversion contour Re s = real_shift, |Im s| <= half_height.

    The contour must pass to the right of every pole of the transform
    being inverted; the evaluator checks that against the instance
    parameters before integrating.
    """

    real_shift: float
    half_height: float
    node_count: int

    def __post_init__(self) -> None:
        if self.half_height <= 0.0:
            raise ValueError("half_height must be positive")
        if self.node_count < 2:
            raise ValueError("node_count must be at least 2")


def default_contour(m: int, nu: float, x_min: float = 1e-6) -> ContourSpec:
    """Contour adequate down to arguments of size x_min."""
    b = 2.0 * m + 2.0 * nu
    shift = max(0.0, 1.0 - b) + 1.0
    half_height = 40.0
    # Base density resolves the gamma-ratio remainder; the |ln x| term
    # resolves the x^{-it} oscillation of the smallest argument.
    step = min(0.15, 2.0 * math.pi / (12.0 * (abs(math.log(x_min)) + 1.0)))
    nodes = int(2.0 * half_height / step) + 1
    return ContourSpec(real_shift=shift, half_height=half_height, node_count=nodes)


def _binom(n: int, k: int) -> float:
    return float(math.comb(n, k))


def _bernoulli_poly(n: int, h: float) -> float:
    return sum(_binom(n, i) * _BERNOULLI[i] * h ** (n - i) for i in range(n + 1))


@lru_cache(maxsize=64)
def _mb_prepared(m: int, nu: float, spec: ContourSpec):
    """Contour nodes, subtracted integrand values and peeled coefficients."""
    a = m + nu
    b = 2.0 * a
    if spec.real_shift <= max(0.0, 1.0 - b):
        raise ValueError(
            "contour does not separate the pole families: need real_shift > "
            f"{max(0.0, 1.0 - b):g} for m={m}, nu={nu}"
        )
    sigma = a - 0.5
    # ln F(s) = -ln(s+sigma) + sum_j c_j (s+sigma)^{-j}
    K = _SUBTRACT_TERMS
    c = [0.0] * (K + 1)
    for j in range(1, K + 1):
        bsum = (
            _bernoulli_poly(j + 1, -sigma)
            + _bernoulli_poly(j + 1, b - 1.0 - sigma)
            - 2.0 * _bernoulli_poly(j + 1, a - sigma)
        )
        c[j] = (-1.0) ** (j + 1) * bsum / (j * (j + 1.0))
    d = [1.0] + [0.0] * K
    for k in range(1, K + 1):
        d[k] = sum(j * c[j] * d[k - j] for j in range(1, k + 1)) / k
    t = np.linspace(-spec.half_height, spec.half_height, spec.node_count)
    s = spec.real_shift + 1j * t
    logF = np.empty_like(s)
    for i, si in enumerate(s):
        logF[i] = (
            log_gamma(complex(si))
            + log_gamma(complex(si + b - 1.0))
            - 2.0 * log_gamma(complex(si + a))
        )
    F = np.exp(logF)
    z = s + sigma
    asym = np.zeros_like(s)
    zp = 1.0 / z
    for k in range(K + 1):
        asym += d[k] * zp
        zp /= z
    remainder = F - asym
    dt = t[1] - t[0]
    return s, remainder, dt, np.array(d), sigma


def meijer_g_canonical(x, m: int, nu: float, spec: ContourSpec | None = None):
    """G^{2,0}_{2,2}(x | m+nu, m+nu ; 0, 2m+2nu-1) for x > 0 (array-aware).

    Supported on (0, 1]; for x > 1 the contour evaluation returns zero up
    to quadrature error.
    """
    if spec is None:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        spec = default_contour(m, nu, x_min=max(float(xs.min()), 1e-300))
    s, remainder, dt, d, sigma = _mb_prepared(m, float(nu), spec)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xa <= 0.0):
        raise ValueError("meijer_g argument must be positive")
    # remainder integral: (dt / 2 pi) sum_j R(s_j) x^{-s_j}
    lx = np.log(xa)
    osc = np.exp(-np.outer(lx, s))
    vals = (osc @ remainder).real * (dt / (2.0 * math.pi))
    # peeled part: x^sigma sum_k d_k (-ln x)^k / k!  on (0,1)
    inside = xa < 1.0
    if np.any(inside):
        li = -lx[inside]
        poly = np.zeros_like(li)
        powk = np.ones_like(li)
        fact = 1.0
        for k in range(len(d)):
            if k > 0:
                powk *= li
                fact *= k
            poly += d[k] * powk / fact
        vals[inside] += np.power(xa[inside], sigma) * poly
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(vals[0])
    return vals


def meijer_g_2022(x, params, spec: ContourSpec | None = None):
    """The G-function instance used by the measure, in the normalization
    whose integer Mellin moments reproduce the full gamma product
    [Gamma(1-nu-m-s)]^2 Gamma(s) Gamma(2m+2nu+s-1).

    That normalization carries a (pi / sin(pi nu))^2 prefactor relative to
    the plain contour integral and is singular at integer nu; the measure
    module works with the canonical form, where the prefactor cancels.
    """
    nu = float(params.nu)
    if nu == round(nu):
        raise ValueError(
            "the gamma-product normalization is singular at integer nu; "
            "use meijer_g_canonical"
        )
    scale = (math.pi / math.sin(math.pi * nu)) ** 2
    return scale * meijer_g_canonical(x, params.m, params.nu, spec)
