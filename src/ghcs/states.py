"""Coherent-state families, Fock coefficients, normalization and overlaps.

A family is fixed by a non-negative integer m and a real nu > 0.  Writing
a = m + nu and b = 2m + 2nu, the number-basis coefficient denominators are

    bessel:  h_n = sqrt(n! (b)_n)                    labels z in C
    jacobi:  h_n = sqrt(n! (b)_n) / (a+1)_n          labels |z| < 1

and the states are |z> = N(|z|^2)^{-1/2} sum_n s_n z^n / h_n |n>, with
s_n = 1 (bessel) or (-1)^n (jacobi).  The alternating jacobi sign comes
from the defining coefficient (-m-n-nu)_n = (-1)^n (a+1)_n; it cancels in
every modulus but is kept in the amplitudes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import specfun
from .specfun import DEFAULT_SERIES, SeriesControl

__all__ = [
    "Family",
    "FamilyParams",
    "FockVector",
    "coeff_h",
    "log_coeff_h",
    "coefficient_sign",
    "normalization",
    "state",
    "overlap",
    "label_distance",
]


class Family(str, Enum):
    BESSEL = "bessel"
    JACOBI = "jacobi"


class PochhammerVariant(str, Enum):
    """Which defining coefficient the jacobi-family states use.

    The construction is stated twice in the source material with two
    different shifts, (-m-n-nu)_n and (-(m+n)-2nu)_n; every downstream
    formula uses the first, so it is canonical here, and the second is
    kept available for experimentation.  The bessel family carries no
    such coefficient and ignores the setting.
    """

    CANONICAL = "canonical"
    TWO_NU = "two-nu"


@dataclass(frozen=True)
class FamilyParams:
    """Model parameters (m, nu) plus the family selector."""

    m: int
    nu: float
    family: Family = Family.BESSEL
    variant: PochhammerVariant = PochhammerVariant.CANONICAL

    def __post_init__(self) -> None:
        if self.m < 0 or self.m != int(self.m):
            raise ValueError("m must be a non-negative integer")
        object.__setattr__(self, "m", int(self.m))
        if not (self.nu > 0.0):
            raise ValueError("nu must be positive")
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "variant", PochhammerVariant(self.variant))
        if self.b <= 0.0:
            raise ValueError("2m + 2nu must be positive")

    @property
    def coeff_shift(self) -> float:
        """First argument of the rising factorial dividing h_n (jacobi)."""
        if self.variant is PochhammerVariant.TWO_NU:
            return self.m + 2.0 * self.nu + 1.0
        return self.m + self.nu + 1.0

    @property
    def a(self) -> float:
        """m + nu."""
        return self.m + self.nu

    @property
    def b(self) -> float:
        """2m + 2nu, the 0F1 / Pochhammer denominator parameter."""
        return 2.0 * self.m + 2.0 * self.nu

    @property
    def mu(self) -> float:
        """mu = 2 nu."""
        return 2.0 * self.nu

    @property
    def radius(self) -> float:
        """Label-domain radius: infinite for bessel, 1 for jacobi."""
        return math.inf if self.family is Family.BESSEL else 1.0

    def require_label(self, z: complex) -> complex:
        z = complex(z)
        if not abs(z) < self.radius:
            raise ValueError(
                f"label |z| = {abs(z):g} outside the open domain of radius "
                f"{self.radius:g} for the {self.family.value} family"
            )
        return z


@dataclass(frozen=True)
class FockVector:
    """Truncated complex coefficient vector in the number basis."""

    coeffs: np.ndarray
    n_max: int
    tail_bound: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", np.asarray(self.coeffs, dtype=complex)
        )
        if self.coeffs.shape != (self.n_max + 1,):
            raise ValueError("coeffs must have length n_max + 1")
        if self.tail_bound < 0.0:
            raise ValueError("tail_bound must be non-negative")

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)


def coefficient_sign(params: FamilyParams, n: int) -> int:
    """Sign of the defining Pochhammer coefficient (-m-n-nu)_n."""
    if params.family is Family.JACOBI and n % 2 == 1:
        return -1
    return 1


def log_coeff_h(params: FamilyParams, n: int) -> float:
    """log h_n, read from the family's cached table (log space dodges overflow)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return float(_log_h_array(params, n)[n])


def coeff_h(params: FamilyParams, n: int) -> float:
    """Positive coefficient denominator h_n."""
    lg = log_coeff_h(params, n)
    if lg > 700.0:
        raise OverflowError(f"h_{n} exceeds the double range (log h = {lg:.1f})")
    return math.exp(lg)


def _log_h_array(params: FamilyParams, n_max: int) -> np.ndarray:
    """Read-only log h_n for n = 0..n_max, a prefix of a cached table."""
    size = 1 << max(int(n_max) - 1, 0).bit_length()  # next power of two >= n_max
    return _log_h_table(params, size)[: n_max + 1]


@lru_cache(maxsize=32)
def _log_h_table(params: FamilyParams, n_max: int) -> np.ndarray:
    # math.lgamma elementwise: scipy's gammaln differs in the last bits
    # and would change every downstream value
    lg = np.zeros(n_max + 1)
    n = np.arange(1, n_max + 1, dtype=float)
    lg[1:] = 0.5 * (_lgamma(n + 1.0) + _lgamma(params.b + n) - math.lgamma(params.b))
    if params.family is Family.JACOBI:
        shift = params.coeff_shift
        lg[1:] -= _lgamma(shift + n) - math.lgamma(shift)
    lg.flags.writeable = False
    return lg


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, x), dtype=float, count=len(x))


def normalization(params: FamilyParams, x, ctl: SeriesControl = DEFAULT_SERIES):
    """N(x) = sum_n x^n / h_n^2 for real x = |z|^2 in the family domain
    [0, radius^2); scalar in, float out; array in, array out.

    The bessel N is `specfun.hyp_0f1(b, x)`; the jacobi N (2F1(a+1, a+1;
    b; x)) is summed through the h-ratio recurrence.  Both go through
    `specfun._sum_ratio_array`: the term-by-term values, stopping rule and
    `ctl` budget, per element.  An x outside the domain raises ValueError.
    """
    xs = np.asarray(x, dtype=float)
    bad = ~((xs >= 0.0) & (xs < params.radius**2))
    if bad.any():
        _norm_arg(params, xs[bad].flat[0])  # raises, naming the value
    b = params.b
    if params.family is Family.BESSEL:
        return specfun.hyp_0f1(b, xs, ctl)
    shift = params.coeff_shift
    return specfun._sum_ratio_array(
        "jacobi normalization", xs,
        lambda k, w: w * _shift_squares(shift, k) / ((k + 1.0) * (b + k)), ctl,
    )


def _shift_squares(shift: float, k: np.ndarray) -> np.ndarray:
    """(shift + k)^2 for a chunk of term indices k, computed once per chunk.

    Python's float ** calls libm pow, which differs from numpy's square in
    the last bit for about one base in a thousand; keeping pow keeps the
    ratios of the term-by-term recurrence.  The chunk boundaries are fixed,
    so a figure's few shifts hit the cache on every later call."""
    return _shift_square_chunk(shift, int(k[0]), int(k[-1]) + 1)


@lru_cache(maxsize=256)
def _shift_square_chunk(shift: float, start: int, stop: int) -> np.ndarray:
    sq = np.fromiter(((shift + k) ** 2 for k in range(start, stop)), dtype=float,
                     count=stop - start)
    sq.flags.writeable = False
    return sq


def _norm_arg(params: FamilyParams, w: float) -> float:
    """w as a float inside the normalization domain [0, radius^2), else
    ValueError."""
    w = float(w)
    if w < 0.0:
        raise ValueError("normalization argument must be >= 0")
    if not w < params.radius**2:
        raise ValueError(
            f"argument magnitude {w:g} outside the normalization domain "
            f"[0, {params.radius**2:g}) of the {params.family.value} family"
        )
    return w


_N_MAX_DEFAULT = 128
_N_MAX_CAP = 32768
_TAIL_TARGET = 1e-12
_TAIL_REQUIRED = 1e-10


def _tail_ratio(params: FamilyParams, mag: float, n: int) -> float:
    # |c_{n+1}/c_n| at index n; decreasing in n for both families
    r = mag / math.sqrt((n + 1.0) * (params.b + n))
    if params.family is Family.JACOBI:
        r *= params.coeff_shift + n
    return r


def _unnormalized_tail(params: FamilyParams, mag: float, n_max: int,
                       last_sq: float) -> float:
    # geometric majorant on sum_{n > n_max} |z^n / h_n|^2
    rho = _tail_ratio(params, mag, n_max + 1)
    if rho >= 1.0:
        return math.inf
    r2 = rho * rho
    return last_sq * r2 / (1.0 - r2)


_STATE_CACHE_SIZE = 32


def state(params: FamilyParams, z: complex, n_max: int | None = None) -> FockVector:
    """Normalized truncated coherent state at label z.

    With n_max omitted the truncation starts at 128 and doubles until the
    discarded l2 mass is certified below 1e-12.  An explicit n_max that
    leaves more than 1e-10 in the tail raises, reporting the order that
    would have sufficed.  An explicit n_max must be a non-negative integer.

    The 32 most recently used states are kept, so a label is built once
    however many overlaps read it.  The cache key is the exact bits of the
    label: (params, z.real, z.imag, the sign of each part, n_max), so
    -0.0 and 0.0, which compare equal but give atan2 phases of -pi and pi,
    are different keys.  The returned coeffs are read-only and shared
    between callers.  Errors are not cached.  At the n_max cap of 32768
    the cache holds at most 32 x 32769 x 16 B, about 17 MB.
    """
    if n_max is not None and not (isinstance(n_max, numbers.Integral) and n_max >= 0):
        raise ValueError(f"n_max must be a non-negative integer, got {n_max!r}")
    z = params.require_label(z)
    return _cached_state(
        params, z.real, z.imag, math.copysign(1.0, z.real),
        math.copysign(1.0, z.imag), None if n_max is None else int(n_max),
    )


@lru_cache(maxsize=_STATE_CACHE_SIZE)
def _cached_state(params: FamilyParams, re: float, im: float, re_sign: float,
                  im_sign: float, n_max: int | None) -> FockVector:
    # re_sign and im_sign only split the keys of -0.0 and 0.0; the parts
    # themselves carry their signs into z
    z = complex(re, im)
    if n_max is None:
        return _auto_state(params, z)
    vec = _build_state(params, z, n_max)
    if vec.tail_bound > _TAIL_REQUIRED:
        auto = state(params, z, None)
        raise ValueError(
            f"truncation error {vec.tail_bound:.2e} exceeds {_TAIL_REQUIRED:g}; "
            f"larger n_max required (n_max = {auto.n_max} suffices)"
        )
    return vec


def _auto_state(params: FamilyParams, z: complex) -> FockVector:
    """`state` with n_max omitted, uncached: 128 terms, doubled until the
    tail bound is below 1e-12."""
    n = _N_MAX_DEFAULT
    while True:
        vec = _build_state(params, z, n)
        if vec.tail_bound < _TAIL_TARGET:
            return vec
        n *= 2
        if n > _N_MAX_CAP:
            raise specfun.ConvergenceError(
                f"state truncation stalled below tail {_TAIL_TARGET:g} "
                f"at n_max = {_N_MAX_CAP}"
            )


def _series_terms(params: FamilyParams, z: complex,
                  n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The unnormalized coefficients s_n z^n / h_n for n = 0..n_max, and
    their moduli |z|^n / h_n (the unit vector e_0 at z = 0)."""
    mag = abs(z)
    if mag == 0.0:
        mods = np.zeros(n_max + 1)
        mods[0] = 1.0
        return mods.astype(complex), mods
    n = np.arange(n_max + 1, dtype=float)
    mods = np.exp(n * math.log(mag) - _log_h_array(params, n_max))
    phase = np.exp(1j * n * math.atan2(z.imag, z.real))
    signs = np.ones(n_max + 1)
    if params.family is Family.JACOBI:
        signs[1::2] = -1.0
    return signs * mods * phase, mods


def _build_state(params: FamilyParams, z: complex, n_max: int) -> FockVector:
    unnorm, mods = _series_terms(params, z, n_max)
    mag = abs(z)
    if mag == 0.0:
        unnorm.flags.writeable = False
        return FockVector(coeffs=unnorm, n_max=n_max, tail_bound=0.0)
    norm_sq_unnorm = float(np.dot(mods, mods))
    tail_unnorm = _unnormalized_tail(params, mag, n_max, mods[-1] ** 2)
    total = norm_sq_unnorm + tail_unnorm
    coeffs = unnorm / math.sqrt(total)
    coeffs.flags.writeable = False
    return FockVector(coeffs=coeffs, n_max=n_max, tail_bound=tail_unnorm / total)


def overlap(params: FamilyParams, z1: complex, z2: complex,
            n_max: int | None = None) -> complex:
    """<z1 | z2> by the coefficient series."""
    v1 = state(params, z1, n_max)
    v2 = state(params, z2, n_max)
    n = min(v1.n_max, v2.n_max) + 1
    return complex(np.vdot(v1.coeffs[:n], v2.coeffs[:n]))


def label_distance(params: FamilyParams, z1: complex, z2: complex) -> float:
    """Hilbert-space distance sqrt(2 [1 - Re <z1|z2>]) between labels."""
    ov = overlap(params, z1, z2)
    return math.sqrt(max(0.0, 2.0 * (1.0 - ov.real)))
