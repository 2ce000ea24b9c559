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
    "energy_level",
    "energy_product",
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
    """log h_n, always formed in log space to dodge overflow."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 0.0
    lg = 0.5 * (specfun.log_pochhammer(1.0, n) + specfun.log_pochhammer(params.b, n))
    if params.family is Family.JACOBI:
        lg -= specfun.log_pochhammer(params.coeff_shift, n)
    return lg


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


def normalization(params: FamilyParams, x: float,
                  ctl: SeriesControl = DEFAULT_SERIES) -> float:
    """N(x) = sum_n x^n / h_n^2 for x = |z|^2 inside the family domain.

    Summed through the h-ratio recurrence; agrees with 0F1(b; x) for the
    bessel family and 2F1(a+1, a+1; b; x) for the jacobi family.
    """
    value = _norm_series(params, x, ctl)
    return float(value.real) if isinstance(value, complex) else float(value)


def _norm_series(params: FamilyParams, w, ctl: SeriesControl = DEFAULT_SERIES):
    # sum w^n / h_n^2 for complex w with |w| < radius^2 (the overlap kernel
    # evaluates this at cross products of labels)
    if isinstance(w, complex):
        mag = abs(w)
    else:
        w = float(w)
        if w < 0.0:
            raise ValueError("normalization argument must be >= 0")
        mag = w
    if not mag < params.radius**2:
        raise ValueError(
            f"argument magnitude {mag:g} outside the normalization domain "
            f"[0, {params.radius**2:g}) of the {params.family.value} family"
        )
    b = params.b
    if params.family is Family.BESSEL:
        ratio = lambda k: w / ((k + 1.0) * (b + k))  # noqa: E731
    else:
        shift = params.coeff_shift
        ratio = lambda k: w * (shift + k) ** 2 / ((k + 1.0) * (b + k))  # noqa: E731
    return specfun._sum_ratio_series(1.0 * (w * 0 + 1), ratio, ctl)


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


def state(params: FamilyParams, z: complex, n_max: int | None = None) -> FockVector:
    """Normalized truncated coherent state at label z.

    With n_max omitted the truncation starts at 128 and doubles until the
    discarded l2 mass is certified below 1e-12.  An explicit n_max that
    leaves more than 1e-10 in the tail raises, reporting the order that
    would have sufficed.  An explicit n_max must be a non-negative integer.
    """
    if n_max is not None and not (isinstance(n_max, numbers.Integral) and n_max >= 0):
        raise ValueError(f"n_max must be a non-negative integer, got {n_max!r}")
    z = params.require_label(z)
    if n_max is None:
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
    vec = _build_state(params, z, n_max)
    if vec.tail_bound > _TAIL_REQUIRED:
        auto = state(params, z, None)
        raise ValueError(
            f"truncation error {vec.tail_bound:.2e} exceeds {_TAIL_REQUIRED:g}; "
            f"larger n_max required (n_max = {auto.n_max} suffices)"
        )
    return vec


def _build_state(params: FamilyParams, z: complex, n_max: int) -> FockVector:
    mag = abs(z)
    n = np.arange(n_max + 1, dtype=float)
    log_h = _log_h_array(params, n_max)
    if mag == 0.0:
        coeffs = np.zeros(n_max + 1, dtype=complex)
        coeffs[0] = 1.0
        return FockVector(coeffs=coeffs, n_max=n_max, tail_bound=0.0)
    log_mod = n * math.log(mag) - log_h
    phase = np.exp(1j * n * math.atan2(z.imag, z.real))
    mods = np.exp(log_mod)
    signs = np.ones(n_max + 1)
    if params.family is Family.JACOBI:
        signs[1::2] = -1.0
    unnorm = signs * mods * phase
    norm_sq_unnorm = float(np.dot(mods, mods))
    tail_unnorm = _unnormalized_tail(params, mag, n_max, mods[-1] ** 2)
    total = norm_sq_unnorm + tail_unnorm
    coeffs = unnorm / math.sqrt(total)
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


def energy_level(params: FamilyParams, n: int) -> float:
    """e_n = n (n + 2m + 2nu - 1), the n-th level above the ground state."""
    return n * (n + params.b - 1.0)


def energy_product(params: FamilyParams, n: int) -> float:
    """prod_{k<=n} e_k = n! (2m+2nu)_n (empty product at n = 0)."""
    out = 1.0
    for k in range(1, n + 1):
        out *= energy_level(params, k)
    return out
