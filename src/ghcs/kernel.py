"""Reproducing-kernel checks and the analytic representation.

The kernel is the overlap K(z1, z2) = <z1 | z2>.  Its idempotence under
the weighted label integral is equivalent, after the angular integral
kills every off-diagonal mode, to the radial moment certificate; the
residual computed here therefore measures exactly how far the quadrature
moments sit from the coefficient targets h_n^2.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import specfun
from .measure import QuadratureRule, radial_rule
from .states import (
    Family,
    FamilyParams,
    FockVector,
    coefficient_sign,
    normalization,
    overlap,
    _log_h_array,
)

__all__ = [
    "kernel",
    "check_idempotence",
    "analytic_repr",
    "inner_product_integral",
    "gram_matrix",
]


def kernel(params: FamilyParams, z1: complex, z2: complex) -> complex:
    """K(z1, z2) = <z1 | z2>; hermitian, K(z, z) = 1."""
    return overlap(params, z1, z2)


def _series_length(params: FamilyParams, mag: float) -> int:
    # enough terms that the geometric tail of mag^n / h_n^2 is < 1e-16
    n = 64
    while True:
        r = _tail_term_ratio(params, mag, n)
        if r < 0.9 and n >= 16:
            # remaining mass below ~1e-16 once terms decay geometrically
            if _log_term(params, mag, n) < -40.0:
                return n
        n *= 2
        if n > 65536:
            raise specfun.ConvergenceError("kernel series truncation stalled")


def _tail_term_ratio(params: FamilyParams, mag: float, n: int) -> float:
    r = mag / ((n + 1.0) * (params.b + n))
    if params.family is Family.JACOBI:
        r *= (params.coeff_shift + n) ** 2
    return r


def _log_term(params: FamilyParams, mag: float, n: int) -> float:
    if mag == 0.0:
        return -math.inf
    return n * math.log(mag) - 2.0 * float(_log_h_array(params, n)[-1])


def check_idempotence(params: FamilyParams, z1: complex, z2: complex,
                      rule: QuadratureRule | None = None) -> float:
    """| int K(z1,.) K(., z2) W dmu - K(z1, z2) |.

    The angular integral is done exactly by mode matching (only equal
    modes survive), the radial one by the measure rule, so the residual
    reduces to the weighted moment defects.
    """
    z1 = params.require_label(z1)
    z2 = params.require_label(z2)
    if rule is None:
        rule = radial_rule(params)
    w = complex(z1).conjugate() * complex(z2)
    n_terms = _series_length(params, abs(w))
    log_h2 = 2.0 * _log_h_array(params, n_terms)
    n = np.arange(n_terms + 1, dtype=float)
    log_mu_hat = rule.log_moments(n)
    # sum_n w^n mu_hat_n / h_n^4, normalized by sqrt(N(|z1|^2) N(|z2|^2))
    if w == 0.0:
        log_w_pow = np.full(n_terms + 1, -np.inf)
        log_w_pow[0] = 0.0
        phases = np.ones(n_terms + 1, dtype=complex)
    else:
        log_w_pow = n * math.log(abs(w))
        phases = np.exp(1j * n * cmath.phase(w))
    terms = np.exp(log_w_pow - 2.0 * log_h2 + log_mu_hat) * phases
    n1, n2 = normalization(params, np.array([abs(z1) ** 2, abs(z2) ** 2]))
    log_norm = 0.5 * (math.log(n1) + math.log(n2))
    lhs = complex(np.sum(terms)) * math.exp(-log_norm)
    rhs = kernel(params, z1, z2)
    return abs(lhs - rhs)


def analytic_repr(params: FamilyParams, fock: FockVector, z: complex) -> complex:
    """Entire-function representative f(z) = sum C_n s_n z^n / sqrt(n! (b)_n),
    where s_n is the family coefficient sign.

    For the jacobi family the defining series only converges against the
    measure inside the unit disc, so |z| >= 1 is flagged as divergent.
    """
    z = complex(z)
    if params.family is Family.JACOBI and abs(z) >= 1.0:
        raise ValueError(
            f"analytic representation diverges at |z| = {abs(z):g} >= 1 "
            "for the jacobi family"
        )
    coeffs = fock.coeffs
    n_max = fock.n_max
    log_h = _log_h_array(
        FamilyParams(params.m, params.nu, Family.BESSEL), n_max
    )  # sqrt(n! (b)_n) without the jacobi Pochhammer division
    n = np.arange(n_max + 1, dtype=float)
    signs = np.ones(n_max + 1)
    scale = np.zeros(n_max + 1)
    if params.family is Family.JACOBI:
        signs[1::2] = -1.0
        # |(-m-n-nu)_n| = (a+1)_n, or the two-nu shift under that variant
        scale = np.concatenate(
            (
                [0.0],
                np.cumsum(np.log(params.coeff_shift + np.arange(n_max, dtype=float))),
            )
        )
    if z == 0.0:
        return complex(coeffs[0])
    log_zpow = n * math.log(abs(z))
    phase = np.exp(1j * n * cmath.phase(z))
    mods = np.exp(log_zpow + scale - log_h)
    return complex(np.sum(coeffs * signs * mods * phase))


def inner_product_integral(params: FamilyParams, fock1: FockVector,
                           fock2: FockVector,
                           rule: QuadratureRule | None = None) -> complex:
    """<Phi1 | Phi2> evaluated through the weighted label integral of the
    analytic representatives; matches the direct Fock inner product."""
    if rule is None:
        rule = radial_rule(params)
    n = min(fock1.n_max, fock2.n_max)
    c1 = fock1.coeffs[: n + 1]
    c2 = fock2.coeffs[: n + 1]
    idx = np.arange(n + 1, dtype=float)
    log_mu_hat = rule.log_moments(idx)
    log_h2 = 2.0 * _log_h_array(params, n)
    # s_n^2 mu_n / h_n^2 = 1 exactly; quadrature supplies mu_hat instead
    weights = np.exp(log_mu_hat - log_h2)
    return complex(np.sum(np.conjugate(c1) * c2 * weights))


def gram_matrix(params: FamilyParams, labels) -> np.ndarray:
    """Hermitian Gram matrix of kernel values at the given labels."""
    k = len(labels)
    g = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(i, k):
            v = kernel(params, labels[i], labels[j])
            g[i, j] = v
            g[j, i] = v.conjugate()
    return g
