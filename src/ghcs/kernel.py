"""Reproducing-kernel checks and the analytic representation.

The kernel is the overlap K(z1, z2) = <z1 | z2> of the certified states
that `states` builds, c_n(z) = s_n z^n / (h_n sqrt N(|z|^2)); on label
lists it is the matrix of every pair, and a Gram matrix is one call.  Its
idempotence under the weighted label integral reduces, after the angular
integral kills every off-diagonal mode, to the radial moments: with mu_n
the rule's n-th moment and n* the pair's common truncation, the residual
is

    | sum_{n <= n*} conj(c_n(z1)) c_n(z2) (mu_n / h_n^2 - 1) |,

so it measures exactly how far the quadrature moments sit from the
coefficient targets h_n^2, weighted by the pair's own amplitudes.
"""

from __future__ import annotations

import numpy as np

from .measure import QuadratureRule, _log_moment_ratio, radial_rule
from .states import (
    FamilyParams,
    FockVector,
    StateMatrix,
    overlap,
    state_matrix,
    _pair_overlap,
    _series_terms,
)

__all__ = [
    "kernel",
    "check_idempotence",
    "analytic_repr",
    "inner_product_integral",
    "gram_matrix",
]


def kernel(params: FamilyParams, z1, z2):
    """K(z1, z2) = <z1 | z2>; hermitian, K(z, z) = 1.  Label arrays or lists
    give the matrix K(z1[i], z2[j]) of shape shape(z1) + shape(z2)."""
    return overlap(params, z1, z2)


def check_idempotence(params: FamilyParams, z1, z2,
                      rule: QuadratureRule | None = None):
    """| int K(z1,.) K(., z2) W dmu - K(z1, z2) | for label pairs.

    The angular integral is done exactly by mode matching (only equal
    modes survive) and the radial one by the rule's moments, so the
    residual is |sum_n conj(c_n(z1)) c_n(z2) (mu_n / h_n^2 - 1)| over the
    pair's common truncation.  z1 and z2 broadcast against each other
    (scalars in, float out; arrays in, array out); the states of each side
    come from one `states.state_matrix` call, bit for bit those of
    `states.state`.
    """
    z1s, z2s = np.broadcast_arrays(np.asarray(z1, dtype=complex),
                                   np.asarray(z2, dtype=complex))
    m1, m2 = (state_matrix(params, zs.ravel().tolist()) for zs in (z1s, z2s))
    out = _idempotence_residuals(params, m1, m2, rule).reshape(z1s.shape)
    return float(out) if out.ndim == 0 else out


def _idempotence_residuals(params: FamilyParams, m1: StateMatrix, m2: StateMatrix,
                           rule: QuadratureRule | None = None) -> np.ndarray:
    """`check_idempotence` of row i of m1 with row i of m2, as a 1-d array."""
    if rule is None:
        rule = radial_rule(params)
    top = max(m1.coeffs.shape[1], m2.coeffs.shape[1]) - 1
    defect = np.expm1(_log_moment_ratio(params, rule, top))
    sums = _pair_overlap(m1.coeffs, m1.n_max, m2.coeffs, m2.n_max, defect).tolist()
    return np.array([abs(s) for s in sums])


def analytic_repr(params: FamilyParams, fock: FockVector, z: complex) -> complex:
    """Entire-function representative f(z) = sum C_n s_n z^n / h_n, with the
    family's own h_n and coefficient sign s_n (the terms of `states.state`
    before normalization).

    The defining series only converges against the measure inside the
    label domain (the jacobi unit disc), so |z| >= radius is flagged as
    divergent.
    """
    z = complex(z)
    if abs(z) >= params.radius:
        raise ValueError(
            f"analytic representation diverges at |z| = {abs(z):g} >= {params.radius:g} "
            f"for the {params.family.value} family"
        )
    terms = _series_terms(params, z, fock.n_max)
    return complex(np.sum(fock.coeffs * terms))


def inner_product_integral(params: FamilyParams, fock1: FockVector,
                           fock2: FockVector,
                           rule: QuadratureRule | None = None) -> complex:
    """<Phi1 | Phi2> evaluated through the weighted label integral of the
    analytic representatives; matches the direct Fock inner product."""
    if rule is None:
        rule = radial_rule(params)
    # s_n^2 mu_n / h_n^2 = 1 exactly; quadrature supplies mu_hat instead
    weights = np.exp(_log_moment_ratio(params, rule, max(fock1.n_max, fock2.n_max)))
    return complex(_pair_overlap(fock1.coeffs[None], [fock1.n_max],
                                 fock2.coeffs[None], [fock2.n_max], weights)[0])


def gram_matrix(params: FamilyParams, labels) -> np.ndarray:
    """Hermitian Gram matrix of kernel values at the given labels, from one
    `kernel` call on the list: K(labels[i], labels[j]) for j >= i, and
    g[j, i] = conj(g[i, j]), the diagonal's conjugate included."""
    g = kernel(params, labels, labels)
    np.copyto(g, g.T.conj(), where=np.tri(len(g), dtype=bool))
    return g
