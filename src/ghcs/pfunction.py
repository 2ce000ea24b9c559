"""Diagonal P-representation of the thermal state, verified through moments.

A candidate radial quasi-distribution P is accepted when its
omega-weighted moments match the Boltzmann weights row by row:
int x^n omega(x) P(x) dx proportional to h_n^2 e^{-beta E_n} / Z, with
E_n = n (n + mu + 1) and Z from `thermal.partition`.  The published
2k-derivative series is numerically ill-conditioned, so it is a
candidate to report against these conditions, never asserted.

Everything is matrix algebra on `measure`'s normalized moment rows M
(orders x nodes): the moment-matched candidate solves M T c =
e^{-beta E_n} / Z with T the Chebyshev-Vandermonde matrix at the nodes,
and the check is the one product M P(nodes).  No CLI command imports
this module, so none loads `numpy.polynomial` through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .measure import MomentReport, QuadratureRule, _moment_rows, density, radial_rule
from .specfun import ConvergenceError
from .states import FamilyParams
from .thermal import _energy, partition

__all__ = [
    "PFunctionCandidate",
    "moment_matched_candidate",
    "derivative_series_candidate",
    "verify_p_function",
    "p_function_passes",
]

_FIT_RADIUS = 0.4  # half-width in a of the derivative series' Chebyshev fit


@dataclass(frozen=True)
class PFunctionCandidate:
    """A radial quasi-distribution candidate P(x) to be verified."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    label: str
    k_max: int | None = None


def moment_matched_candidate(params: FamilyParams, beta: float, mu: float,
                             n_check: int,
                             rule: QuadratureRule | None = None) -> PFunctionCandidate:
    """Synthetic candidate built by finite moment matching on n <= n_check.

    Solves the square system sum_j c_j int x^n omega(x) T_j(u(x)) dx =
    h_n^2 e^{-beta E_n} / Z in a Chebyshev basis, with a couple of
    iterative-refinement sweeps to push the residual to roundoff.
    """
    if rule is None:
        rule = radial_rule(params)
    u = params.formulas.basis_map(params)
    a_mat = _moment_rows(params, rule, n_check) @ _cheb.chebvander(u(rule.nodes), n_check)
    rhs = np.exp(-beta * _energy(np.arange(n_check + 1.0), mu)) / partition(beta, mu)
    coef = np.linalg.solve(a_mat, rhs)
    for _ in range(2):
        coef = coef + np.linalg.solve(a_mat, rhs - a_mat @ coef)

    def evaluate(xx: np.ndarray) -> np.ndarray:
        return _cheb.chebval(u(np.asarray(xx, dtype=float)), coef)

    return PFunctionCandidate(evaluate=evaluate, label="moment_matched")


def derivative_series_candidate(params: FamilyParams, beta: float, mu: float,
                                k_max: int) -> PFunctionCandidate:
    """The published truncated derivative series for P.

    P_K(x) = e^{beta mu} sum_{k<=K} beta^k/k! (d/da)^{2k}
             [e^a omega(e^a x) / omega(x)] at a = beta (mu + 1),
    with the a-derivatives taken from a local Chebyshev fit at each x.  High
    derivatives of numerical data are badly conditioned; this candidate
    exists to be reported against the moment conditions, not asserted.
    Where omega(x) underflows, deep in the tail where the weight is
    negligible, the candidate reads zero.
    """
    a0 = beta * (mu + 1.0)
    deg = 2 * k_max + 6
    cheb = np.cos(np.pi * (np.arange(deg + 1) + 0.5) / (deg + 1))  # fit nodes on [-1, 1]

    def evaluate(xx: np.ndarray) -> np.ndarray:
        xx = np.atleast_1d(np.asarray(xx, dtype=float))
        r = params.formulas.fit_radius(np.full(xx.shape, _FIT_RADIUS), xx, a0)
        scale = np.exp(a0 + r * cheb[:, None])  # e^a on the (fit nodes x points) grid
        om = density(params, np.vstack([xx, scale * xx]))
        ok = (om[0] > 0.0) & np.isfinite(om[0])
        cf = _cheb.chebfit(cheb, scale[:, ok] * om[1:, ok] / om[0, ok], deg)
        total = _cheb.chebval(0.0, cf)
        for k in range(1, k_max + 1):
            cf = _cheb.chebder(cf, 2) / (r[ok] * r[ok])
            total += beta**k / math.factorial(k) * _cheb.chebval(0.0, cf)
        out = np.zeros_like(xx)
        out[ok] = math.exp(beta * mu) * total
        return out

    return PFunctionCandidate(
        evaluate=evaluate, label=f"derivative_series_k{k_max}", k_max=k_max
    )


def verify_p_function(params: FamilyParams, beta: float, mu: float,
                      candidate: PFunctionCandidate, n_check: int,
                      rule: QuadratureRule | None = None) -> list[MomentReport]:
    """Row-by-row check of the diagonal moment conditions.

    The candidate must satisfy int x^n omega(x) P(x) dx proportional to
    h_n^2 e^{-beta E_n}/Z, with the n-independent constant fixed by the
    n = 0 row.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if rule is None:
        rule = radial_rule(params)
    pv = np.asarray(candidate.evaluate(rule.nodes), dtype=float)
    if not np.all(np.isfinite(pv)):
        raise ConvergenceError("candidate evaluation failed on the rule nodes")
    computed = _moment_rows(params, rule, n_check) @ pv
    targets = computed[0] * np.exp(-beta * _energy(np.arange(n_check + 1.0), mu))
    rel = np.abs(computed - targets) / np.abs(targets)
    return [MomentReport(order=n, computed=c, target=t, rel_error=e)
            for n, (c, t, e) in enumerate(zip(computed.tolist(), targets.tolist(),
                                               rel.tolist()))]


def p_function_passes(reports: Sequence[MomentReport], tol: float = 1e-8) -> bool:
    return all(r.rel_error <= tol for r in reports)
