"""Radial measure machinery: weight density, quadrature, moment certificate.

The resolution of identity for either family reduces, after the angular
integral selects the diagonal, to a Stieltjes moment condition on the
radial density omega(x):

    int x^n omega(x) dx = h_n^2          n = 0, 1, 2, ...

Each family's density, rule and weight curve are its formulas'
(`ghcs.families`), evaluated with `scipy.special` on whole
arrays.  Moment targets are always taken from the state coefficients h_n;
gamma products serve as the independent oracle in the tests, never as the
main path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Sequence

import numpy as np

from .states import Family, FamilyParams, _grown, _log_h_array, normalization

__all__ = [
    "QuadratureRule",
    "MomentReport",
    "IdentityCertificate",
    "WeightCurve",
    "density",
    "radial_rule",
    "verify_identity",
    "figure1_columns",
    "default_figure_curves",
]

_DEFAULT_NODES = 240
IDENTITY_TOL = 1e-8  # the certificate's default tolerance, both families
_RULE_CACHE_SIZE = 8
_MOMENT_ROWS = 256  # exponents per log_moments block: 0.49 MB arrays at 240 nodes
@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights approximating integrals against omega(x) dx.

    Weights are non-negative (underflowed tail weights are dropped at
    construction), which lets the high moments be accumulated in log
    space where x^n alone would overflow.
    """

    nodes: np.ndarray
    weights: np.ndarray
    # log mu_n for n = 0, 1, ..., grown by `_integer_log_moments`
    _log_mu: np.ndarray = field(default_factory=lambda: np.empty(0), init=False,
                                repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape:
            raise ValueError("nodes and weights must have equal shape")
        if np.any(weights < 0.0):
            raise ValueError("rule weights must be non-negative")
        keep = weights > 0.0
        for name, values in (("nodes", nodes[keep]), ("weights", weights[keep])):
            values.flags.writeable = False  # rules are shared by the rule cache
            object.__setattr__(self, name, values)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def log_moments(self, exponents: Sequence[float]) -> np.ndarray:
        """log int x^e omega(x) dx for each exponent e, stable for large e;
        summed in blocks of 256 exponents, so the work arrays stay
        (256 x nodes) however many are asked for."""
        e = np.asarray(exponents, dtype=float)
        out = np.empty(len(e))
        for i in range(0, len(e), _MOMENT_ROWS):
            g = e[i:i + _MOMENT_ROWS, None] * np.log(self.nodes) + np.log(self.weights)
            top = np.max(g, axis=1)
            out[i:i + _MOMENT_ROWS] = top + np.log(np.sum(np.exp(g - top[:, None]), axis=1))
        return out

    def _integer_log_moments(self, n_max: int) -> np.ndarray:
        """Read-only `log_moments` of the orders 0..n_max, a prefix of the
        rule's own table.  The table grows to the next power of two >= n_max
        when it is shorter, computing only the new orders; `log_moments`
        sums each order on its own, so every prefix is its value bit for
        bit.  At the state truncation cap of 32768 the table is 256 kB."""
        if len(self._log_mu) <= n_max:
            object.__setattr__(self, "_log_mu", _grown(
                self._log_mu, n_max,
                lambda start, stop: self.log_moments(np.arange(start, stop + 1, dtype=float))))
        return self._log_mu[: n_max + 1]


@dataclass(frozen=True)
class MomentReport:
    order: int
    computed: float
    target: float
    rel_error: float


@dataclass(frozen=True)
class IdentityCertificate:
    reports: tuple[MomentReport, ...]
    passed: bool
    worst: MomentReport
    diagnosis: str | None
    tol: float
    n_nodes: int

    def as_dict(self) -> dict:
        """The certificate as strict JSON: a value past the float range (the
        `computed` and `target` columns from h_n^2 > 1.8e308) is None."""
        return {
            "passed": self.passed,
            "tol": self.tol,
            "n_nodes": self.n_nodes,
            "worst_order": self.worst.order,
            "worst_rel_error": _finite_or_none(self.worst.rel_error),
            "diagnosis": self.diagnosis,
            "moments": [
                {
                    "order": r.order,
                    "computed": _finite_or_none(r.computed),
                    "target": _finite_or_none(r.target),
                    "rel_error": _finite_or_none(r.rel_error),
                }
                for r in self.reports
            ],
        }


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------

def density(params: FamilyParams, x):
    """Normalized weight density omega(x); n-th moment equals h_n^2.

    Scalar in, scalar out; array in, array out; the family's `density`.
    Outside the support the jacobi-family density is identically zero.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < 0.0):
        raise ValueError("density argument must be non-negative")
    out = params.formulas.density(params, xs)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------

def radial_rule(params: FamilyParams, n_nodes: int | None = None) -> QuadratureRule:
    """Quadrature rule for integrals against the family density, with
    n_nodes nodes (omitted or 0: 240; fewer than 8 is a ValueError) before
    the nodes whose weight underflows to zero are dropped.  A weight that
    is not finite (inf or NaN, from m = 43 on for bessel at nu = 0.5) is
    an OverflowError naming the family, m, nu and the node count.

    The 8 most recently used rules are kept, keyed on (params, n_nodes)
    after the default is resolved, so omitting n_nodes and passing the
    default give the same rule object.  A rule's arrays are read-only and
    shared between callers.  A rule holds two arrays of about n_nodes
    floats, so the cache holds about 8 x 2 x n_nodes x 8 B: 31 kB at the
    default of 240, plus each rule's integer log-moment table (at most
    256 kB, grown by the orders its readers ask for).

    The nodes and weights are the family's `rule`, over parameter-free
    base rules kept apart (`families._gauss_genlaguerre`, `_tanh_sinh`), so
    a new (params, n_nodes) costs only its density factors.
    """
    n = n_nodes or _DEFAULT_NODES
    if n < 8:  # one floor for both families' rules
        raise ValueError(f"n_nodes must be at least 8 (or 0 for the default), got {n_nodes!r}")
    return _cached_rule(params, n)


@lru_cache(maxsize=_RULE_CACHE_SIZE)
def _cached_rule(params: FamilyParams, n: int) -> QuadratureRule:
    nodes, weights = params.formulas.rule(params, n)
    if not np.isfinite(weights).all():
        raise OverflowError(f"the {params.family.value} rule at m = {params.m}, "
                            f"nu = {params.nu!r} on {n} nodes has a weight that is not finite")
    return QuadratureRule(nodes=nodes, weights=weights)


# ---------------------------------------------------------------------------
# Moment conditions and the resolution-of-identity certificate
# ---------------------------------------------------------------------------

def target_moments(params: FamilyParams, n_check: int) -> np.ndarray:
    """h_n^2 for n = 0..n_check, straight from the state coefficients."""
    return np.exp(2.0 * _log_h_array(params, n_check))


def _log_moment_ratio(params: FamilyParams, rule: QuadratureRule,
                      n_max: int) -> np.ndarray:
    """log(mu_n / h_n^2) for n = 0..n_max from the rule's integer table:
    zero where the rule reproduces the resolution of identity exactly."""
    return rule._integer_log_moments(n_max) - 2.0 * _log_h_array(params, n_max)


def _log_moments(rule: QuadratureRule, exponents: np.ndarray) -> np.ndarray:
    """`rule.log_moments(exponents)`, read from the rule's integer table when
    every exponent is a whole number."""
    e = np.asarray(exponents, dtype=float)
    if np.all(e == np.floor(e)):
        return rule._integer_log_moments(int(e.max()))[e.astype(int)]
    return rule.log_moments(e)


def _moment_rows(params: FamilyParams, rule: QuadratureRule, n_max: int) -> np.ndarray:
    """w_i x_i^n / h_n^2 for n = 0..n_max (rows) over the nodes, formed as
    exp(n log x_i + log w_i - 2 log h_n) so that it stays finite where x^n
    or h_n^2 alone overflow."""
    n = np.arange(n_max + 1, dtype=float)[:, None]
    return np.exp(n * np.log(rule.nodes) + np.log(rule.weights)
                  - 2.0 * _log_h_array(params, n_max)[:, None])


def verify_identity(params: FamilyParams, n_check: int = 20,
                    tol: float = IDENTITY_TOL,
                    rule: QuadratureRule | None = None) -> IdentityCertificate:
    """Moment certificate for the resolution of identity.

    Checks int x^n omega dx against h_n^2 for n = 0..n_check, as
    |expm1(log mu_n - 2 log h_n)| so that rows past the float range stay
    finite (their `computed` and `target` columns read inf).  On failure
    the rule is rebuilt with more nodes: a moment that moves under
    refinement indicts the quadrature, a stable one indicts the identity.
    A row whose relative error is not finite fails the certificate as its
    worst row, with diagnosis "float_overflow" and no refinement.
    """
    if n_check < 8:
        raise ValueError("n_check must be at least 8")
    if rule is None:
        rule = radial_rule(params)
    log_ratio = _log_moment_ratio(params, rule, n_check)
    rel = np.abs(np.expm1(log_ratio))
    with np.errstate(over="ignore"):
        # report columns only: past the float range they read inf
        targets = target_moments(params, n_check)
        computed = np.exp(rule._integer_log_moments(n_check))
    reports = tuple(
        MomentReport(order=n, computed=float(computed[n]), target=float(targets[n]),
                     rel_error=float(rel[n]))
        for n in range(n_check + 1)
    )
    overflowed = np.flatnonzero(~np.isfinite(rel))
    worst = reports[int(overflowed[0]) if overflowed.size else int(np.argmax(rel))]
    passed = bool(worst.rel_error <= tol)
    diagnosis = None
    if overflowed.size:
        diagnosis = "float_overflow"
    elif not passed:
        n = worst.order
        finer = radial_rule(params, int(rule.n_nodes * 1.6) + 8)
        drift = abs(math.expm1(_log_moment_ratio(params, finer, n)[n])
                    - math.expm1(log_ratio[n]))
        if drift > 0.25 * worst.rel_error:
            diagnosis = "quadrature_insufficient"
        else:
            diagnosis = "identity_violation"
    return IdentityCertificate(
        reports=reports,
        passed=passed,
        worst=worst,
        diagnosis=diagnosis,
        tol=tol,
        n_nodes=rule.n_nodes,
    )


# ---------------------------------------------------------------------------
# Weight-function scan (figure reproduction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightCurve:
    """One weight-function curve W(x) = N(x) omega(x).

    literal_n None is the canonical curve, with the family normalization;
    an integer literal_n keeps the extra index n that the published
    G-function parameters carry and, for the jacobi family, replaces N by
    2F1(-(m+n+nu), -(m+n+nu); b; x), which is how the figure caption's n
    enters.  A bessel curve is 2 I_{b-1}(2 sqrt x) K_{b-1}(2 sqrt x)
    either way.
    """

    params: FamilyParams
    literal_n: int | None = None

    @property
    def variant_tag(self) -> str:
        if self.literal_n is None:
            return "canonical"
        return f"literal-n{self.literal_n}"


def figure1_columns(curves: Sequence[WeightCurve], x_grid: Sequence[float]):
    """(x_list, [(curve, w_list)]): the grid as floats, and each curve's
    W(x) = N(x) omega(x) on it, in the order of `curves`.  Curves with the
    same (params, N) share one w_list object.

    W is the family's `weights` on the whole grid, once per distinct
    (params, N): N is the literal n's for a literal curve of a family whose
    W reads it (`LITERAL_N`: jacobi) and the canonical N otherwise, so a
    bessel literal curve shares its canonical curve's values.  A W that
    reads the density gets it from one array `density` call per distinct
    params, and the canonical N's series from `states.normalization`.
    Every W of a one-point grid is its value on a longer grid bit for bit.
    x < 0 raises ValueError, and the jacobi normalization series above
    x = 0.998 raises ConvergenceError naming the first x when it exhausts
    its budget (from x = 0.9985 at m = 1, nu = 0.5).
    """
    xs = np.asarray(x_grid, dtype=float).ravel()
    if curves and np.any(xs < 0.0):
        raise ValueError("weight argument must be non-negative")
    omega = cache(lambda p: density(p, xs))  # one density per params, if read
    values: dict[tuple, list[float]] = {}
    columns = []
    for curve in curves:
        p = curve.params
        key = (p, curve.literal_n if p.formulas.LITERAL_N else None)
        if key not in values:
            values[key] = p.formulas.weights(*key, xs, omega, normalization).tolist()
        columns.append((curve, values[key]))
    return xs.tolist(), columns


def default_figure_curves(family: Family = Family.JACOBI) -> list[WeightCurve]:
    """The three caption regimes: vary nu at (m=1, n=2); vary n at
    (m=2, nu=0.7); vary m at (n=2, nu=0.7)."""
    curves: list[WeightCurve] = []
    for nu in (0.3, 0.5, 0.7, 1.2):
        curves.append(WeightCurve(FamilyParams(1, nu, family), 2))
    for n in (0, 1, 2, 3):
        curves.append(WeightCurve(FamilyParams(2, 0.7, family), n))
    for m in (0, 1, 2, 3):
        curves.append(WeightCurve(FamilyParams(m, 0.7, family), 2))
    return curves
