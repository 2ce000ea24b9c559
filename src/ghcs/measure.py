"""Radial measure machinery: weight density, quadrature, moment certificate.

The resolution of identity for either family reduces, after the angular
integral selects the diagonal, to a Stieltjes moment condition on the
radial density omega(x):

    int x^n omega(x) dx = h_n^2          n = 0, 1, 2, ...

The bessel-family density has the closed form
2 x^{(b-1)/2} K_{b-1}(2 sqrt x) / Gamma(b) on (0, inf).  The jacobi-family
density lives on (0, 1): the paper writes it as the Meijer G-function
G^{2,0}_{2,2}(x | a,a; 0,2a-1) scaled by Gamma(a+1)^2 / Gamma(b), and with
parameter excess 1 that G-function is the Gauss function
2F1(1-a, 1-a; 1; 1-x) there and zero for x >= 1.  Both are evaluated with
`scipy.special` on whole arrays.  One tanh-sinh rule on (0, 1), whose
window reaches the smallest normal float, absorbs the x^{b-1} and x^0
branches at either family's origin.  Moment targets are always taken
from the state coefficients h_n; gamma products serve as the independent
oracle in the tests, never as the main path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import ellipkm1, gamma, hyp2f1, ive, kv, kve, rgamma

from . import specfun
from .states import Family, FamilyParams, _grown, _log_h_array, normalization

__all__ = [
    "QuadratureRule",
    "MomentReport",
    "IdentityCertificate",
    "WeightCurve",
    "density",
    "radial_rule",
    "verify_identity",
    "figure1_scan",
    "default_figure_curves",
]

_DEFAULT_NODES = 240
IDENTITY_TOL = 1e-8  # the certificate's default tolerance, both families
_RULE_CACHE_SIZE = 8
_BASE_CACHE_SIZE = 8
_MOMENT_ROWS = 256  # exponents per log_moments block: 0.49 MB arrays at 240 nodes
# tanh-sinh window |t| <= T with pi sinh T = -log(smallest normal float), so
# that x and 1 - x at the window's ends stay normal floats
_TANH_SINH_T = math.asinh(-math.log(np.finfo(float).tiny) / math.pi)
# scipy's hyp2f1 on the Euler form of the jacobi N and its first two
# derivatives (`_euler_gauss`) is trusted for x up to _EULER_CUT and
# a = m + nu up to _EULER_A_MAX.  Against mpmath at 40 digits:
# - F_k = 2F1(a-1, a-1; b+k; x), k = 0, 1, 2, hold 5.2e-14 at x = 0.998
#   over a = 0.1, 0.12, ..., 6, and F_0 holds 6.0e-14 at x = 0.9984; scipy
#   switches to another method near x = 0.99842, where F_0 errs 2.1e-3 (and
#   7.6e-4 at x = 0.999), so the cut keeps a margin of 4e-4 below it;
# - N holds 2.2e-14 up to x = 0.99 and 5.0e-14 on (0.99, 0.998] for m <= 3,
#   nu in [0.05, 2.5];
# - the moments D^k N / N, k <= 2, hold 3.5e-14 over x <= 0.99 up to a = 5.3
#   and 8.1e-14 up to a = 6, and 4.9e-14 on (0.99, 0.998] up to a = 6 (the
#   series errs up to 5.9e-13 there for m <= 3); they err 1.0e-13 at
#   a = 6.2, 1.9e-13 at a = 7, 6.2e-10 at m = 6, nu = 7.3 and 4.3e-4 at
#   m = 20, nu = 5.
# Above the cut the series take over, and the number-moment series runs out
# of its budget from x = 0.99818.
_EULER_CUT = 0.998
_EULER_A_MAX = 6.0


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

def _jacobi_density(params: FamilyParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Gamma(a+1)^2 / Gamma(b) G^{2,0}_{2,2}(x | a,a; 0,2a-1) on 0 < x < 1,
    # from x and y = 1 - x, each formed directly; the reflected constant is
    # finite for every nu > 0
    a, b = params.a, params.b
    const = math.exp(2.0 * math.lgamma(a + 1.0) - math.lgamma(b))
    if b == 1.0:
        # 2F1(1/2, 1/2; 1; 1 - x) = (2/pi) K(1 - x) (DLMF 19.5.1), which
        # ellipkm1 takes from x itself: finite down to x = 5e-324, where
        # scipy's hyp2f1 at 1 - x is inf for x <= 1e-14
        return const * (2.0 / math.pi) * ellipkm1(x)
    near = (x < 0.5) & (b < 1.0)
    out = np.empty_like(x)
    out[~near] = hyp2f1(1.0 - a, 1.0 - a, 1.0, y[~near])
    # b < 1 near the origin: the x^{b-1} and x^0 branches in x itself
    # (DLMF 15.8.4), so the digits of x below 1.1e-16 are not rounded away
    xn = x[near]
    out[near] = (gamma(b - 1.0) * rgamma(a) ** 2 * hyp2f1(1.0 - a, 1.0 - a, 2.0 - b, xn)
                 + gamma(1.0 - b) * rgamma(1.0 - a) ** 2 * xn ** (b - 1.0)
                 * hyp2f1(a, a, b, xn))
    return const * out


def density(params: FamilyParams, x):
    """Normalized weight density omega(x); n-th moment equals h_n^2.

    Scalar in, scalar out; array in, array out.  Outside the support the
    jacobi-family density is identically zero.

    The jacobi density is 2F1(1-a, 1-a; 1; 1-x), except for b < 1 and
    x < 1/2, where it is the connection formula's two Gauss functions of
    x itself (DLMF 15.8.4): against mpmath it holds to 1.9e-14 relative
    down to x = 1e-300 (m = 0, nu = 0.05); and at b = 1, where it is the
    complete elliptic integral (2/pi) K(1 - x) of x itself, within 2.2e-16
    from x = 1e-15 to 1 - 1e-12.  For b > 1 forming 1 - x still rounds
    away the digits of x below 1.1e-16 (at x = 1e-12: 4.4e-11 relative for
    m = 0, nu = 0.7); the radial rule passes its exact 1 - x instead.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < 0.0):
        raise ValueError("density argument must be non-negative")
    b = params.b
    out = np.zeros_like(xs)
    if params.family is Family.BESSEL:
        pos = xs > 0.0
        xp = xs[pos]
        t = 2.0 * np.sqrt(xp)
        lc = math.log(2.0) - math.lgamma(b)
        out[pos] = np.exp(lc + 0.5 * (b - 1.0) * np.log(xp) - t) * kve(b - 1.0, t)
        # x = 0 endpoint: finite limit 1/(b-1) for b > 1, else singular
        if np.any(~pos):
            out[~pos] = 1.0 / (b - 1.0) if b > 1.0 else math.inf
    else:
        inside = (xs > 0.0) & (xs < 1.0)
        out[inside] = _jacobi_density(params, xs[inside], 1.0 - xs[inside])
        if np.any(xs == 0.0):
            # x -> 0 limit a^2/(b-1) for b > 1, integrably singular below
            lim = params.a**2 / (b - 1.0) if b > 1.0 else math.inf
            out[xs == 0.0] = lim
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_BASE_CACHE_SIZE)
def _gauss_genlaguerre(n: int, alpha: float):
    """Read-only (nodes, weights) of the n-point generalized Gauss-Laguerre
    rule for t^alpha e^{-t} on (0, inf), shared by every params."""
    # Nodes from the tridiagonal Jacobi-matrix eigenvalues; weights from
    # Christoffel sums w_i = 1 / sum_k p_k(t_i)^2 over the orthonormal
    # recurrence, which keeps relative accuracy even for the far-tail
    # nodes (eigenvector-based weights only carry absolute accuracy, and
    # the high moments are dominated by exactly those tail nodes).
    k = np.arange(n, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    nodes = eigh_tridiagonal(diag, off, eigvals_only=True)
    mu0 = math.exp(math.lgamma(alpha + 1.0))
    t = nodes
    p_prev = np.zeros_like(t)
    p_cur = np.full_like(t, 1.0 / math.sqrt(mu0))
    log_scale = np.zeros_like(t)
    ssum = p_cur**2
    for j in range(n - 1):
        b_prev = off[j - 1] if j > 0 else 0.0
        p_new = ((t - diag[j]) * p_cur - b_prev * p_prev) / off[j]
        p_prev, p_cur = p_cur, p_new
        big = np.abs(p_cur) > 1e120
        if np.any(big):
            f = np.where(big, 1e-120, 1.0)
            p_prev = p_prev * f
            p_cur = p_cur * f
            ssum = ssum * f * f
            log_scale += np.where(big, math.log(1e120), 0.0)
        ssum += p_cur**2
    weights = np.exp(-(np.log(ssum) + 2.0 * log_scale))
    return _read_only(nodes, weights)


@lru_cache(maxsize=_BASE_CACHE_SIZE)
def _tanh_sinh(n: int):
    """Read-only (x, 1 - x, weights) of the n-point tanh-sinh rule on (0, 1),
    shared by every params: n equal steps t over |t| <= T, with
    x = 1 / (1 + e^{-pi sinh t}) and 1 - x = 1 / (1 + e^{pi sinh t}) each
    formed directly, and weights h pi cosh t x (1 - x) (Takahasi-Mori
    1974).  T is where x reaches the smallest normal float, so the rule
    reaches an integrable x^{b-1} endpoint as far as floats allow."""
    t = np.linspace(-_TANH_SINH_T, _TANH_SINH_T, n)
    s = math.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-s))
    y = 1.0 / (1.0 + np.exp(s))
    w = (2.0 * _TANH_SINH_T / (n - 1)) * math.pi * np.cosh(t) * x * y
    return _read_only(x, y, w)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def radial_rule(params: FamilyParams, n_nodes: int | None = None) -> QuadratureRule:
    """Quadrature rule for integrals against the family density, with
    n_nodes nodes (omitted or 0: 240) before the nodes whose weight
    underflows or is not finite are dropped.

    The 8 most recently used rules are kept, keyed on (params, n_nodes)
    after the default is resolved, so omitting n_nodes and passing the
    default give the same rule object.  A rule's arrays are read-only and
    shared between callers.  A rule holds two arrays of about n_nodes
    floats, so the cache holds about 8 x 2 x n_nodes x 8 B: 31 kB at the
    default of 240, plus each rule's integer log-moment table (at most
    256 kB, grown by the orders its readers ask for).

    The parameter-free base rules are kept apart: the 8 most recent
    Gauss-Laguerre rules, keyed on node count and alpha (t e^{-t} for
    bessel b > 1.5, e^{-t} for the bessel b <= 1.5 tail), and the 8 most
    recent tanh-sinh rules on (0, 1), keyed on node count; each is a few
    read-only arrays of n floats.  A new (params, n_nodes) then costs only
    its density factors.

    bessel: substitute x = t^2/4.  For b > 1.5, generalized Gauss-Laguerre
    in t with the linear weight t e^{-t} matching the small-t behaviour of
    t^b K_{b-1}(t); the remaining factor rides in the weights through the
    exponentially scaled K.  For b <= 1.5 the origin carries two branches,
    t and t^{2b-1} (a log at b = 1): tanh-sinh with n // 4 nodes (made odd)
    on 0 < t < 1 and a shifted Gauss-Laguerre tail with the rest.

    jacobi: tanh-sinh on (0, 1) with the density as weight factor, for
    every b: its nodes cluster at both ends as a double exponential, which
    absorbs the x^{b-1} and x^0 branches at the origin alike.
    """
    return _cached_rule(params, n_nodes or _DEFAULT_NODES)


@lru_cache(maxsize=_RULE_CACHE_SIZE)
def _cached_rule(params: FamilyParams, n: int) -> QuadratureRule:
    b = params.b
    if params.family is Family.JACOBI:
        x, y, w = _tanh_sinh(n)
        return QuadratureRule(nodes=x, weights=w * _jacobi_density(params, x, y))
    logc = (1.0 - b) * math.log(2.0) - math.lgamma(b)
    if b > 1.5:
        # t^b K_{b-1}(t) ~ t x analytic(t^2) at the origin, so a single
        # generalized Gauss-Laguerre weight t e^{-t} absorbs it.
        t, w = _gauss_genlaguerre(n, 1.0)
        lv = logc + (b - 1.0) * np.log(t) + np.log(kve(b - 1.0, t))
        v = np.where(lv > -700.0, w * np.exp(lv), 0.0)
        return QuadratureRule(nodes=0.25 * t * t, weights=v)
    # b <= 1.5: the origin's t and t^{2b-1} branches on tanh-sinh, the tail on Laguerre
    n_de = (n // 4) | 1
    t_de, _, w = _tanh_sinh(n_de)
    keep = 0.25 * t_de * t_de > 0.0  # t^2/4 underflows at the smallest nodes
    t_de = t_de[keep]
    w_de = w[keep] * np.exp(logc + b * np.log(t_de)) * kv(b - 1.0, t_de)
    un, uw = _gauss_genlaguerre(n - n_de, 0.0)
    t_tl = 1.0 + un
    w_tl = uw * np.exp(logc + b * np.log(t_tl) - 1.0) * kve(b - 1.0, t_tl)
    t_all = np.concatenate([t_de, t_tl])
    return QuadratureRule(nodes=0.25 * t_all * t_all, weights=np.concatenate([w_de, w_tl]))


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

    variant "canonical" uses the family normalization; variant "literal"
    keeps the extra index n that the published G-function parameters carry
    and, for the jacobi family, replaces N by 2F1(-(m+n+nu), -(m+n+nu); b; x),
    which is how the figure caption's n enters.  A bessel curve is
    2 I_{b-1}(2 sqrt x) K_{b-1}(2 sqrt x) in either variant.
    """

    params: FamilyParams
    variant: str = "canonical"
    literal_n: int = 0

    def __post_init__(self) -> None:
        if self.variant not in ("canonical", "literal"):
            raise ValueError("variant must be 'canonical' or 'literal'")

    @property
    def variant_tag(self) -> str:
        if self.variant == "literal":
            return f"literal-n{self.literal_n}"
        return "canonical"


def _weights(params: FamilyParams, literal_n: int | None, xs: np.ndarray,
             om: np.ndarray | None) -> np.ndarray:
    # W = N omega of one (params, N) on a float array; om is the jacobi
    # density at xs (bessel W needs no density)
    if params.family is Family.BESSEL:
        return _bessel_weights(params.b, xs)
    w = np.zeros(xs.shape)  # zero past the support x >= 1
    inside = xs < 1.0
    x = xs[inside]
    a, b = params.a, params.b
    if literal_n is None:
        euler = _euler_trusted(params, x)
        nval = np.empty_like(x)
        nval[euler] = _euler_gauss(params, x[euler]) / np.square(1.0 - x[euler])
        if not euler.all():
            nval[~euler] = normalization(params, x[~euler])
    else:
        c = a + literal_n  # = m + n + nu
        nval = hyp2f1(-c, -c, b, x)
    # N >= 1 is finite, so W is inf where omega is (x = 0 for b <= 1)
    w[inside] = nval * om[inside]
    return w


def _euler_trusted(params: FamilyParams, x):
    """Where `_euler_gauss` is trusted for k <= 2: jacobi, 0 <= x <=
    _EULER_CUT and a <= _EULER_A_MAX; a bool, or a bool array for an array
    x.  Elsewhere the jacobi N and its moments are the series'."""
    return (x <= _EULER_CUT) & (params.family is Family.JACOBI and params.a <= _EULER_A_MAX)


def _euler_gauss(params: FamilyParams, x, k: int = 0):
    """2F1(a-1, a-1; b+k; x) by scipy's hyp2f1, with a = m + nu, b = 2a.
    As (d/dx)^k 2F1(a+1, a+1; b; x) = ((a+1)_k)^2 / (b)_k 2F1(a+1+k,
    a+1+k; b+k; x) (DLMF 15.5.2), Euler's transformation (DLMF 15.8.1)
    gives the k-th derivative of the jacobi N as ((a+1)_k)^2 / (b)_k
    (1-x)^{-2-k} times this, whose c - a - b is k + 2 (`_euler_trusted`
    says where scipy holds it)."""
    return hyp2f1(params.a - 1.0, params.a - 1.0, params.b + k, x)


def _bessel_weights(b: float, xs: np.ndarray) -> np.ndarray:
    # W = 0F1(b; x) omega(x) = 2 I_nu(t) K_nu(t), nu = b - 1, t = 2 sqrt x
    # (DLMF 10.39.9), from the exponentially scaled functions, whose factors
    # e^{-t} and e^{t} cancel; the x = 0 limit is 1 / nu, or inf for nu <= 0
    nu = b - 1.0
    w = np.full(xs.shape, 1.0 / nu if nu > 0.0 else math.inf)
    pos = xs > 0.0
    x = xs[pos]
    t = 2.0 * np.sqrt(x)
    i = ive(nu, t)
    # where I_nu leaves the normal floats, K_nu passes the float range and
    # the product is 0 inf or lost to subnormal rounding
    ok = i >= np.finfo(float).tiny
    wp = np.empty_like(t)
    wp[ok] = 2.0 * i[ok] * kve(nu, t[ok])
    if not ok.all():
        wp[~ok] = _bessel_weights_by_ratios(nu, x[~ok], t[~ok])
    w[pos] = wp
    return w


def _bessel_weights_by_ratios(nu: float, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    # 2 I_nu K_nu from the Wronskian I_nu K_{nu+1} + I_{nu+1} K_nu = 1/t
    # (DLMF 10.28.2) as 2 / (t (s + r)), with the ratios s = K_{nu+1} / K_nu
    # and r = I_{nu+1} / I_nu, which stay in range where I_nu and K_nu do
    # not.  s is the forward recurrence s_mu = 2 mu / t + 1 / s_{mu-1}
    # (DLMF 10.29.1; all terms positive) from mu0 - 1 = nu - floor(nu) - 1,
    # where s = K_{mu0} / K_{1-mu0}; r = sqrt(x) / (nu+1) rho_{nu+1}(x), with
    # rho_c = 0F1(; c+1; x) / 0F1(; c; x) from the certified ratio recurrence.
    mu0 = nu - math.floor(nu)
    s = kve(mu0, t) / kve(1.0 - mu0, t)
    for k in range(math.floor(nu) + 1):
        s = 2.0 * (mu0 + k) / t + 1.0 / s
    r = np.sqrt(x) / (nu + 1.0) * specfun._hyp_0f1_ratios(nu + 1.0, x)[0]
    return 2.0 / (t * (s + r))


def figure1_scan(curves: Sequence[WeightCurve], x_grid: Sequence[float]):
    """Rows (x, W, m, nu, variant_tag) in deterministic curve-major order,
    the flattened `_figure1_columns`: W in closed form, within 2e-13 of
    mpmath for bessel x up to 1e12 and jacobi N within 1e-13 up to x = 0.998."""
    x_list, columns = _figure1_columns(curves, x_grid)
    rows = []
    for curve, w_list in columns:
        m, nu, tag = curve.params.m, curve.params.nu, curve.variant_tag
        rows.extend((x, w, m, nu, tag) for x, w in zip(x_list, w_list))
    return rows


def _figure1_columns(curves: Sequence[WeightCurve], x_grid: Sequence[float]):
    """(x_list, [(curve, w_list)]): the grid as floats, and each curve's
    W(x) = N(x) omega(x) on it, in the order of `curves`.  Curves with the
    same (params, N) share one w_list object.

    W is evaluated on the whole grid in closed form, once per distinct
    (params, N): N is the literal n's 2F1 for a literal jacobi curve and
    the canonical N otherwise, so a bessel literal curve shares its
    canonical curve's values.
    - bessel: W = 2 ive(b-1, 2 sqrt x) kve(b-1, 2 sqrt x), with neither
      the density nor N, so W stays finite past x = 1.3e5, where N leaves
      the float range.  Where ive underflows (x near 1e-300 for b >= 3) W
      comes from the Wronskian of I and K instead.  Against mpmath it holds
      to 2e-13 for x from 1e-300 to 1e12.
    - jacobi: one array `density` call per distinct params, times N from
      scipy's `hyp2f1`: the canonical N as (1-x)^{-2} 2F1(a-1, a-1; b; x)
      (Euler's transformation) up to x = 0.998 for a = m + nu <= 6
      (`_euler_trusted`) and `states.normalization` elsewhere, where
      scipy's Euler form errs; the literal N as 2F1(-c, -c; b; x),
      c = m + n + nu.
    Every W of a one-point grid is its value on a longer grid bit for bit.
    W is zero for jacobi x >= 1 and inf where omega is not finite (x = 0 at
    b <= 1); x < 0 raises ValueError, and the jacobi normalization series
    above x = 0.998 raises ConvergenceError naming the first x when it
    exhausts its budget (from x = 0.9985 at m = 1, nu = 0.5).
    """
    xs = np.asarray(x_grid, dtype=float).ravel()
    if curves and np.any(xs < 0.0):
        raise ValueError("weight argument must be non-negative")
    omegas: dict[FamilyParams, np.ndarray] = {}  # jacobi densities
    values: dict[tuple, list[float]] = {}
    columns = []
    for curve in curves:
        p = curve.params
        literal = curve.variant == "literal" and p.family is Family.JACOBI
        key = (p, curve.literal_n if literal else None)
        if key not in values:
            if p.family is Family.JACOBI and p not in omegas:
                omegas[p] = density(p, xs)
            values[key] = _weights(*key, xs, omegas.get(p)).tolist()
        columns.append((curve, values[key]))
    return xs.tolist(), columns


def default_figure_curves(family: Family = Family.JACOBI) -> list[WeightCurve]:
    """The three caption regimes: vary nu at (m=1, n=2); vary n at
    (m=2, nu=0.7); vary m at (n=2, nu=0.7)."""
    curves: list[WeightCurve] = []
    for nu in (0.3, 0.5, 0.7, 1.2):
        curves.append(WeightCurve(FamilyParams(1, nu, family), "literal", 2))
    for n in (0, 1, 2, 3):
        curves.append(WeightCurve(FamilyParams(2, 0.7, family), "literal", n))
    for m in (0, 1, 2, 3):
        curves.append(WeightCurve(FamilyParams(m, 0.7, family), "literal", 2))
    return curves
