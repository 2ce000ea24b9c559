"""Thermal observables: partition sums, Boltzmann averages, number moments.

Ground truth for every thermal average is the direct Boltzmann sum over
the spectrum E_n = n (n + mu + 1): one table gives Z, <N> and <N(N-1)>
for a whole beta grid under one certified tail bound, and <N^2>, g2 and Q
follow from them without cancellation.  The literature's closed forms
(mean occupation 1 + 2 e^{beta(2-mu)} and its companions) are tabulated
alongside, never asserted, since they do not reproduce the direct sums.
The diagonal P-representation, which reads `partition` and the spectrum,
is `ghcs.pfunction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import specfun
from .specfun import _ABS_FLOOR, _REL_TOL, ConvergenceError
from .states import FamilyParams, _index_row, _norm_arg, _norm_args, normalization

__all__ = [
    "ThermalState",
    "thermal_state",
    "partition",
    "boltzmann_moment",
    "oracle_thermal_stats",
    "closed_form_thermal_stats",
    "cs_thermal_expectation",
    "number_moment",
    "in_state_stats",
    "g2_in_state",
    "thermal_scan_rows",
]

_TAIL_REL = 1e-17  # every Boltzmann sum's certified relative tail is below this


def _energy(n: float, mu: float) -> float:
    return n * (n + mu + 1.0)


@dataclass(frozen=True)
class ThermalState:
    """Z summed over n <= n_cut, and the certified bound on the relative
    tail the cut drops from each Boltzmann sum (for Z, the tail itself)."""

    beta: float
    mu: float
    n_cut: int
    partition: float
    tail_bound: float


def _majorant(betas, mu: float, k: np.ndarray):
    """(head, slack) per beta (rows) and first dropped order k >= 3: each
    dropped tail is at most head / slack of its sum's first term.  With
    t_k = k (k-1) e^{-beta (E_k - E_2)}, the terms of the n (n-1) sum, and
    their falling ratio r_k = (k+1)/(k-1) e^{-beta (2k + mu + 2)}, head =
    t_k / 2 and slack = 1 - r_k; the other sums' terms are smaller, and
    both fall with beta."""
    t = k * (k - 1.0) * np.exp(-np.multiply.outer(betas, (k - 2.0) * (k + mu + 3.0)))
    r = (k + 1.0) / (k - 1.0) * np.exp(-np.multiply.outer(betas, 2.0 * k + mu + 2.0))
    return 0.5 * t, 1.0 - r


def _boltzmann(betas, mu: float):
    """(Z, <N>, rho, g2c, tail bound, n_cut) over a beta grid from the row
    sums of one matrix V_n = e^{-beta (E_n - E_2)}, n >= 2: as E_1 = mu + 2,
    E_2 = 2 mu + 6, Z = 1 + e^{-beta E_1} + e^{-beta E_2} sum V_n and
    <N> = e^{-beta E_1} A / Z with A = 1 + e^{-beta (mu + 4)} sum n V_n;
    for B = sum n (n-1) V_n, rho = <N(N-1)>/<N> = e^{-beta (mu + 4)} B / A
    and g2c = <N(N-1)>/<N>^2 = Z e^{-2 beta} B / A^2 keep their digits where
    <N(N-1)> underflows.  Each row stops at its own n_cut and is summed
    from its smallest term up, so a grid gives each beta its single-beta
    values bit for bit."""
    betas = np.asarray(betas, dtype=float).reshape(-1)
    if not ((betas > 0.0) & (betas < np.inf)).all() or not -2.0 < mu < math.inf:
        raise ValueError("beta must be finite and positive, mu finite and above -2")
    for size in 2 ** np.arange(4, 21):  # the smallest beta's cut
        head, slack = _majorant(betas.min(initial=np.inf), mu, np.arange(3.0, size + 3.0))
        if (ok := head <= _TAIL_REL * slack).any():
            break
    else:
        raise ConvergenceError(f"Boltzmann sums need over 2^20 terms at beta = {betas.min():g}")
    n = np.arange(2.0, ok.argmax() + 3.0)
    step, blocks = max(1, (1 << 16) // n.size), []  # rows per block of the matrix
    for b in np.split(betas, range(step, betas.size, step)):
        head, slack = _majorant(b, mu, n + 1.0)
        rows, first = np.arange(b.size), (head <= _TAIL_REL * slack).argmax(axis=1)
        v = np.exp(-np.multiply.outer(b, (n - 2.0) * (n + mu + 3.0)))
        v[n > n[first][:, None]] = 0.0
        sums = np.cumsum(np.stack([v, n * v, n * (n - 1.0) * v], 1)[..., ::-1], axis=2)[..., -1]
        blocks.append(np.column_stack([sums, head[rows, first] / slack[rows, first], n[first]]))
    s0, s1, s2, tail, cut = np.concatenate(blocks).T
    w1, w4 = np.exp(-betas * (mu + 2.0)), np.exp(-betas * (mu + 4.0))
    z, a = 1.0 + w1 + np.exp(-betas * (2.0 * mu + 6.0)) * s0, 1.0 + w4 * s1
    g2c = z * np.exp(-2.0 * betas) * s2 / (a * a)
    return z, w1 * a / z, w4 * s2 / a, g2c, tail, cut.astype(int)


def _number_stats(n1, rho, g2c, g2_convention: str):
    """(<N^2>, g2, Q) from <N>, rho = <N(N-1)>/<N> and g2c = <N(N-1)>/<N>^2:
    <N^2> = <N> (1 + rho), g2 = g2c ('conventional') or <N(N-1)>/<N^2> =
    rho / (1 + rho) ('as_written'), Q = <N> (g2 - 1), which cancels only
    for the conventional g2 near 1 (as_written g2 - 1 = -1 / (1 + rho))."""
    if g2_convention not in ("as_written", "conventional"):
        raise ValueError("g2_convention must be 'as_written' or 'conventional'")
    if g2_convention == "conventional":
        return n1 * (1.0 + rho), g2c, n1 * (g2c - 1.0)
    return n1 * (1.0 + rho), rho / (1.0 + rho), -n1 / (1.0 + rho)


def _oracle_columns(betas, mu: float, g2_convention: str = "as_written") -> dict:
    """`oracle_thermal_stats` over a beta grid, each value an array."""
    z, n1, rho, g2c, _, _ = _boltzmann(betas, mu)
    return dict(zip(("N_mean", "N2_mean", "g2", "Q", "Z"),
                    (n1, *_number_stats(n1, rho, g2c, g2_convention), z)))


def thermal_state(beta: float, mu: float) -> ThermalState:
    z, *_, tail, cut = _boltzmann(beta, mu)
    return ThermalState(beta, mu, int(cut[0]), float(z[0]), float(tail[0]))


def partition(beta: float, mu: float) -> float:
    """Z(beta) = sum_n exp(-beta n (n + mu + 1)), tail below 1e-17 of Z."""
    return thermal_state(beta, mu).partition


def boltzmann_moment(beta: float, mu: float, s: int) -> float:
    """<N^s> = sum_n n^s exp(-beta E_n) / Z for s = 0, 1 or 2, the orders
    the thermal layer reads; ValueError for any other s, a bool included."""
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool) or s not in (0, 1, 2):
        raise ValueError("s must be 0, 1 or 2")
    o = oracle_thermal_stats(beta, mu)
    return (1.0, o["N_mean"], o["N2_mean"])[s]


def oracle_thermal_stats(beta: float, mu: float,
                         g2_convention: str = "as_written") -> dict:
    """Boltzmann-sum moments with the second-order correlation and the
    Mandel parameter: g2_convention 'as_written' gives <N(N-1)>/<N^2>, the
    published (<N^2> - <N>)/<N^2>, and 'conventional' <N(N-1)>/<N>^2."""
    return {k: float(v[0]) for k, v in _oracle_columns(beta, mu, g2_convention).items()}


def closed_form_thermal_stats(beta: float, mu: float) -> dict:
    """The literature's closed forms, evaluated literally.

    N = 1 + 2 e^{beta(2-mu)}, N2 = 1 + 4 e^{beta(2-mu)},
    g2 = 2 e^A / (1 + 2 e^A)^2 and Q = -[1 + 4 e^{2A} / (1 + 2 e^A)],
    each taken exactly as published (the chain is not internally
    consistent, which is part of what the comparison table records).
    """
    ea = math.exp(beta * (2.0 - mu))
    n1 = 1.0 + 2.0 * ea
    n2 = 1.0 + 4.0 * ea
    g2 = 2.0 * ea / (1.0 + 2.0 * ea) ** 2
    q = -(1.0 + 4.0 * ea * ea / (1.0 + 2.0 * ea))
    return {"N_mean": n1, "N2_mean": n2, "g2": g2, "Q": q}


def thermal_scan_rows(beta_grid: Sequence[float], mu: float,
                      g2_convention: str = "as_written"):
    """Rows matching the thermal CSV header: oracle sums next to the
    literature closed forms, differences left to the reader."""
    o = _oracle_columns(beta_grid, mu, g2_convention)
    cols = (o[k].tolist() for k in ("Z", "N_mean", "N2_mean", "g2", "Q"))
    return [(beta, float(mu), *oracle, *closed_form_thermal_stats(beta, mu).values())
            for beta, *oracle in zip(np.asarray(beta_grid, dtype=float).tolist(), *cols)]


# ---------------------------------------------------------------------------
# In-state expectations (coherent-state level)
# ---------------------------------------------------------------------------

def cs_thermal_expectation(params: FamilyParams, x: float, eps: float) -> float:
    """<e^{eps N}> in the state with |z|^2 = x: equals N(x e^eps) / N(x).

    The argument x e^eps must stay inside the family domain; for the
    jacobi family that bounds eps above by -ln x.  An N past the float
    range raises OverflowError naming x, and eps if only N(x e^eps) is.
    """
    norm = normalization(params, x)
    try:
        return normalization(params, x * math.exp(eps)) / norm
    except OverflowError:
        raise OverflowError(f"the {params.family.value} normalization passes the float "
                            f"range at x e^eps, x = {x!r}, eps = {eps!r}") from None


# The number-moment series is summed in numpy chunks: the first holds this
# many terms and each next one twice as many, so a short series costs one
# chunk and a long one a few.
_MOMENT_CHUNK = 64


def number_moment(params: FamilyParams, x, s: int, *, falling: bool = False):
    """<N^s> = sum_n n^s t_n / sum_n t_n in the state with |z|^2 = x, where
    t_n = x^n / h_n^2, for s = 0, 1 or 2: the orders the thermal layer
    reads (<N>, <N^2>, g2 and Q), as for `boltzmann_moment`.  Scalar x in,
    float out; array in, array of the same shape out.

    Which x takes which path:
    - s = 1 and 2 (plain and `falling`) where the family's `closed` holds
      (bessel: every x; jacobi: x <= 0.998 with a = m + nu <= 6): from its
      `derivative_ratios` D1 = N'/N and D2 = N''/N (bessel: quotients of
      scipy's `ive` where x >= max(118.64, (b+1)^4 / 16), up to ive's edge
      at x = 2.88e17, and the certified 0F1 ratio recurrence, at most
      `specfun._RATIO_MAX_LEVELS` deep, below; jacobi: scipy's Gauss
      functions), as <N> = x D1 and
      <N^2> = x D1 + x^2 D2, sums of positive terms (`_closed_moments`);
    - s = 0, every x: exactly 1.0 (one sum over itself), without summing;
    - every other jacobi x (x > 0.998 or a > 6): t_n summed through its
      ratio recurrence, as below, within `specfun._MAX_TERMS` terms.
    An array is its elements' float calls, in order, once every element
    is checked against the domain: each element is the float call's value
    bit for bit, and the first failing x raises its error.

    The series is summed in numpy chunks of 64, 128, 256, ... terms, never
    past `specfun._MAX_TERMS`.  Within a chunk the ratios are formed
    elementwise as a term-by-term loop would form them,
    `np.multiply.accumulate` chains them from the carried term, and
    `np.add.accumulate` builds the partial sums from the carried sums;
    both accumulates are sequential, so every term and partial sum is the
    loop's own value.  The one exception is the
    factor (shift + n)^2, which numpy squares where Python's `**` calls
    libm `pow`; the two differ in the last bit for about one ratio in a
    thousand.  Between chunks, once the denominator sum reaches 2, the
    carried term and sums are scaled by the power of two that brings it
    into [1/2, 1); the scaling is exact and cancels in the ratio, so a
    series whose terms pass the float range (a in the thousands) keeps the
    loop's values.  A chunk whose sums leave the float range before that
    rescale is summed again at half its length, which the next chunk keeps
    (no doubling back into the overflow).  As the carried values are only
    ever scaled by exact powers of two, where a chunk starts or ends
    changes no bit.
    No workload sums an array of x here, while the in-state moment
    benchmark (moment-scan) spends about 30 % of its op time in one-x
    series near x = 1 (timed around each call over seed 1's 2624 ops); a
    routine summing many x as the rows of each chunk's matrices cost twice
    the float routine's time on one row at x = 0.9981 (1212 against
    608 us, best of 15 on a shared two-vCPU host) and four times at
    x = 0.5 (102 against 25 us), so the float routine is the one kept.

    Stopping rule and budget: the summation ends after two consecutive
    contributions n^s t_n <= `specfun._REL_TOL` * max(numerator sum,
    `specfun._ABS_FLOOR`), the "previous one was small" state carried
    across chunk boundaries (tested against the next chunk's first
    contribution), and raises ConvergenceError("number_moment series
    did not converge") when `specfun._MAX_TERMS` terms did not reach it.
    The budget is decided before summing: where a closed-form bound on
    the terms (`_budget_runs_out`) proves that no stopping pair falls
    within the budget, that error is raised at once, in microseconds, not
    after the whole budget's terms.  At its 20000 terms and a <= 25
    the bound fires from within 4e-5 of the x where the series starts
    failing (x = 0.99827 for s = 1, 0.99814 for s = 2) up to about
    x = 1 - 2e-7; every other x sums.  A series whose sums still leave
    the float range in a one-term chunk raises OverflowError naming x.

    falling=True gives the falling factorial moment per x^s instead,
    <N>/x or <N (N-1)> / x^2 = N^(s)(x) / N(x) (the s-th derivative of
    the normalization over itself), which tends to s! / h_s^2 as x -> 0.
    The recurrence then carries t_n / x^s from n = s on, so the numerator
    terms stay of order 1 however small x is (at x = 1e-170 the moment
    itself would underflow); the denominator terms are those times x^s.
    The same chunks, stopping rule and budget apply, from n = s.

    Every x must lie in the normalization domain [0, radius^2) and s must
    be 0, 1 or 2, not a bool; otherwise ValueError, raised before any
    work.  `falling` is keyword-only.
    """
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool) or s not in (0, 1, 2):
        raise ValueError(f"s must be 0, 1 or 2, not {s!r}")
    if isinstance(x, float) or np.ndim(x) == 0:
        return _moment(params, _norm_arg(params, float(x)), s, falling)
    xs = _norm_args(params, x)
    out = [_moment(params, v, s, falling) for v in xs.ravel().tolist()]
    return np.array(out, dtype=float).reshape(xs.shape)


def _moment(params: FamilyParams, x: float, s: int, falling: bool) -> float:
    # `number_moment` at one float x of the domain
    if s == 0:
        return 1.0
    if x == 0.0 and not falling:
        return 0.0  # every term after t_0 vanishes
    if params.formulas.closed(params, x):
        return float(_closed_moments(params, x, s, falling))
    return _moment_ratio(params, x, s, falling)


def _closed_moments(params: FamilyParams, x: float, s: int, falling: bool):
    """`number_moment` for s = 1 or 2 at a float x where the family's
    `closed` holds, from the D1 and D2 of its `derivative_ratios` that
    this moment reads: `falling` gives D^s N / N, and plain <N> = x D1,
    <N^2> = x D1 + x^2 D2.  The same expression on a float array gives
    each element the float's value bit for bit."""
    first, second = not (falling and s == 2), s == 2  # the D1 and D2 it reads
    d1, d2 = params.formulas.derivative_ratios(params, x, first, second)
    if falling:
        return d1 if s == 1 else d2
    n1 = x * d1
    return n1 if s == 1 else n1 + x * x * d2


def _overflow(s: int, falling: bool, x: float) -> OverflowError:
    what = f"<N^({s})> / x^{s}" if falling else f"<N^{s}>"
    return OverflowError(f"number_moment: the {what} series at x = {x:g} "
                         "overflows the float range")


def _jacobi_log_bounds(a: float, x: float, s: int, falling: bool, n: int):
    """(log L, log B) for the series of `_moment_ratio` at 0 < x < 1, with
    L and B over P_inf = Gamma(2a) / Gamma(a+1)^2: P_inf L is at most the
    contribution w(n) t_n / x^p at index n >= p + 1, and P_inf B at least
    every numerator partial sum, however long.

    The terms are t_n = x^n ((a+1)_n)^2 / (n! (2a)_n) = (n+1) P_n x^n, with
    P_0 = 1 and P_{k+1} / P_k = 1 + (a-1)^2 / ((k+2)(2a+k)) >= 1; so
    P_n <= P_inf, and as log(1 + u) <= u and (k+2)(2a+k) >= (k+c)^2 with
    c = min(2, 2a), P_n / P_inf >= exp(-(a-1)^2 / (n - 1 + c)).  That gives
    L.  For B, (n+1) n^s <= (n+1)(n+2)...(n+s+1) and
    sum_n C(n+s+1, s+1) x^n = (1-x)^{-s-2} bound the plain numerator by
    (s+1)! / (1-x)^{s+2}; with `falling`, the same sum over j = n - s is
    its bound exactly.
    """
    p = s if falling else 0
    w = float(n) * (n - 1.0) if falling and s == 2 else float(n) ** s
    low = (math.log(w * (n + 1.0)) + (n - p) * math.log(x)
           - (a - 1.0) * (a - 1.0) / (n - 1.0 + min(2.0, 2.0 * a)))
    return low, math.lgamma(s + 2.0) - (s + 2.0) * math.log1p(-x)


def _budget_runs_out(params: FamilyParams, x: float, s: int, falling: bool,
                     max_terms: int) -> bool:
    """True where the series of `_moment_ratio` is proved to reach no
    stopping pair within max_terms = N terms; False wherever that is not
    proved (x < 1/2, N > 1e12, and every x whose series may stop).

    The series tests the contributions at indices p + 1 ... N, and a pair
    ending within the budget needs a small one at an index up to N - 1.
    The contributions' ratios fall with n (each factor of them does), so
    they rise to one peak and then fall.  Past the peak each one up to
    index N - 1 is at least the one at N - 1; where that exceeds
    2 `_REL_TOL` times every partial sum's bound (`_jacobi_log_bounds`),
    none is small.  Before the peak each is at least every one before it,
    so it is small only after 1/`_REL_TOL` = 1e15 terms.  At x >= 1/2 every
    tested partial sum is at least half the denominator sum, which the
    series keeps at 1/2 or more, so `_ABS_FLOOR` never decides.  The
    factor 2 covers the series' float rounding: its N chained products
    drift by a few N eps, 2e-12 relative at N = 20000 and under 1e-3 for
    N <= 1e12.  P_inf cancels, so the test costs a few `math.log` calls.
    """
    n = max_terms - 1
    if not 0.5 <= x or not (s if falling else 0) < n < 1e12:
        return False
    low, high = _jacobi_log_bounds(params.a, x, s, falling, n)
    return low - high > math.log(2.0 * _REL_TOL)


def _moment_ratio(params: FamilyParams, x: float, s: int, falling: bool) -> float:
    """The jacobi sum_n w(n) t_n / x^p over sum_n t_n, t_n = x^n / h_n^2,
    for s = 1 or 2 at 0 <= x < 1, summed in chunks as `number_moment`
    describes: w(n) = n^s and p = 0, or with `falling` w(n) = n (n-1) for
    s = 2, n for s = 1, and p = s.  `number_moment` reaches it only where
    `Jacobi.closed` fails.

    The recurrence carries u_n = t_n / x^min(n, p): the first p steps, whose
    ratios lack their factor x, are taken before the chunks (w vanishes
    there), so the numerator is summed at order 1 however small x is, and
    each denominator term is u_n x^min(n, p).  With p = 0 that is t_n
    itself and every value is the term-by-term loop's.

    A series that `_budget_runs_out` proves cannot stop within
    `specfun._MAX_TERMS` raises the budget's ConvergenceError at once,
    without summing.
    """
    max_terms = specfun._MAX_TERMS
    if _budget_runs_out(params, x, s, falling, max_terms):
        raise ConvergenceError("number_moment series did not converge")
    b, shift = params.b, params.coeff_shift
    p = s if falling else 0
    term, den = 1.0, 0.0  # u_0, and the sum of t_n below p
    try:
        for k in range(p):
            den += term * x**k
            term *= (shift + k) ** 2 / ((k + 1.0) * (b + k))
    except OverflowError:  # a float's ** raises where numpy's square is inf
        den = math.inf  # (a from about 1.3e154): the chunks raise `_overflow`
    xp = x**p
    den += term * xp  # t_p
    num = p * term  # the index-p contribution: s! u_s (s! = s), or 0^s = 0
    small = retried = False
    start, size = p, _MOMENT_CHUNK
    # overflow is caught below by the finiteness check
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while start < max_terms:
            e = math.frexp(den)[1]
            if e > 1:
                term, den, num = (math.ldexp(v, -e) for v in (term, den, num))
            stop = min(start + size, max_terms)
            # n and n + 1 as slices of the shared index row, keyed on the
            # power of two above stop (the state builds' own lengths)
            row = _index_row(1 << stop.bit_length())
            n, n1 = row[0, start:stop], row[0, start + 1:stop + 1]
            ratio = x / (n1 * (b + n)) * (shift + n) ** 2
            ratio[0] *= term
            terms = np.multiply.accumulate(ratio, out=ratio)
            # w(n1) t_n1: n1 (n1 - 1) = n1 n with `falling` s = 2
            contrib = terms * (n1 if s == 1 else n1 * n if falling else n1**2)
            last = terms[-1]  # with p = 0 the denominator sums overwrite terms
            dens = terms * xp if p else terms
            dens[0] += den
            np.add.accumulate(dens, out=dens)
            nums = contrib.copy()
            nums[0] += num
            np.add.accumulate(nums, out=nums)
            if not (math.isfinite(dens[-1]) and math.isfinite(nums[-1])):
                if stop - start == 1:
                    raise _overflow(s, falling, x)
                size, retried = (stop - start) // 2, True  # sum it again, rescale sooner
                continue
            # tiny[i]: contribution i is small.  The partial sums never fall
            # (no contribution is negative), so once the first reaches
            # _ABS_FLOOR they are their own max with it
            lim = nums if nums[0] >= _ABS_FLOOR else np.maximum(nums, _ABS_FLOOR)
            tiny = contrib <= _REL_TOL * lim
            # the stopping pair may be the carried flag and the first
            # contribution, the only pair of a one-term chunk
            if small and tiny[0]:
                return float(nums[0] / dens[0])
            pairs = tiny[1:] & tiny[:-1]
            if pairs.size and pairs[k := int(pairs.argmax())]:
                return float(nums[k + 1] / dens[k + 1])
            small = bool(tiny[-1])
            term, den, num = float(last), float(dens[-1]), float(nums[-1])
            start, size, retried = stop, (stop - start) * (1 if retried else 2), False
    raise ConvergenceError("number_moment series did not converge")


def in_state_stats(params: FamilyParams, x, g2_convention: str = "as_written"):
    """(<N>, <N^2>, g2, Q) in the state with |z|^2 = x from <N>/x and the
    factorial moment <N(N-1)>/x^2, each of order 1 however small x is,
    through `_number_stats`: nothing cancels.  Both are `number_moment`'s
    `falling` moments, bit for bit: where the family's `closed` holds, D1
    and D2 from one `derivative_ratios` call for all such x (bessel: never
    the series; each x is its float call, scipy's `ive` from
    x = max(118.64, (b+1)^4 / 16) on and the ratio recurrence below;
    jacobi: F_0 read once); every other
    jacobi x (x > 0.998 or a > 6) summed as series, one `number_moment` call
    per moment, which sums them one x at a time.  The series' budget runs
    out from x = 0.99814, and from within 4e-5 of there it is decided
    before summing, so those x raise ConvergenceError in microseconds.
    Scalar x in, four floats out; array in, four arrays out.
    ValueError in the vacuum state (x = 0), where g2 is 0/0."""
    if (x == 0.0) if isinstance(x, float) else (np.asarray(x) == 0.0).any():
        raise ValueError("g2 is undefined in the vacuum state (x = 0), "
                         "where <N> = <N^2> = 0")
    fam = params.formulas
    if isinstance(x, float) or np.ndim(x) == 0:
        x = _norm_arg(params, float(x))
        moments = fam.derivative_ratios if fam.closed(params, x) else _series_falling
        mean, fact = (float(v) for v in moments(params, x))
    else:
        x = _norm_args(params, x)
        closed = fam.closed(params, x)  # True (bessel) where it holds at every x
        part = np.broadcast_to(closed, x.shape)
        mean, fact = np.empty(x.shape), np.empty(x.shape)
        if part.any():
            mean[part], fact[part] = fam.derivative_ratios(params, x[part])
        # a region that depends on x leaves the rest to the series, called on
        # an empty rest too: the benchmark's trace test counts these calls
        # (ROADMAP item 4)
        if np.ndim(closed):
            mean[~part], fact[~part] = _series_falling(params, x[~part])
    n1 = x * mean
    return (n1, *_number_stats(n1, x * fact / mean, fact / mean / mean, g2_convention))


def _series_falling(params: FamilyParams, xs):
    # (D1, D2) elsewhere, one `number_moment` series call each
    return (number_moment(params, xs, 1, falling=True),
            number_moment(params, xs, 2, falling=True))


def g2_in_state(params: FamilyParams, x, g2_convention: str = "as_written"):
    """Second-order correlation in the state with |z|^2 = x, as
    `in_state_stats` gives it; ValueError at x = 0, where it is 0/0."""
    return in_state_stats(params, x, g2_convention)[2]
