"""Certified hypergeometric series: what scipy does not provide.

The 0F1 ascending series is summed under an explicit `SeriesControl`
budget and raises `ConvergenceError` when it runs out, instead of
returning an uncertified value.  It takes a real scalar or a whole float
array and, like the jacobi normalization, is summed by one array
summation (`_sum_ratio_array`) that reproduces the term-by-term
recurrence's values and stopping rule element by element.  0F1 is the
bessel normalization; complex 0F1 arguments (the phase-space density) go
through the modified Bessel closed form in `dynamics`, or through the same
series (`_hyp_0f1_series`) where that form underflows.  The ratios
0F1(; c+1; x) / 0F1(; c; x) behind the bessel in-state moments and weight
come from a bracketed backward recurrence (`_hyp_0f1_ratios`) that never
forms 0F1 itself, under the same budget.  Log-gamma, the modified
Bessel functions and the jacobi weight density's Gauss-function form come
from `math` and `scipy.special`.  All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SeriesControl",
    "ConvergenceError",
    "hyp_0f1",
]


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to converge within its budget."""


# ---------------------------------------------------------------------------
# Truncation controls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesControl:
    """Budget of the infinite series and recurrences used throughout.

    max_terms:  hard budget of summed terms (of recurrence levels for the
                0F1 ratios).

    Every series stops on the same rule: two consecutive terms at most
    `_REL_TOL` times the partial sum, or `_ABS_FLOOR` where the partial
    sum passes through zero (alternating series).
    """

    max_terms: int = 20000

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_SERIES = SeriesControl()

# The series' stopping rule: the relative size of the final terms, and the
# guard used in place of a partial sum that passes through zero.
_REL_TOL = 1e-15
_ABS_FLOOR = 1e-300


# The array series are summed in numpy chunks: the first holds this many
# terms and each next one twice as many, so a short series costs one chunk
# and a long one a few.
_CHUNK = 64


def _sum_ratio_array(name: str, x, ratio: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     ctl: SeriesControl):
    """Sum t0 + t1 + ... with t0 = 1 and t_{k+1} = t_k * ratio(k, x) for
    every element of the scalar or array `x`, real or complex.

    `ratio(k, xs)` gets the float term indices of a chunk as a row and the
    unfinished elements as a column, and returns their ratios as a matrix,
    each formed with the operations of the scalar recurrence it stands
    for.  The terms are summed in chunks of 64, 128, 256, ... indices,
    never past `ctl.max_terms`: `np.multiply.accumulate` chains each row
    of ratios from the carried term and `np.add.accumulate` builds the
    partial sums from the carried sum.  Both accumulates are sequential,
    so every term and partial sum is the term-by-term loop's own value
    (for complex x up to the last bit of numpy's complex division).

    Stopping rule, per element and unchanged from the loop: an element is
    done after two consecutive |t| <= _REL_TOL * max(|sum|, _ABS_FLOOR), the
    "previous term was small" flag carried across chunks, and done
    elements leave the live set.  At x = 0 the sum is 1 without summing.
    If an element exhausts the budget, ConvergenceError names the series,
    the first such x and the budget.

    Scalar in, Python scalar out; array in, array of the same shape out.
    """
    xs = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    flat = xs.ravel()
    out = np.ones_like(flat)  # every term after t0 vanishes at x = 0
    live = np.flatnonzero(flat)
    term, total, small = 1.0, 1.0, False  # carried per live element
    start, size = 0, _CHUNK
    # a term past the float range gives inf (or nan) as in the loop
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size and start < ctl.max_terms:
            stop = min(start + size, ctl.max_terms)
            terms = ratio(np.arange(start, stop, dtype=float), flat[live, None])
            if start:  # the first chunk starts from t0 = 1
                terms[:, 0] *= term
            np.multiply.accumulate(terms, axis=1, out=terms)
            # sums[:, j + 1] is the partial sum through terms[:, j]
            sums = np.empty((live.size, stop - start + 1), dtype=flat.dtype)
            sums[:, 0] = total
            sums[:, 1:] = terms
            np.add.accumulate(sums, axis=1, out=sums)
            # tiny[:, j + 1]: terms[:, j] is small; tiny[:, 0] is carried over
            tiny = np.empty(sums.shape, dtype=bool)
            tiny[:, 0] = small
            np.less_equal(
                np.abs(terms),
                _REL_TOL * np.maximum(np.abs(sums[:, 1:]), _ABS_FLOOR),
                out=tiny[:, 1:],
            )
            pairs = tiny[:, 1:] & tiny[:, :-1]
            first = pairs.argmax(axis=1)
            rows = np.arange(live.size)
            done = pairs[rows, first]
            out[live[done]] = sums[rows[done], first[done] + 1]
            if done.all():
                live = live[:0]
                break
            left = ~done
            live = live[left]
            term, total, small = terms[left, -1], sums[left, -1], tiny[left, -1]
            start, size = stop, 2 * size
    if live.size:
        raise ConvergenceError(
            f"{name} series did not converge within {ctl.max_terms} terms "
            f"at x = {flat[live[0]].item()!r}"
        )
    if xs.ndim == 0:
        return out[0].item()
    return out.reshape(xs.shape)


# ---------------------------------------------------------------------------
# Hypergeometric series
# ---------------------------------------------------------------------------

def _check_not_nonpositive_int(value: float, name: str) -> None:
    if value <= 0.0 and value == math.floor(value):
        raise ValueError(f"{name} must not be a non-positive integer (got {value})")


def hyp_0f1(b: float, x, ctl: SeriesControl = DEFAULT_SERIES):
    """0F1(; b; x) by its ascending series on x >= 0, for a real scalar or
    a float array x (scalar in, float out; array in, array out).

    Summed by `_sum_ratio_array` with the ratio x / ((k+1)(b+k)): every
    term is positive, so the sum carries no cancellation.  A complex or
    negative x raises ValueError.
    """
    _check_not_nonpositive_int(b, "0F1 parameter b")
    if np.iscomplexobj(x):
        raise ValueError("hyp_0f1 takes real arguments")
    xs = np.asarray(x, dtype=float)
    bad = ~(xs >= 0.0)
    if bad.any():
        raise ValueError(f"hyp_0f1 requires x >= 0 (got {xs[bad].flat[0]})")
    return _hyp_0f1_series(b, xs, ctl)


def _hyp_0f1_series(b: float, x, ctl: SeriesControl = DEFAULT_SERIES):
    """The 0F1 series of `hyp_0f1` without its domain checks, so x may be
    complex; it cancels unless |x| stays well below b^2 / 4."""
    return _sum_ratio_array(f"0F1({b!r}; x)", x, lambda k, w: w / ((k + 1.0) * (b + k)), ctl)


def _ratio_depth(x: float) -> int:
    """The level from which `_hyp_0f1_ratios` first sweeps x: 9 x^{1/4} + 8.

    Below c ~ sqrt x a step s_c = 1 + q_c / s_{c+1} narrows the bracket by
    about 1 - c / sqrt x, so after K levels from c ~ 0 its width has
    shrunk by about exp(-K^2 / (2 sqrt x)), and the brackets meet after
    about 8.5 x^{1/4} levels (measured: 16, 27, 47, 86, 153 and 847
    levels at b = 3 and x = 10, 1e2, ..., 1e5, 1e8).  A larger b only
    narrows it sooner.  An estimate that falls short costs a doubled
    sweep, never a different value."""
    return math.floor(9.0 * math.sqrt(math.sqrt(x))) + 8


# The most levels `_hyp_0f1_ratios` sweeps, whatever the budget.  The same
# nearly undamped levels that the brackets need carry each step's rounding
# on, with alternating sign, so the error of D1 and D2 grows as the square
# root of the depth at which they meet.  Against mpmath (b in [0.02, 200]
# drawn log-uniformly, x in [1e6, 1e11]) the 1035 draws that met within
# 1600 levels held 2.9e-15, and 6 of the 665 that needed 1609 to 5000
# levels passed 4e-15 (5.9e-15 at worst).
_RATIO_MAX_LEVELS = 1600


def _hyp_0f1_ratios(b: float, x, ctl: SeriesControl = DEFAULT_SERIES):
    """(rho_b, rho_{b+1}) with rho_c(x) = 0F1(; c+1; x) / 0F1(; c; x), for
    b > 0 and x >= 0 a float (floats out) or a float array (two arrays of
    its shape out).  Neither 0F1 is formed, so nothing under- or overflows.

    From the contiguous relation 0F1(; c; x) - 0F1(; c+1; x) =
    x / (c (c+1)) 0F1(; c+2; x), rho_c = 1 / (1 + q_c rho_{c+1}) with
    q_c = x / (c (c+1)) (DLMF 10.33.1 via 10.39.9), and rho lies in (0, 1].
    The recurrence is swept backward as s_c = 1 / rho_c = 1 + q_c / s_{c+1}
    from level c = b + K, K = `_ratio_depth`(x) capped at the budget
    min(`ctl.max_terms`, `_RATIO_MAX_LEVELS`), twice: from rho = 0
    (s = inf) and from rho = 1 (s = 1).  Each step is decreasing in its
    input and so is every float operation in it, so the two sweeps bracket
    the true rho_{b+1}, and any sweep started deeper lands inside the
    bracket at every level.  The result is accepted when the two agree bit
    for bit at rho_{b+1} (then also at rho_b, one more shared step); so it
    is the same bits at every depth that accepts.  Otherwise K doubles,
    and its last try is the budget itself, so an x is accepted exactly
    when the bracket from the budget's levels meets: at the default
    budget of 1600 levels, up to about x = 1.2e9 at small b (later at
    large b, which meets sooner: 1431 levels at b = 200, x = 1.2e9).
    Else ConvergenceError names x (the first such x of an array) and the
    budget.

    A float runs a pure-Python loop (`_ratio_brackets`); an array runs one
    numpy sweep of all its elements from the K of its largest element
    (`_ratio_brackets_array`), with the float's operations, so each
    element is the float call's value bit for bit and fails where it does.
    """
    budget = min(ctl.max_terms, _RATIO_MAX_LEVELS)
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        depth = min(_ratio_depth(x), budget)
        while True:
            lo, hi = _ratio_brackets(b, x, depth)
            if lo == hi:
                return 1.0 / (1.0 + x / (b * (b + 1.0)) / lo), 1.0 / lo
            if depth == budget:
                raise _ratio_error(b, x, budget)
            depth = min(2 * depth, budget)
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    depth = min(_ratio_depth(flat.max(initial=0.0)), budget)
    while True:
        lo, hi = _ratio_brackets_array(b, flat, depth)
        met = lo == hi
        if met.all() or depth == budget:
            break
        depth = min(2 * depth, budget)
    if not met.all():
        raise _ratio_error(b, flat[np.argmin(met)].item(), budget)
    s0 = 1.0 + flat / (b * (b + 1.0)) / lo
    return (1.0 / s0).reshape(xs.shape), (1.0 / lo).reshape(xs.shape)


def _ratio_error(b: float, x: float, budget: int) -> ConvergenceError:
    return ConvergenceError(f"0F1({b!r}; x) ratios did not converge within "
                            f"{budget} steps at x = {x!r}")


def _ratio_brackets(b: float, x: float, depth: int) -> tuple[float, float]:
    """(s from rho = 0, s from rho = 1) at level b + 1 of the sweep from
    level b + depth, s = 1 / rho_{b+1} (`_hyp_0f1_ratios`)."""
    lo, hi = math.inf, 1.0
    for k in range(depth - 1, 0, -1):
        c = b + k
        q = x / (c * (c + 1.0))
        lo = 1.0 + q / lo
        hi = 1.0 + q / hi
    return lo, hi


def _ratio_brackets_array(b: float, xs: np.ndarray, depth: int):
    """`_ratio_brackets` for every x of the 1-d array `xs` from the same
    depth, as two arrays, each element that call's pair bit for bit.

    Both brackets are swept as one flat row, the sweeps from rho = 0 first
    (a flat row costs less per numpy call than a broadcast (2, n) array).
    q = x / (c (c+1)) is formed for as many levels as fit 2^16 values by
    one division, and each level then costs one division and one addition
    in place."""
    n = xs.size
    x2 = np.concatenate((xs, xs))
    s = np.empty(2 * n)
    s[:n], s[n:] = math.inf, 1.0
    rows = max(1, (1 << 16) // max(2 * n, 1))
    for k in range(depth - 1, 0, -rows):
        c = b + np.arange(float(k), float(max(k - rows, 0)), -1.0)
        for q in x2 / (c * (c + 1.0))[:, None]:
            np.divide(q, s, out=s)
            np.add(s, 1.0, out=s)
    return s[:n], s[n:]

