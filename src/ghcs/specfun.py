"""Certified hypergeometric series: what scipy does not provide.

The 0F1 ascending series is summed within `_MAX_TERMS` terms and raises
`ConvergenceError` when they run out, instead of returning an
uncertified value.  It takes a real scalar or a whole float array and,
like the jacobi normalization, is summed by one array summation
(`_sum_ratio_array`) that reproduces the term-by-term recurrence's values
and stopping rule element by element.  0F1 is the bessel normalization;
complex 0F1 arguments (the phase-space density) go through the modified
Bessel closed form in `dynamics`, or through the same series
(`_hyp_0f1_series`) where that form underflows.  The ratios
0F1(; c+1; x) / 0F1(; c; x) behind the bessel in-state moments and weight
come from a bracketed backward recurrence (`_hyp_0f1_ratios`) that never
forms 0F1 itself, within `_RATIO_MAX_LEVELS` levels, below the
large-argument regime of scipy's `ive` (x >= max(118.64, (b+1)^4 / 16)),
inside which `families.Bessel.derivative_ratios` takes them from `ive`.
This module needs only `math` and numpy: log-gamma, the modified Bessel
functions and the Gauss functions are read from `math` and
`scipy.special` in `families`.
All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "ConvergenceError",
    "hyp_0f1",
]


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to converge within its budget."""


# The budget in terms of both chunked series, read at call time:
# `_sum_ratio_array` (0F1 and the jacobi normalization) and the jacobi
# number-moment series of `thermal`.
_MAX_TERMS = 20000

# Every series' stopping rule: two consecutive terms at most _REL_TOL times
# the partial sum, or _ABS_FLOOR in place of a partial sum that passes
# through zero (alternating series).
_REL_TOL = 1e-15
_ABS_FLOOR = 1e-300


# The array series are summed in numpy chunks: the first holds this many
# terms and each next one twice as many, so a short series costs one chunk
# and a long one a few.
_CHUNK = 64


def _sum_ratio_array(name: str, x, ratio: Callable[[np.ndarray, np.ndarray], np.ndarray]):
    """Sum t0 + t1 + ... with t0 = 1 and t_{k+1} = t_k * ratio(k, x) for
    every element of the scalar or array `x`, real or complex.

    `ratio(k, xs)` gets the float term indices of a chunk as a row and the
    unfinished elements as a column, and returns their ratios as a matrix,
    each formed with the operations of the scalar recurrence it stands
    for.  The terms are summed in chunks of 64, 128, 256, ... indices,
    never past `_MAX_TERMS`: `np.multiply.accumulate` chains each row
    of ratios from the carried term and `np.add.accumulate` builds the
    partial sums from the carried sum.  Both accumulates are sequential,
    so every term and partial sum is the term-by-term loop's own value
    (for complex x up to the last bit of numpy's complex division).

    Stopping rule, per element and unchanged from the loop: an element is
    done after two consecutive |t| <= _REL_TOL * max(|sum|, _ABS_FLOOR), the
    "previous term was small" flag carried across chunks, and done
    elements leave the live set.  At x = 0 the sum is 1 without summing.
    If an element exhausts the budget, ConvergenceError names the series,
    the first such x and the budget `_MAX_TERMS`.

    Scalar in, Python scalar out; array in, array of the same shape out.
    """
    xs = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    flat = xs.ravel()
    out = np.ones_like(flat)  # every term after t0 vanishes at x = 0
    live = np.flatnonzero(flat)
    term, total, small = 1.0, 1.0, False  # carried per live element
    start, size, max_terms = 0, _CHUNK, _MAX_TERMS
    # a term past the float range gives inf (or nan) as in the loop
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size and start < max_terms:
            stop = min(start + size, max_terms)
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
            f"{name} series did not converge within {max_terms} terms "
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


def hyp_0f1(b: float, x):
    """0F1(; b; x) by its ascending series on x >= 0, for a real scalar or
    a float array x (scalar in, float out; array in, array out).

    Summed by `_sum_ratio_array` with the ratio x / ((k+1)(b+k)): every
    term is positive, so the sum carries no cancellation, and it ends
    within 1500 terms for every x <= 1e15 and b <= 1000 (as inf past the
    float range), far inside `_MAX_TERMS`.  A complex or negative x
    raises ValueError.
    """
    _check_not_nonpositive_int(b, "0F1 parameter b")
    if np.iscomplexobj(x):
        raise ValueError("hyp_0f1 takes real arguments")
    xs = np.asarray(x, dtype=float)
    bad = ~(xs >= 0.0)
    if bad.any():
        raise ValueError(f"hyp_0f1 requires x >= 0 (got {xs[bad].flat[0]})")
    return _hyp_0f1_series(b, xs)


def _hyp_0f1_series(b: float, x):
    """The 0F1 series of `hyp_0f1` without its domain checks, so x may be
    complex; it cancels unless |x| stays well below b^2 / 4."""
    return _sum_ratio_array(f"0F1({b!r}; x)", x, lambda k, w: w / ((k + 1.0) * (b + k)))


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


# The budget of `_hyp_0f1_ratios` in levels, read at call time.  The same
# nearly undamped levels that the brackets need carry each step's rounding
# on, with alternating sign, so the error of D1 and D2 grows as the square
# root of the depth at which they meet.  Against mpmath (b in [0.02, 200]
# drawn log-uniformly, x in [1e6, 1e11]) the 1035 draws that met within
# 1600 levels held 2.9e-15, and 6 of the 665 that needed 1609 to 5000
# levels passed 4e-15 (5.9e-15 at worst).
_RATIO_MAX_LEVELS = 1600


def _hyp_0f1_ratios(b: float, x):
    """(rho_b, rho_{b+1}) with rho_c(x) = 0F1(; c+1; x) / 0F1(; c; x), for
    b > 0 and x >= 0 a float (floats out) or a float array (two arrays of
    its shape out).  Neither 0F1 is formed, so nothing under- or overflows.

    From the contiguous relation 0F1(; c; x) - 0F1(; c+1; x) =
    x / (c (c+1)) 0F1(; c+2; x), rho_c = 1 / (1 + q_c rho_{c+1}) with
    q_c = x / (c (c+1)) (DLMF 10.33.1 via 10.39.9), and rho lies in (0, 1].
    The recurrence is swept backward as s_c = 1 / rho_c = 1 + q_c / s_{c+1}
    from level c = b + K, K = `_ratio_depth`(x) capped at the budget
    `_RATIO_MAX_LEVELS`, twice: from rho = 0
    (s = inf) and from rho = 1 (s = 1).  Each step is decreasing in its
    input and so is every float operation in it, so the two sweeps bracket
    the true rho_{b+1}, and any sweep started deeper lands inside the
    bracket at every level.  The result is accepted when the two agree bit
    for bit at rho_{b+1} (then also at rho_b, one more shared step); so it
    is the same bits at every depth that accepts.  Otherwise K doubles,
    and its last try is the budget itself, so an x is accepted exactly
    when the bracket from the budget's levels meets: at its 1600
    levels, up to about x = 1.2e9 at small b (later at
    large b, which meets sooner: 1431 levels at b = 200, x = 1.2e9).
    Else ConvergenceError names x and the budget.

    A float is one call of the per-x routine `_ratio_pair`; an array maps
    it over its elements in order, each from its own start depth, so each
    element is the float call's value bit for bit and the first refused
    element is the one named.
    """
    if isinstance(x, float) or np.ndim(x) == 0:
        return _ratio_pair(b, float(x))
    xs = np.asarray(x, dtype=float)
    pairs = np.array([_ratio_pair(b, v) for v in xs.ravel().tolist()]).reshape(-1, 2)
    return pairs[:, 0].reshape(xs.shape), pairs[:, 1].reshape(xs.shape)


def _ratio_pair(b: float, x: float) -> tuple[float, float]:
    # `_hyp_0f1_ratios` at one float x: sweeps from K, 2K, ... up to the budget
    budget = _RATIO_MAX_LEVELS
    depth = min(_ratio_depth(x), budget)
    while True:
        lo, hi = _ratio_brackets(b, x, depth)
        if lo == hi:
            return 1.0 / (1.0 + x / (b * (b + 1.0)) / lo), 1.0 / lo
        if depth == budget:
            raise ConvergenceError(f"0F1({b!r}; x) ratios did not converge within "
                                   f"{budget} steps at x = {x!r}")
        depth = min(2 * depth, budget)


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
