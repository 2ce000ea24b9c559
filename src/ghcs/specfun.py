"""Certified hypergeometric series: what scipy does not provide.

The 0F1 and 2F1 ascending series are summed under an explicit
`SeriesControl` budget and raise `ConvergenceError` when it runs out,
instead of returning an uncertified value.  0F1 takes complex arguments
and is summed term by term.  2F1 and the state normalization take a real
scalar or a whole float array and share one array summation
(`_sum_ratio_array`) that reproduces the term-by-term values and stopping
rule element by element.  The bessel phase-space density is a ratio of
0F1 values, and the literal figure-caption weights use 2F1.  Log-gamma,
the modified Bessel functions and the Gauss-function closed form of the
jacobi weight density come from `math` and `scipy.special`.  All
functions are pure and safe to call concurrently.
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
    "hyp_2f1",
]


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to converge within its budget."""


# ---------------------------------------------------------------------------
# Truncation controls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesControl:
    """Stopping rule for the infinite series used throughout.

    max_terms:  hard budget of summed terms.
    rel_tol:    target relative size of the final terms.
    abs_floor:  guard used in place of the partial sum when the latter
                passes through zero (alternating series).
    """

    max_terms: int = 20000
    rel_tol: float = 1e-15
    abs_floor: float = 1e-300

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must lie strictly between 0 and 1")
        if self.abs_floor <= 0.0:
            raise ValueError("abs_floor must be positive")


DEFAULT_SERIES = SeriesControl()


def _sum_ratio_series(first_term, ratio, ctl: SeriesControl):
    """Sum t0 + t1 + ... where t_{k+1} = t_k * ratio(k).

    Stops only after two consecutive terms fall below rel_tol relative
    to the running sum, so an accidental zero of an alternating term
    cannot end the summation early.
    """
    term = first_term
    total = term
    small = 0
    for k in range(ctl.max_terms):
        term = term * ratio(k)
        total += term
        if abs(term) <= ctl.rel_tol * max(abs(total), ctl.abs_floor):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"series did not converge within {ctl.max_terms} terms "
        f"(last |term| = {abs(term):.3e})"
    )


# The array series are summed in numpy chunks: the first holds this many
# terms and each next one twice as many, so a short series costs one chunk
# and a long one a few.
_CHUNK = 64


def _sum_ratio_array(name: str, x, ratio: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     ctl: SeriesControl):
    """Sum t0 + t1 + ... with t0 = 1 and t_{k+1} = t_k * ratio(k, x) for
    every element of the real scalar or float array `x`.

    `ratio(k, xs)` gets the float term indices of a chunk as a row and the
    unfinished elements as a column, and returns their ratios as a matrix
    formed with `_sum_ratio_series`'s association.  The terms are summed in
    chunks of 64, 128, 256, ... indices, never past `ctl.max_terms`:
    `np.multiply.accumulate` chains each row of ratios from the carried
    term and `np.add.accumulate` builds the partial sums from the carried
    sum.  Both accumulates are sequential, so every term and partial sum
    is the term-by-term loop's own value.

    Stopping rule, per element and unchanged from the loop: an element is
    done after two consecutive |t| <= rel_tol * max(|sum|, abs_floor), the
    "previous term was small" flag carried across chunks, and done
    elements leave the live set.  At x = 0 the sum is 1 without summing.
    If an element exhausts the budget, ConvergenceError names the series,
    the first such x and the budget.

    Scalar in, float out; array in, array of the same shape out.
    """
    xs = np.asarray(x, dtype=float)
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
            sums = np.empty((live.size, stop - start + 1))
            sums[:, 0] = total
            sums[:, 1:] = terms
            np.add.accumulate(sums, axis=1, out=sums)
            # tiny[:, j + 1]: terms[:, j] is small; tiny[:, 0] is carried over
            tiny = np.empty(sums.shape, dtype=bool)
            tiny[:, 0] = small
            np.less_equal(
                np.abs(terms),
                ctl.rel_tol * np.maximum(np.abs(sums[:, 1:]), ctl.abs_floor),
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
            f"at x = {float(flat[live[0]])!r}"
        )
    if xs.ndim == 0:
        return float(out[0])
    return out.reshape(xs.shape)


# ---------------------------------------------------------------------------
# Hypergeometric series
# ---------------------------------------------------------------------------

def _check_not_nonpositive_int(value: float, name: str) -> None:
    if value <= 0.0 and value == math.floor(value):
        raise ValueError(f"{name} must not be a non-positive integer (got {value})")


def hyp_0f1(b: float, x, ctl: SeriesControl = DEFAULT_SERIES):
    """0F1(; b; x) by its ascending series.

    `x` may be complex (used for kernel evaluations at cross products of
    labels); real arguments must be non-negative.
    """
    _check_not_nonpositive_int(b, "0F1 parameter b")
    if not isinstance(x, complex):
        if x < 0.0:
            raise ValueError("hyp_0f1 requires x >= 0 for real arguments")
        if x == 0.0:
            return 1.0
    return _sum_ratio_series(1.0 * (x * 0 + 1), lambda k: x / ((k + 1.0) * (b + k)), ctl)


def hyp_2f1(a: float, b: float, c: float, x, ctl: SeriesControl = DEFAULT_SERIES):
    """Gauss series 2F1(a, b; c; x) on |x| < 1, for a real scalar or a
    float array x (scalar in, float out; array in, array out).

    Summed by `_sum_ratio_array` with the ratio
    ((a+k)(b+k)) x / ((c+k)(k+1)): the term-by-term values, stopping rule
    and `ctl` budget, per element.
    """
    _check_not_nonpositive_int(c, "2F1 parameter c")
    xs = np.asarray(x, dtype=float)
    bad = ~(np.abs(xs) < 1.0)
    if bad.any():
        raise ValueError(f"hyp_2f1 series requires |x| < 1 (got {xs[bad].flat[0]})")
    return _sum_ratio_array(
        f"2F1({a!r}, {b!r}; {c!r}; x)", xs,
        lambda k, w: (a + k) * (b + k) * w / ((c + k) * (k + 1.0)), ctl,
    )
