"""Certified hypergeometric series: what scipy does not provide.

The 0F1 and 2F1 ascending series are summed under an explicit
`SeriesControl` budget and raise `ConvergenceError` when it runs out,
instead of returning an uncertified value.  Both take a real scalar or a
whole float array and, like the jacobi normalization, are summed by one
array summation (`_sum_ratio_array`) that reproduces the term-by-term
recurrence's values and stopping rule element by element.  0F1 is the
bessel normalization; complex 0F1 arguments (the phase-space density) go
through the modified Bessel closed form in `dynamics`, or through the same
series (`_hyp_0f1_series`) where that form underflows.  2F1 is the
certified series the tests hold scipy's Gauss function to, which the
figure-caption weights use.  Log-gamma, the modified Bessel functions and
the jacobi weight density's Gauss-function form come from `math` and
`scipy.special`.  All functions are pure and safe to call concurrently.
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
    done after two consecutive |t| <= rel_tol * max(|sum|, abs_floor), the
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
