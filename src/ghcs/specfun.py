"""Certified hypergeometric series: what scipy does not provide.

The 0F1 and 2F1 ascending series are summed term by term under an
explicit `SeriesControl` budget and raise `ConvergenceError` when it runs
out, instead of returning an uncertified value.  The state normalization
sums its h-ratio series with the same stopping rule, the bessel
phase-space density is a ratio of 0F1 values, and the literal
figure-caption weights use 2F1.  Log-gamma, the modified Bessel functions
and the Gauss-function closed form of the jacobi weight density come from
`math` and `scipy.special`.  All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def hyp_2f1(a: float, b: float, c: float, x: float,
            ctl: SeriesControl = DEFAULT_SERIES) -> float:
    """Gauss series 2F1(a, b; c; x) on |x| < 1."""
    _check_not_nonpositive_int(c, "2F1 parameter c")
    if abs(x) >= 1.0:
        raise ValueError(f"hyp_2f1 series requires |x| < 1 (got {x})")
    if x == 0.0:
        return 1.0
    return _sum_ratio_series(
        1.0, lambda k: (a + k) * (b + k) * x / ((c + k) * (k + 1.0)), ctl
    )
