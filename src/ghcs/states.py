"""Coherent-state families, Fock coefficients, normalization and overlaps.

A family is fixed by a non-negative integer m and a real nu > 0.  Writing
a = m + nu and b = 2m + 2nu, the states are
|z> = N(|z|^2)^{-1/2} sum_n s_n z^n / h_n |n> with N(x) = sum_n x^n / h_n^2,
and each family's h_n, sign s_n, N and label domain are its formulas'
(`ghcs.families`), reached through `FamilyParams.formulas`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import families, specfun

__all__ = [
    "Family",
    "FamilyParams",
    "FockVector",
    "log_coeff_h",
    "normalization",
    "state",
    "StateMatrix",
    "state_matrix",
    "overlap",
]


class Family(str, Enum):
    BESSEL = "bessel"
    JACOBI = "jacobi"


_FORMULAS = {Family.BESSEL: families.BESSEL, Family.JACOBI: families.JACOBI}


@dataclass(frozen=True)
class FamilyParams:
    """Model parameters (m, nu) plus the family selector, whose formulas
    every consumer reads through `formulas`; a jacobi h_n divides by
    (m+nu+1)_n, from the coefficient (-m-n-nu)_n."""

    m: int
    nu: float
    family: Family = Family.BESSEL

    def __post_init__(self) -> None:
        m = self.m  # inf and nan are not integers; 10**400 is, but its b is not finite
        integral = isinstance(m, numbers.Integral) or math.isfinite(m) and m == int(m)
        if not (integral and m >= 0):
            raise ValueError("m must be a non-negative integer")
        object.__setattr__(self, "m", int(m))
        if not (self.nu > 0.0):
            raise ValueError("nu must be positive")
        object.__setattr__(self, "family", Family(self.family))
        try:
            b = self.b  # positive, as m >= 0 and nu > 0
        except OverflowError:  # 2m past the float range
            b = math.inf
        if not b < math.inf:
            raise ValueError("2m + 2nu must be finite")
        # hashed once, as every table cache lookup hashes the params;
        # from ints, floats and bools, whose hashes do not vary between
        # processes, so an unpickled copy keeps a valid one
        object.__setattr__(self, "_hash", hash((self.m, self.nu, self.family is Family.JACOBI)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def formulas(self):
        """The family's formulas, `families.BESSEL` or `families.JACOBI`,
        looked up on each read (never stored: params are pickled)."""
        return _FORMULAS[self.family]

    @property
    def coeff_shift(self) -> float:
        """m + nu + 1, the first argument of the jacobi h_n's rising factorial."""
        return self.m + self.nu + 1.0

    @property
    def a(self) -> float:
        """m + nu."""
        return self.m + self.nu

    @property
    def b(self) -> float:
        """2m + 2nu, the 0F1 / Pochhammer denominator parameter."""
        return 2.0 * self.m + 2.0 * self.nu

    @property
    def mu(self) -> float:
        """mu = 2 nu."""
        return 2.0 * self.nu

    @property
    def radius(self) -> float:
        """Label-domain radius: infinite for bessel, 1 for jacobi."""
        return self.formulas.RADIUS

    def require_label(self, z: complex) -> complex:
        z = complex(z)
        if not abs(z) < self.radius:
            raise ValueError(
                f"label |z| = {abs(z):g} outside the open domain of radius "
                f"{self.radius:g} for the {self.family.value} family"
            )
        return z


@dataclass(frozen=True)
class FockVector:
    """Truncated complex coefficient vector in the number basis."""

    coeffs: np.ndarray
    n_max: int
    tail_bound: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", np.asarray(self.coeffs, dtype=complex)
        )
        if self.coeffs.shape != (self.n_max + 1,):
            raise ValueError("coeffs must have length n_max + 1")
        if self.tail_bound < 0.0:
            raise ValueError("tail_bound must be non-negative")

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)


def log_coeff_h(params: FamilyParams, n: int) -> float:
    """log h_n, read from the family's cached table (log space dodges overflow)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return float(_log_h_array(params, n)[n])


def _log_h_array(params: FamilyParams, n_max: int) -> np.ndarray:
    """Read-only log h_n for n = 0..n_max, a prefix of the params' table."""
    return _log_h_table(params, n_max)[: n_max + 1]


def _log_h_table(params: FamilyParams, n_max: int) -> np.ndarray:
    """The params' read-only table of log h_n, grown to the next power of two
    >= n_max if it is shorter.  Growing computes only the new entries, from
    the running sum the last growth left (jacobi), so each entry is computed
    once per params and a table grown in pieces equals one built at once bit
    for bit, whatever order sizes are read in.  The 32 most recent params
    keep their tables; at the n_max cap of 32768 that is at most
    32 x 32769 x 8 B, about 8.4 MB."""
    store = _log_h_store(params)
    table, carry = store[0]  # one slot, so a reader sees a table with its own carry
    if len(table) <= n_max:
        def entries(start, stop):
            nonlocal carry
            lg, carry = params.formulas.log_h_entries(params, start, stop, carry)
            return lg

        table = _grown(table, n_max, entries)
        store[0] = table, carry
    return table


def _grown(table: np.ndarray, n_max: int, entries) -> np.ndarray:
    """A read-only copy of `table` (shorter than n_max + 1) grown to the next
    power of two >= n_max, its new indices start..stop computed by
    entries(start, stop)."""
    size = 1 << max(int(n_max) - 1, 0).bit_length()  # next power of two >= n_max
    out = np.concatenate([table, entries(len(table), size)])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _log_h_store(params: FamilyParams) -> list:
    # one slot holding the params' table, which starts as log h_0 = 0, and
    # the running sum (sum, compensation) that continues it
    lg = np.zeros(1)
    lg.flags.writeable = False
    return [(lg, (0.0, 0.0))]


def normalization(params: FamilyParams, x):
    """N(x) = sum_n x^n / h_n^2 for real x = |z|^2 in the family domain
    [0, radius^2); scalar in, float out; array in, array out.

    The family's `normalization` sums it (bessel `specfun.hyp_0f1`, jacobi
    the h-ratio recurrence), both through `specfun._sum_ratio_array`: the
    term-by-term values, stopping rule and budget, per element.  An x
    outside the domain raises ValueError; an N past the float range (bessel
    x above about 1.3e5) raises OverflowError naming the family and the
    first such x.
    """
    xs = _norm_args(params, x)
    out = params.formulas.normalization(params, xs)
    inf = ~np.isfinite(out)
    if inf.any():
        raise OverflowError(f"the {params.family.value} normalization passes the float "
                            f"range at x = {float(xs[inf].flat[0])!r}")
    return out


def _norm_args(params: FamilyParams, x) -> np.ndarray:
    """x as a float array, every element in the normalization domain
    [0, radius^2); else the ValueError of `_norm_arg` for the first that
    is not."""
    xs = np.asarray(x, dtype=float)
    bad = ~((xs >= 0.0) & (xs < params.radius**2))
    if bad.any():
        _norm_arg(params, xs[bad][0])  # raises, naming the value
    return xs


def _norm_arg(params: FamilyParams, w: float) -> float:
    """w as a float inside the normalization domain [0, radius^2), else
    ValueError."""
    w = float(w)
    if w < 0.0:
        raise ValueError("normalization argument must be >= 0")
    if not w < params.radius**2:
        raise ValueError(
            f"argument magnitude {w:g} outside the normalization domain "
            f"[0, {params.radius**2:g}) of the {params.family.value} family"
        )
    return w


_N_MAX_DEFAULT = 128
_N_MAX_CAP = 32768
_TAIL_TARGET = 1e-12
_TAIL_REQUIRED = 1e-10


class StateMatrix(NamedTuple):
    """Coherent states as the rows of one array: row i holds label i's
    state in its first n_max[i] + 1 entries and zeros after them, and
    tail_bound[i] is the certified l2 mass its truncation discards.  The
    coefficients are read-only."""

    coeffs: np.ndarray
    n_max: np.ndarray
    tail_bound: np.ndarray


def state(params: FamilyParams, z: complex, n_max: int | None = None) -> FockVector:
    """Normalized truncated coherent state at label z: row 0 of
    `state_matrix(params, [z], n_max)`.

    With n_max omitted the truncation is the first of 128, 256, ... at
    which the discarded l2 mass is certified below 1e-12.  An explicit
    n_max that leaves more than 1e-10 in the tail raises, reporting the
    order that would have sufficed.  An explicit n_max must be a
    non-negative integer.  Every call builds the state (nothing is
    cached); the returned coeffs are read-only.
    """
    rows = state_matrix(params, [z], n_max)
    return FockVector(rows.coeffs[0], int(rows.n_max[0]), float(rows.tail_bound[0]))


def state_matrix(params: FamilyParams, labels, n_max: int | None = None) -> StateMatrix:
    """The states of many labels, each built once: row i equals
    `state(params, labels[i], n_max)` bit for bit, with the same n_max and
    tail_bound.

    With n_max omitted each label's truncation is picked before any
    coefficient or phase is formed: the moduli |z|^n / h_n are extended
    128, 256, ... terms at a time, each size judged by the tail certificate
    on the moduli so far, for all the labels still open at once (their
    masses, tail majorants and norms are array expressions over the rows),
    and only the size taken gets its phases and normalization.  A label
    whose tail stays above 1e-12 at the cap of 32768 terms raises
    ConvergenceError, and one whose norm leaves the float range (bessel,
    from about |z| = 362 at m = 1, nu = 0.5) raises OverflowError; both name
    the family, m, nu and |z|.  An explicit n_max applies to every row, with
    `state`'s tail check.
    """
    if n_max is not None and not (isinstance(n_max, numbers.Integral) and n_max >= 0):
        raise ValueError(f"n_max must be a non-negative integer, got {n_max!r}")
    n_max = None if n_max is None else int(n_max)
    zs = [params.require_label(z) for z in labels]
    coeffs, sizes, tails = _build_rows(params, zs, n_max)
    if n_max is not None:
        _require_tail(params, zs, tails)
    return StateMatrix(coeffs, np.array(sizes, dtype=int), np.array(tails))


def _require_tail(params: FamilyParams, zs: list[complex], tails: list[float]) -> None:
    # an explicit n_max must leave at most 1e-10 in every tail
    for z, tail in zip(zs, tails):
        if tail > _TAIL_REQUIRED:
            raise ValueError(
                f"truncation error {tail:.2e} exceeds {_TAIL_REQUIRED:g}; "
                f"larger n_max required "
                f"(n_max = {_build_rows(params, [z], None)[1][0]} suffices)"
            )


def _build_rows(params: FamilyParams, zs: list[complex], n_max: int | None):
    """(coeffs, n_max list, tail_bound list) of `state_matrix` on validated
    labels, without the explicit-n_max tail check.

    The per-label scalars |z|, log|z| and arg z come from Python's `abs`,
    `math.log` and `math.atan2` (numpy's differ in the last bit).  Each
    size is judged on all the rows still open at once: their masses are
    one `np.vecdot`, their tail bounds and norms one array expression
    (`_tail_bounds`), and the rows kept get their phases and normalization
    as one matrix; a single row's values are scalars, which numpy handles
    without its array set-up.  Every row is the single-label build's value
    bit for bit.  A modulus or norm past the float range raises
    OverflowError naming the family, m, nu and the first such |z|.
    """
    n = _N_MAX_DEFAULT if n_max is None else n_max
    sizes, tails = [n] * len(zs), [0.0] * len(zs)
    live = [i for i, z in enumerate(zs) if z]
    blocks = []
    if len(live) < len(zs):  # z = 0: e_0, exactly normalized with no tail
        vacua = [i for i, z in enumerate(zs) if not z]
        e0 = np.zeros((len(vacua), n + 1), dtype=complex)
        e0[:, 0] = 1.0
        blocks.append((vacua, e0))
    mags = [abs(zs[i]) for i in live]
    # a modulus or mass past the float range is inf, and raises below; a
    # diverging majorant's tail is inf too (see `_tail_bounds`)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mods = _moduli(params, [math.log(r) for r in mags], 0, n)
        while live:
            # one row as a 1-d row, whose mass and last modulus (.T[-1])
            # are then scalars
            open_mods = mods[0] if len(live) == 1 else mods
            mass = np.vecdot(open_mods, open_mods)
            share, norm = _tail_bounds(params, _per_row(mags), open_mods.T[-1], mass, n)
            masses, shares = _as_list(mass), _as_list(share)
            if not max(masses) < math.inf:
                raise OverflowError(
                    f"state norm leaves the float range at n_max = {n}: "
                    f"{params.family.value} m = {params.m}, nu = {params.nu:g}, "
                    f"|z| = {mags[masses.index(math.inf)]!r}"
                )
            keep, rest = [], []
            for j, t in enumerate(shares):
                if n_max is None and not t < _TAIL_TARGET:
                    rest.append(j)
                    continue
                keep.append(j)
                # a diverging majorant's share inf / inf is nan: the bound
                # is the whole mass
                sizes[live[j]], tails[live[j]] = n, t if t < 1.0 else 1.0
            if keep:
                picked = [live[j] for j in keep] if rest else live
                theta = [math.atan2(zs[i].imag, zs[i].real) for i in picked]
                rows = _terms(params, mods[keep] if rest else mods, theta, n)
                rows /= norm if len(live) == 1 else norm[keep][:, None]
                blocks.append((picked, rows))
            if not rest:
                break
            if 2 * n > _N_MAX_CAP:
                raise specfun.ConvergenceError(
                    f"state truncation stalled above tail {_TAIL_TARGET:g} at the "
                    f"n_max cap of {_N_MAX_CAP}: {params.family.value} m = {params.m}, "
                    f"nu = {params.nu:g}, |z| = {mags[rest[0]]!r}"
                )
            live, mags = [live[j] for j in rest], [mags[j] for j in rest]
            more = _moduli(params, [math.log(r) for r in mags], n + 1, 2 * n)
            mods = np.concatenate([mods[rest], more], axis=1)
            n *= 2
    if len(blocks) == 1:  # one size: the rows are the labels in order
        out = blocks[0][1]
    else:
        out = np.zeros((len(zs), max(sizes, default=0) + 1), dtype=complex)
        for picked, rows in blocks:
            out[picked, : rows.shape[1]] = rows
    out.flags.writeable = False
    return out, sizes, tails


def _tail_bounds(params: FamilyParams, mag, last, mass, n: int):
    """(tail share, norm) of rows truncated at n, from |z|, the last modulus
    |z|^n / h_n and the mass sum_{k <= n} |z^k / h_k|^2 of each: scalars
    or arrays alike.

    The tail sum_{k > n} |z^k / h_k|^2 has the geometric majorant
    last^2 r^2 / (1 - r^2), with r the ratio |c_{k+1} / c_k| at k = n + 1,
    which is decreasing in k for both families (the family's `tail_ratio`).  The share is the tail's
    part of mass + tail, and the norm the square root of that sum.  A
    diverging majorant (r >= 1) certifies nothing: its tail and norm are
    inf and its share inf / inf, nan.
    """
    k = n + 1.0
    rho = params.formulas.tail_ratio(params, mag, k)
    r2 = rho * rho
    # last^2 by libm pow, as a single row's scalar `** 2`: numpy squares an
    # array, which differs in the last bit for about one value in a thousand;
    # the divisor 1 - r^2 is made 0.0 where r >= 1, so that tail is inf
    last2 = last**2 if isinstance(last, float) else np.float_power(last, 2.0)
    tail = last2 * r2 / (abs(1.0 - r2) * (rho < 1.0))
    total = mass + tail
    return tail / total, np.sqrt(total)


def _as_list(values) -> list:
    """Per-row values, numpy scalar or array, as a list of Python scalars."""
    return values.tolist() if values.ndim else [values.item()]


def _moduli(params: FamilyParams, logs: list[float], start: int, stop: int) -> np.ndarray:
    """|z|^n / h_n for n = start..stop, one row per log|z| in `logs`."""
    x = _index_row(stop)[:, start:] * _column(logs)
    x -= _log_h_table(params, stop)[None, start : stop + 1]
    return np.exp(x, out=x)


def _terms(params: FamilyParams, mods: np.ndarray, theta: list[float],
           n_max: int) -> np.ndarray:
    """The unnormalized coefficients s_n z^n / h_n, n = 0..n_max, from the
    moduli rows and each label's arg z in `theta` (a new array)."""
    terms = _imag_index_row(n_max) * _column(theta)
    np.exp(terms, out=terms)
    # the (signed) moduli stay the first factor: numpy's complex multiply fuses
    # a multiply-add, so swapping the operands flips the sign of underflowed zeros
    return np.multiply(params.formulas.signed(mods, n_max), terms, out=terms)


def _column(values: list[float]):
    """Per-row values as a column against the n axis; one row's value as a
    scalar, which numpy applies to the (1, n) rows without its broadcasting
    set-up (the values are the same)."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _per_row(values: list[float]):
    """Per-row values as an array; one row's value as a scalar, as
    `_column` gives it."""
    return values[0] if len(values) == 1 else np.array(values)


@lru_cache(maxsize=16)
def _index_row(n_max: int) -> np.ndarray:
    # [[0.0, 1.0, ..., n_max]], shared read-only
    n = np.arange(n_max + 1, dtype=float)[None, :]
    n.flags.writeable = False
    return n


@lru_cache(maxsize=16)
def _imag_index_row(n_max: int) -> np.ndarray:
    # 1j * n, the phase exponents before the factor arg z
    n = 1j * _index_row(n_max)
    n.flags.writeable = False
    return n


def _series_terms(params: FamilyParams, z: complex, n_max: int) -> np.ndarray:
    """The unnormalized coefficients s_n z^n / h_n for n = 0..n_max at one
    label (the unit vector e_0 at z = 0)."""
    if not z:
        e0 = np.zeros(n_max + 1, dtype=complex)
        e0[0] = 1.0
        return e0
    mods = _moduli(params, [math.log(abs(z))], 0, n_max)
    return _terms(params, mods, [math.atan2(z.imag, z.real)], n_max)[0]


def _pair_overlap(c1: np.ndarray, n1, c2: np.ndarray, n2,
                  weights: np.ndarray | None = None) -> np.ndarray:
    """sum_n conj(c1_n) c2_n w_n over each row pair's common truncation
    n <= min(n1, n2); w_n = 1 when `weights` is None: the pairwise and
    weighted sums of two stacks of rows (2-D c1, c2 and per-row
    truncations n1, n2; every row against every row is `_block_overlaps`),
    one numpy complex per row pair.  The rows that share a common
    truncation are summed by one `np.vecdot`, which equals the per-row
    `np.vdot` bit for bit and, unlike a stacked `matmul`, needs no
    conjugated copy; when every row shares it, the rows are read in place.
    Take moduli with the scalar `abs` on each element (`.tolist()`):
    numpy's array `abs` differs from it in the last bit for about a third
    of the values.
    """
    common = np.minimum(n1, n2) + 1
    out = np.empty(len(common), dtype=complex)
    for n in np.unique(common).tolist():
        rows = np.flatnonzero(common == n)
        if len(rows) == len(common):
            rows = slice(None)
        b = c2[rows, :n] if weights is None else c2[rows, :n] * weights[:n]
        out[rows] = np.vecdot(c1[rows, :n], b)
    return out


def _block_overlaps(rows1: list, rows2: list) -> np.ndarray:
    """The matrix vdot(a[:n], b[:n]) of every row a of rows1 with every row
    b of rows2 (1-D coefficient arrays, each n_max + 1 long) over the pair's
    common truncation n = min(len(a), len(b)).  Each side's rows are
    stacked by truncation, and each pair of stacks is one `np.vecdot` over
    views, which equals the pair's `np.vdot` bit for bit."""
    sides = []
    for rows in (rows1, rows2):
        at = {}
        for i, c in enumerate(rows):
            at.setdefault(len(c), []).append(i)
        sides.append([(idx, np.stack([rows[i] for i in idx])) for idx in at.values()])
    out = np.empty((len(rows1), len(rows2)), dtype=complex)
    for at1, a in sides[0]:
        for at2, b in sides[1]:
            n = min(a.shape[1], b.shape[1])
            out[np.ix_(at1, at2)] = np.vecdot(a[:, None, :n], b[None, :, :n])
    return out


def overlap(params: FamilyParams, z1, z2):
    """<z1 | z2> by the coefficient series, over the pair's common
    truncation: two labels give one complex, label arrays or lists the
    matrix <z1[i] | z2[j]> of shape shape(z1) + shape(z2), summed by
    `_block_overlaps`.  Each distinct label is built once by `state`, in
    order of first appearance (z1 first); -0.0 and 0.0, which compare equal
    but give atan2 phases of -pi and pi, are different labels."""
    z1s, z2s = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
    built = {}  # label bits -> its coefficients

    def coeffs(z: complex) -> np.ndarray:
        key = (z.real, z.imag, math.copysign(1.0, z.real), math.copysign(1.0, z.imag))
        if key not in built:
            built[key] = state(params, z).coeffs
        return built[key]

    rows = [[coeffs(z) for z in zs.ravel().tolist()] for zs in (z1s, z2s)]
    out = _block_overlaps(*rows).reshape(z1s.shape + z2s.shape)
    return complex(out) if out.ndim == 0 else out
