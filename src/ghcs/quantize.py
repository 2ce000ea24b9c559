"""Coherent-state (anti-Wick) quantization of symbols on the label plane.

A symbol f(z) = e^{i p theta} r^k maps to the operator with matrix
elements, after the angular integral selects the single band k = n + p,

    A_f[n, n+p] = (int x^{n + (p+k)/2} omega(x) dx) / (h_n h_{n+p}).

The weighted label integral is the authoritative definition; the closed
forms quoted in the source literature for A_z and A_zbar are built as a
separate provenance and compared in a discrepancy report rather than
asserted, since for the bounded-support family they multiply by the
factor (m+nu+n+1) where the measure-consistent matrix divides by it.

Matrix entries are taken in the sign-free Fock gauge (the alternating
coefficient sign of the bounded-support states amounts to conjugation by
diag((-1)^n) and cancels from every modulus).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .measure import QuadratureRule, _log_moments, radial_rule
from .states import Family, FamilyParams, _log_h_array

__all__ = [
    "Provenance",
    "Symbol",
    "OperatorMatrix",
    "quantize_symbol",
    "ladder_closed_form",
    "commutator",
    "discrepancy_report",
]

_BOUNDARY_WARN = 1e-10


class Provenance(str, Enum):
    QUADRATURE = "quadrature"
    H_RATIO = "h_ratio_closed_form"
    LITERATURE = "literature_closed_form"


@dataclass(frozen=True)
class Symbol:
    """Classical symbol e^{i harmonic theta} r^{radial_power} on the plane."""

    harmonic: int
    radial_power: float
    tag: str = ""

    def __post_init__(self) -> None:
        if self.radial_power < 0.0:
            raise ValueError("radial_power must be non-negative")
        if not self.tag:
            object.__setattr__(self, "tag", f"harmonic{self.harmonic}_r{self.radial_power:g}")

    @classmethod
    def constant(cls) -> "Symbol":
        return cls(0, 0.0, "one")

    @classmethod
    def z(cls) -> "Symbol":
        return cls(1, 1.0, "z")

    @classmethod
    def zbar(cls) -> "Symbol":
        return cls(-1, 1.0, "zbar")

    @classmethod
    def absz2(cls) -> "Symbol":
        return cls(0, 2.0, "absz2")

    @classmethod
    def radial(cls, k: float) -> "Symbol":
        return cls(0, float(k), f"r{k:g}")

    @classmethod
    def angular_harmonic(cls, p: int, k: float) -> "Symbol":
        return cls(int(p), float(k))


@dataclass
class OperatorMatrix:
    """Truncated one-band operator with provenance metadata.

    values holds the entries M[n, n+offset] for n = max(0, -offset) ..
    n_max - max(0, offset), in increasing n; every other entry is zero.
    """

    n_max: int
    offset: int
    values: np.ndarray
    provenance: Provenance
    symbol_tag: str
    params: FamilyParams
    boundary_flagged: bool = False
    truncation_note: str = ""

    def to_dense(self) -> np.ndarray:
        d = np.zeros((self.n_max + 1, self.n_max + 1))
        rows = np.arange(len(self.values)) + max(0, -self.offset)
        d[rows, rows + self.offset] = self.values
        return d

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(
            n_max=self.n_max,
            offset=-self.offset,
            values=self.values.copy(),
            provenance=self.provenance,
            symbol_tag=f"adjoint({self.symbol_tag})",
            params=self.params,
            boundary_flagged=self.boundary_flagged,
        )

    def band(self, offset: int) -> np.ndarray:
        if offset == self.offset:
            return self.values
        return np.zeros(max(self.n_max + 1 - abs(offset), 0))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if len(self.values) else 0.0

    def to_json_dict(self) -> dict:
        return {
            "symbol": self.symbol_tag,
            "family": self.params.family.value,
            "m": self.params.m,
            "nu": self.params.nu,
            "n_max": self.n_max,
            "provenance": self.provenance.value,
            "bands": [{"offset": int(self.offset), "values": [float(v) for v in self.values]}],
        }


def _band_rows(n_max: int, p: int) -> np.ndarray:
    return np.arange(max(0, -p), n_max - max(0, p) + 1)


def quantize_symbol(params: FamilyParams, symbol: Symbol, n_max: int,
                    rule: QuadratureRule | None = None) -> OperatorMatrix:
    """Operator of a symbol through the weighted label integral."""
    if rule is None:
        rule = radial_rule(params)
    p = symbol.harmonic
    k = symbol.radial_power
    if abs(p) > n_max:
        raise ValueError("harmonic exceeds the truncation order")
    rows = _band_rows(n_max, p)
    exps = rows + 0.5 * (p + k)
    low_exp = float(exps.min())
    density_exp = min(0.0, params.b - 1.0)
    if low_exp + density_exp <= -1.0:
        raise ValueError(
            f"symbol {symbol.tag} is not integrable against the measure"
        )
    log_mu = _log_moments(rule, exps)
    log_h = _log_h_array(params, n_max + abs(p))
    vals = np.exp(log_mu - log_h[rows] - log_h[rows + p])
    op = OperatorMatrix(
        n_max=n_max,
        offset=p,
        values=vals,
        provenance=Provenance.QUADRATURE,
        symbol_tag=symbol.tag,
        params=params,
    )
    if len(vals) and abs(vals[-1]) > _BOUNDARY_WARN * op.max_abs():
        op.boundary_flagged = True
        op.truncation_note = (
            f"band entry at the n_max={n_max} boundary is "
            f"{abs(vals[-1]):.3e} of matrix scale; entries past the "
            "truncation are dropped"
        )
    return op


class LadderKind(str, Enum):
    A_Z = "z"
    A_ZBAR = "zbar"
    A_ABSZ2 = "absz2"


_LADDER_OFFSET = {LadderKind.A_Z: 1, LadderKind.A_ZBAR: -1, LadderKind.A_ABSZ2: 0}


def ladder_closed_form(params: FamilyParams, which: LadderKind | str, n_max: int,
                       source: Provenance = Provenance.H_RATIO) -> OperatorMatrix:
    """Closed-form ladder matrices.

    H_RATIO entries are the coefficient ratios h_{n+1}/h_n (and their
    squares on the diagonal for |z|^2), which is what the weighted
    integral gives exactly.  LITERATURE entries are the published
    formulas with their (m+nu+n+1) factors multiplying the square root.
    """
    which = LadderKind(which)
    if source not in (Provenance.H_RATIO, Provenance.LITERATURE):
        raise ValueError("source must be H_RATIO or LITERATURE")
    offset = _LADDER_OFFSET[which]
    # row n of the band: the z band's superdiagonal entry at (n, n+1), the
    # zbar band's subdiagonal entry at (n+1, n), the |z|^2 diagonal at (n, n)
    n = np.arange(n_max + 1 - abs(offset), dtype=float)
    vals = (n + 1.0) * (params.b + n)  # (n+1)(2m+2nu+n)
    if offset:
        vals = np.sqrt(vals)
    if params.family is Family.JACOBI:
        if source is Provenance.H_RATIO:
            # h_{n+1}/h_n, and its square on the diagonal
            shift = params.coeff_shift + n
            vals = vals / shift if offset else vals / shift ** 2
        elif offset:
            # Published forms: the ladder factors -(m+nu+n+1) multiplying
            # the square root belong to the general (jacobi) construction;
            # in the c=1 (bessel) case the published coefficients carry no
            # Pochhammer factor and the ladder reduces to the plain root.
            vals = -(params.a + n + 1.0) * vals
    return OperatorMatrix(
        n_max=n_max,
        offset=offset,
        values=vals,
        provenance=source,
        symbol_tag=which.value,
        params=params,
    )


def commutator(op_a: OperatorMatrix, op_b: OperatorMatrix) -> OperatorMatrix:
    """[A, B] = AB - BA on the common truncation: one band, at the sum of
    the two offsets (empty when that passes n_max).

    Entries whose products reach past the truncation edge are wrong in
    any finite matrix representation; the rows/columns within one band
    width of n_max are flagged accordingly.
    """
    if op_a.n_max != op_b.n_max:
        raise ValueError("operator truncations do not match")
    da, db = op_a.to_dense(), op_b.to_dense()
    offset = op_a.offset + op_b.offset
    width = max(abs(op_a.offset), abs(op_b.offset))
    return OperatorMatrix(
        n_max=op_a.n_max,
        offset=offset,
        values=np.diagonal(da @ db - db @ da, offset=offset).copy(),
        provenance=op_a.provenance,
        symbol_tag=f"[{op_a.symbol_tag},{op_b.symbol_tag}]",
        params=op_a.params,
        boundary_flagged=True,
        truncation_note=(
            f"rows within {width} of the truncation edge are affected by "
            "the cut"
        ),
    )


def _band_diff(x: OperatorMatrix, y: OperatorMatrix) -> tuple[float, float]:
    """(max abs diff, max rel diff) over the bands of both operators."""
    worst_abs = 0.0
    worst_rel = 0.0
    for o in {x.offset, y.offset}:
        vx = x.band(o)
        vy = y.band(o)
        n = min(len(vx), len(vy))
        if n == 0:
            continue
        d = np.abs(vx[:n] - vy[:n])
        scale = np.maximum(np.maximum(np.abs(vx[:n]), np.abs(vy[:n])), 1e-300)
        worst_abs = max(worst_abs, float(d.max()))
        worst_rel = max(worst_rel, float((d / scale).max()))
    return worst_abs, worst_rel


def discrepancy_report(params: FamilyParams, n_max: int = 16,
                       rule: QuadratureRule | None = None) -> dict:
    """Per-symbol comparison of the three matrix provenances.

    The quadrature matrices are authoritative; equality with the h-ratio
    forms is the oracle-level assertion, and the deviation of the
    published closed forms is quantified but never treated as a failure.
    """
    if rule is None:
        rule = radial_rule(params)
    return _ladder_report(params, n_max, rule)[1]


def _ladder_report(params: FamilyParams, n_max: int,
                   rule: QuadratureRule) -> tuple[list[OperatorMatrix], dict]:
    """The quadrature z, zbar and |z|^2 operators, each built once, and
    `discrepancy_report`'s report on them."""
    report: dict = {
        "family": params.family.value,
        "m": params.m,
        "nu": params.nu,
        "n_max": n_max,
        "n_nodes": rule.n_nodes,
        "symbols": {},
    }
    # in LadderKind's order
    quads = [quantize_symbol(params, symbol, n_max, rule)
             for symbol in (Symbol.z(), Symbol.zbar(), Symbol.absz2())]
    agree_all = True
    for quad, ladder in zip(quads, LadderKind):
        hr = ladder_closed_form(params, ladder, n_max, Provenance.H_RATIO)
        lit = ladder_closed_form(params, ladder, n_max, Provenance.LITERATURE)
        abs_qh, rel_qh = _band_diff(quad, hr)
        abs_ql, rel_ql = _band_diff(quad, lit)
        ratio = None
        if len(quad.values):  # lit has the same band and length
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = [float(r) for r in (lit.values / quad.values)[:6]]
        lit_agrees = rel_ql <= 1e-7
        agree_all = agree_all and lit_agrees
        report["symbols"][quad.symbol_tag] = {
            "max_abs_quadrature_vs_h_ratio": abs_qh,
            "max_rel_quadrature_vs_h_ratio": rel_qh,
            "max_abs_quadrature_vs_literature": abs_ql,
            "max_rel_quadrature_vs_literature": rel_ql,
            "literature_agrees": lit_agrees,
            "literature_over_quadrature_leading": ratio,
        }
    report["all_provenances_agree"] = agree_all
    return quads, report
