"""Spectrum, time evolution, phase-space density and temporal stability.

Evolution multiplies the n-th amplitude by exp(-i e_n t) with
e_n = n (n + 2m + 2nu - 1).  Splitting e_n = n^2 + n (2m + 2nu - 1) and
absorbing the n^2 phase into a rotated number basis turns the evolution
into the plane rotation z -> z exp(-i (2m + 2nu - 1) t): in that basis an
evolved state is again a coherent state with a rotated label, which is
what the temporal-stability residual checks amplitude by amplitude.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import specfun
from .states import Family, FamilyParams, FockVector, _block_overlaps, state, state_matrix

__all__ = [
    "Spectrum",
    "evolve",
    "density_static",
    "density_evolved",
    "rotation_property",
    "rotation_frequency",
    "polar_density_rows",
]


@dataclass(frozen=True)
class Spectrum:
    """Energy levels above the ground state, e_0 = 0, strictly increasing."""

    params: FamilyParams

    def levels(self, n_max: int) -> np.ndarray:
        n = np.arange(n_max + 1, dtype=float)
        return n * (n + self.params.b - 1.0)


def rotation_frequency(params: FamilyParams) -> float:
    """The label-rotation frequency 2m + 2nu - 1."""
    return params.b - 1.0


def evolve(params: FamilyParams, fock: FockVector, t: float) -> FockVector:
    """Phase evolution amplitude_n -> exp(-i e_n t) amplitude_n."""
    phases = np.exp(-1j * Spectrum(params).levels(fock.n_max) * t)
    return FockVector(
        coeffs=fock.coeffs * phases, n_max=fock.n_max, tail_bound=fock.tail_bound
    )


def _require_bessel(params: FamilyParams, what: str) -> None:
    if params.family is not Family.BESSEL:
        raise ValueError(f"{what} uses the bessel-family closed form")


def _labels(params: FamilyParams, z) -> np.ndarray:
    zs = np.asarray(z, dtype=complex)
    for w in zs[~(np.abs(zs) < params.radius)].flat[:1]:
        params.require_label(w)  # raises, naming the label
    return zs


def density_static(params: FamilyParams, z0, z):
    """Probability density |<z | z0>|^2 = |0F1(b; w)|^2 / (N(|z|^2) N(|z0|^2))
    at w = conj(z) z0, N(x) = 0F1(b; x); z0 and z broadcast (scalars in,
    float out; arrays in, array out).

    0F1(b; w) = Gamma(b) w^{(1-b)/2} I_{b-1}(2 sqrt w) (DLMF 10.39.9), in
    log space with `scipy.special.ive`, does not cancel as the series does
    at large complex w.  Where I_{b-1} is 0 or below the float range (w = 0,
    or b above about 36 with small |w|), |w| is far below b^2 / 4 and the
    series itself (`specfun._hyp_0f1_series`) is summed.  The denominators
    are the certified `specfun.hyp_0f1`; an N past the float range (|z|^2
    above about 1.2e5) raises OverflowError naming the label.
    """
    _require_bessel(params, "density_static")
    z0, z, b = _labels(params, z0), _labels(params, z), params.b
    n_z, n_z0 = (specfun.hyp_0f1(b, np.abs(v) ** 2) for v in (z, z0))
    ok = np.isfinite(n_z) & np.isfinite(n_z0)
    if not ok.all():
        at = [complex(np.broadcast_to(v, ok.shape).flat[np.argmin(ok)]) for v in (z0, z)]
        raise OverflowError("density_static: N(|z|^2) N(|z0|^2) leaves the float "
                            f"range at z0 = {at[0]!r}, z = {at[1]!r}")
    w = np.conj(z) * z0
    s = np.sqrt(w)
    bessel = np.abs(special.ive(b - 1.0, 2.0 * s))
    low = (w == 0.0) | (bessel < np.finfo(float).tiny)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_num = np.where(low, 0.0, math.lgamma(b) + (1.0 - b) * np.log(np.abs(s))
                           + np.log(bessel) + 2.0 * np.abs(s.real))
    log_num[low] = np.log(np.abs(specfun._hyp_0f1_series(b, w[low])))
    rho = np.exp(2.0 * log_num - np.log(n_z) - np.log(n_z0))
    return float(rho) if rho.ndim == 0 else rho


def density_evolved(params: FamilyParams, z0: complex, z, t):
    """(rho_formula, rho_raw) at times t for labels z: scalars z and t in,
    floats out; otherwise arrays of shape t.shape + z.shape.

    rho_formula evaluates the closed form with the rotated label
    z0(t) = z0 exp(-i (2m+2nu-1) t), i.e. the density in the rotated
    basis; rho_raw is |<z| e^{-iHt} |z0>|^2 with the full phases, whose
    extra exp(-i n^2 t) factors the rotated basis absorbs.  The two agree
    at t = 0 and generally differ for t != 0.  z0's state (`states.state`)
    is evolved to every t as one row each (`evolve`'s phases), the grid's
    states come from one `states.state_matrix` call, and every (label, t)
    pair is summed by one grouped block sum (`states._block_overlaps`) of
    the grid's rows against the evolved rows.
    """
    _require_bessel(params, "density_evolved")
    zs, ts = _labels(params, z), np.asarray(t, dtype=float)
    shape, v = ts.shape + zs.shape, state(params, z0)
    z0_t = complex(z0) * np.exp(-1j * rotation_frequency(params) * ts)
    rho_formula = density_static(params, z0_t.reshape(ts.shape + (1,) * zs.ndim), zs)
    levels = Spectrum(params).levels(v.n_max)
    v0s = v.coeffs * np.exp(-1j * levels * ts.reshape(-1, 1))
    grid = state_matrix(params, zs.ravel().tolist())
    rows = [c[: n + 1] for c, n in zip(grid.coeffs, grid.n_max.tolist())]
    overlaps = _block_overlaps(rows, list(v0s))
    # t outermost, as in the result
    rho_raw = np.array([abs(w) ** 2 for w in overlaps.T.ravel().tolist()]).reshape(shape)
    return (rho_formula, rho_raw) if shape else (float(rho_formula), float(rho_raw))


def rotation_property(params: FamilyParams, z: complex, t: float) -> float:
    """Temporal-stability residual in the rotated basis.

    Strips the exp(-i n^2 t) phases from the evolved amplitudes and
    compares with the amplitudes of the state at the rotated label; the
    residual is the l2 norm of the difference.
    """
    _require_bessel(params, "rotation_property")
    v = state(params, z)
    evolved = evolve(params, v, t)
    n = np.arange(v.n_max + 1, dtype=float)
    stripped = evolved.coeffs * np.exp(1j * n * n * t)
    rotated = state(
        params, complex(z) * cmath.exp(-1j * rotation_frequency(params) * t),
        n_max=v.n_max,
    )
    return float(np.linalg.norm(stripped - rotated.coeffs))


def polar_density_rows(params: FamilyParams, z0: complex, t_values,
                       r_values, theta_values):
    """Rows (r, theta, t, rho_formula, rho_raw) over the polar grid, t
    outermost and theta innermost, from one `density_evolved` call."""
    grid = [(r, th) for r in r_values for th in theta_values]
    z = np.array([r * cmath.exp(1j * th) for r, th in grid], dtype=complex)
    rho_f, rho_r = density_evolved(params, z0, z, np.asarray(t_values, dtype=float))
    return [(float(r), float(th), float(t), f, raw)
            for t, fs, raws in zip(t_values, rho_f.tolist(), rho_r.tolist())
            for (r, th), f, raw in zip(grid, fs, raws)]
