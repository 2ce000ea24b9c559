"""Time evolution, phase-space density, temporal stability."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from ghcs import states
from ghcs.dynamics import (
    Spectrum,
    density_evolved,
    density_static,
    evolve,
    polar_density_rows,
    rotation_frequency,
    rotation_property,
)
from ghcs.states import (
    Family, FamilyParams, normalization, overlap, state,
)

from conftest import rel_err


mp.mp.dps = 40

# (z0, z): opposite labels, orthogonal ones, a zero label and mixed radii
_MP_PAIRS = [(20.0, -20.0), (20.0, 20j), (-13 + 15j, 13 - 15j), (0.5, -0.5),
             (7.5 - 2j, -6 + 3j), (1e-3j, -19.9), (19.0 + 6j, 0.0), (3.0, 3.0),
             (-14.1 + 14.1j, 9.0 - 9.0j), (12j, -12j), (0.3 + 0.4j, 18 - 5j)]


def _mp_density(p, z0, z):
    b = 2 * p.m + 2 * mp.mpf(p.nu)
    num = abs(mp.hyp0f1(b, mp.mpc(z).conjugate() * mp.mpc(z0))) ** 2
    return float(num / (mp.hyp0f1(b, abs(mp.mpc(z)) ** 2)
                        * mp.hyp0f1(b, abs(mp.mpc(z0)) ** 2)))


class TestSpectrum:
    def test_ground_state(self, bessel_params):
        assert Spectrum(bessel_params).levels(0).tolist() == [0.0]

    def test_strictly_increasing(self, bessel_params):
        lv = Spectrum(bessel_params).levels(30)
        assert np.all(np.diff(lv) > 0.0)

    def test_level_formula(self, bessel_params):
        # e_n = n (n + 2m + 2nu - 1), b = 3
        lv = Spectrum(bessel_params).levels(7).tolist()
        assert lv == [n * (n + 2) for n in range(8)]


class TestEvolve:
    def test_identity_at_t0(self, bessel_params):
        v = state(bessel_params, 0.4 + 0.3j)
        w = evolve(bessel_params, v, 0.0)
        assert np.array_equal(v.coeffs, w.coeffs)

    def test_unitarity(self, bessel_params):
        v = state(bessel_params, 0.7)
        for t in (0.1, 1.0, 17.3):
            w = evolve(bessel_params, v, t)
            assert abs(w.norm_sq - v.norm_sq) < 1e-12
            assert np.allclose(np.abs(w.coeffs), np.abs(v.coeffs), atol=1e-15)

    def test_phase_additivity(self, bessel_params):
        v = state(bessel_params, 0.5 - 0.2j)
        a = evolve(bessel_params, evolve(bessel_params, v, 0.4), 0.9)
        b = evolve(bessel_params, v, 1.3)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12


class TestDensityStatic:
    def test_peak_at_label(self, bessel_params):
        assert density_static(bessel_params, 0.5, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_bounds(self, bessel_params, rng):
        for _ in range(50):
            z0 = complex(*rng.uniform(-1.0, 1.0, 2))
            z = complex(*rng.uniform(-1.0, 1.0, 2))
            rho = density_static(bessel_params, z0, z)
            assert -1e-12 <= rho <= 1.0 + 1e-12

    def test_matches_overlap_series(self, bessel_params, rng):
        for _ in range(16):
            z0 = complex(*rng.uniform(-0.8, 0.8, 2))
            z = complex(*rng.uniform(-0.8, 0.8, 2))
            rho = density_static(bessel_params, z0, z)
            ref = abs(overlap(bessel_params, z, z0)) ** 2
            assert abs(rho - ref) < 1e-8

    def test_family_mismatch_flagged(self, jacobi_params):
        with pytest.raises(ValueError, match="bessel"):
            density_static(jacobi_params, 0.2, 0.1)

    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("nu", [0.1, 0.9, 1.7, 2.5])
    def test_matches_mpmath_out_to_radius_20(self, m, nu):
        # opposite labels are where the direct series of 0F1(b; conj(z) z0)
        # cancelled: 1.5e4 times too large at |z| = |z0| = 20
        p = FamilyParams(m, nu, Family.BESSEL)
        for z0, z in _MP_PAIRS:
            ref = _mp_density(p, z0, z)
            assert rel_err(density_static(p, z0, z), ref) < 1e-12, (z0, z)

    def test_large_labels_match_mpmath(self, bessel_params):
        # |z|^2 = 9e4, where a complex series overflows Python's complex
        # arithmetic; the value is about 3.2e-146
        ref = _mp_density(bessel_params, 270.0, 300j)
        assert rel_err(density_static(bessel_params, 270.0, 300j), ref) < 1e-12

    def test_normalization_out_of_float_range_raises(self, bessel_params):
        # N(400^2) is about e^800: no float, so no density (a plain ratio of
        # the two overflowed values would be nan)
        message = r"N\(\|z\|\^2\) N\(\|z0\|\^2\) leaves the float range at z0 = "
        with pytest.raises(OverflowError, match=message + r"\(400\+0j\), z = \(400\+0j\)$"):
            density_static(bessel_params, 400.0, 400.0)
        with pytest.raises(OverflowError, match=message + r"400j, z = \(0.5\+0j\)$"):
            density_static(bessel_params, 400j, np.array([0.5, 1.0]))

    @pytest.mark.parametrize("m, nu", [(1, 0.5), (0, 0.5), (0, 0.1)])
    def test_exactly_one_at_zero_cross_label(self, m, nu):
        # b = 1 and b < 1 included, where I_{b-1}(0) is 1 and infinite
        p = FamilyParams(m, nu, Family.BESSEL)
        assert density_static(p, 0.0, 0.0) == 1.0
        rho = density_static(p, 0.0, np.array([1e-300, 0.5j]))
        assert rho[0] == 1.0
        assert rho[1] == 1.0 / normalization(p, 0.25)

    def test_tiny_cross_label_rounds_to_one(self):
        # I_{b-1}(2 sqrt w) underflows long before 0F1(b; w) leaves 1
        p = FamilyParams(5, 0.5, Family.BESSEL)
        assert density_static(p, 1e-160, 1e-160j) == 1.0

    @pytest.mark.parametrize("m, z0, z", [
        (40, 1e-4, 1e-4), (20, 1e-7j, -3e-7), (100, 1.5 + 1j, -1 + 1.2j),
        (100, 2.0, -2.0), (60, 0.03 - 0.02j, 0.1j), (300, 5.0 + 3j, -4.0 + 1j),
    ])
    def test_underflowing_bessel_matches_mpmath(self, m, z0, z):
        # large b and small |w|: I_{b-1}(2 sqrt w) is below the float range
        # while the density is near 1, so the ascending series is summed
        p = FamilyParams(m, 0.5, Family.BESSEL)
        w = complex(z).conjugate() * z0
        assert abs(special.ive(p.b - 1.0, 2.0 * cmath.sqrt(w))) < np.finfo(float).tiny
        assert rel_err(density_static(p, z0, z), _mp_density(p, z0, z)) < 1e-12
        row = density_static(p, z0, np.array([z, 0.5 * z, 3.0]))
        assert row[0] == density_static(p, z0, z)
        assert rel_err(row[2], _mp_density(p, z0, 3.0)) < 1e-12

    def test_label_arrays_match_scalar_calls(self):
        for p in (FamilyParams(1, 0.5, Family.BESSEL), FamilyParams(0, 0.1, Family.BESSEL)):
            z = np.array([[0.3 + 0.1j, -2.0, 0.0], [15j, -0.0 - 7j, 19.0 - 3.0j]])
            z0 = np.array([0.5, -12.0 + 1j, 0.0])
            got = density_static(p, z0, z)
            assert got.shape == (2, 3)
            ref = [[density_static(p, complex(a), complex(b)) for a, b in zip(z0, row)]
                   for row in z]
            assert np.array_equal(got, np.array(ref))
            assert type(density_static(p, 0.5, 0.3j)) is float
            assert density_static(p, 0.5, np.array([])).shape == (0,)

    def test_label_outside_domain_rejected(self, bessel_params):
        with pytest.raises(ValueError, match="outside the open domain"):
            density_static(bessel_params, 0.5, np.array([0.1, np.inf]))


class TestDensityEvolved:
    def test_raw_density_of_a_large_grid_is_the_per_label_vdot(self, bessel_params):
        # the grid's states, built in one batch, are the single-label ones
        # to the bit
        z = 3.0 * np.exp(1j * np.linspace(0.0, 6.0, 40))
        _, rho_raw = density_evolved(bessel_params, 0.5 - 1j, z, 0.7)
        v0 = evolve(bessel_params, state(bessel_params, 0.5 - 1j), 0.7)
        for w, raw in zip(z, rho_raw):
            v = state(bessel_params, w)
            n = min(v0.n_max, v.n_max) + 1
            assert raw == abs(np.vdot(v.coeffs[:n], v0.coeffs[:n])) ** 2

    def test_raw_density_equals_the_per_pair_reference(self, bessel_params):
        # grid labels whose truncations lie below, at and above z0's
        z0, ts = 96.0 + 1.0j, np.array([0.0, 0.4, 1.3])
        z = np.array([[0.0, -0.0 - 0.2j, 80.0, 90.0], [95.0 - 0.5j, 97.0 + 2.0j, 110.0, 200.0]])
        _, rho_raw = density_evolved(bessel_params, z0, z, ts)
        v0 = state(bessel_params, z0)
        ref = np.empty(ts.shape + z.shape)
        for k, t in enumerate(ts.tolist()):
            v0t = evolve(bessel_params, v0, t)
            for idx, w in np.ndenumerate(z):
                v = state(bessel_params, w)
                n = min(v.n_max, v0t.n_max) + 1
                ref[(k,) + idx] = abs(np.vdot(v.coeffs[:n], v0t.coeffs[:n])) ** 2
        assert np.array_equal(rho_raw, ref)
        assert {state(bessel_params, w).n_max for w in z.flat} == {128, 256, 512}
        assert v0.n_max == 256

    def test_label_arrays_match_scalar_calls(self, bessel_params):
        z = np.array([0.3j, -1.5 + 0.2j, 4.0, 0.0])
        for t in (0.0, 0.7):
            rho_f, rho_r = density_evolved(bessel_params, 0.5 - 1j, z, t)
            ref = [density_evolved(bessel_params, 0.5 - 1j, complex(w), t) for w in z]
            assert np.array_equal(rho_f, [f for f, _ in ref])
            assert np.array_equal(rho_r, [r for _, r in ref])
        one = density_evolved(bessel_params, 0.5, 0.3j, 0.7)
        assert all(type(v) is float for v in one)

    def test_time_arrays_match_one_call_per_time(self, bessel_params):
        z, ts = np.array([[0.3j, -1.5 + 0.2j], [4.0, 0.0]]), np.array([0.0, 0.7, 2.5])
        rho_f, rho_r = density_evolved(bessel_params, 0.5 - 1j, z, ts)
        assert rho_f.shape == rho_r.shape == (3, 2, 2)
        for k, t in enumerate(ts.tolist()):
            ref_f, ref_r = density_evolved(bessel_params, 0.5 - 1j, z, t)
            assert np.array_equal(rho_f[k], ref_f) and np.array_equal(rho_r[k], ref_r)
        for shape, t in (((0, 2), []), ((3, 0), ts)):
            out = density_evolved(bessel_params, 0.5, z.ravel()[:shape[-1]], t)
            assert out[0].shape == out[1].shape == shape

    def test_each_label_is_built_once_per_call(self, bessel_params, monkeypatch):
        built = []
        build = states._build_rows
        monkeypatch.setattr(states, "_build_rows",
                            lambda p, zs, n: built.append(list(zs)) or build(p, zs, n))
        z = np.array([0.3j, -1.5 + 0.2j, 4.0])
        density_evolved(bessel_params, 0.5, z, np.linspace(0.0, 1.0, 4))
        # z0 once, through `state`, and the grid in one batch
        assert built == [[0.5], z.tolist()]

    def test_t0_equals_static(self, bessel_params):
        rho_f, rho_r = density_evolved(bessel_params, 0.5, 0.3j, 0.0)
        ref = density_static(bessel_params, 0.5, 0.3j)
        assert abs(rho_f - ref) < 1e-12
        assert abs(rho_r - ref) < 1e-10

    def test_rotated_basis_agreement(self, bessel_params):
        # the closed form with the rotated label equals the phase-stripped
        # overlap computed from the truncated series
        z0, z, t = 0.5, 0.3j, 0.7
        rho_f, _ = density_evolved(bessel_params, z0, z, t)
        z0_t = z0 * cmath.exp(-1j * rotation_frequency(bessel_params) * t)
        ref = abs(overlap(bessel_params, z, z0_t)) ** 2
        assert abs(rho_f - ref) < 1e-8

    def test_raw_value_differs_in_general(self, bessel_params):
        # reported side by side, no equality asserted
        rho_f, rho_r = density_evolved(bessel_params, 0.5, 0.3j, 0.7)
        assert abs(rho_f - rho_r) > 1e-6

    def test_full_period_recurrence(self, bessel_params):
        period = 2.0 * math.pi / rotation_frequency(bessel_params)
        rho_f0, _ = density_evolved(bessel_params, 0.5, 0.3j, 0.0)
        rho_fT, _ = density_evolved(bessel_params, 0.5, 0.3j, period)
        assert abs(rho_f0 - rho_fT) < 1e-8


class TestRotationProperty:
    def test_zero_at_t0(self, bessel_params):
        assert rotation_property(bessel_params, 0.4 + 0.2j, 0.0) == 0.0

    def test_full_period(self, bessel_params):
        period = 2.0 * math.pi / rotation_frequency(bessel_params)
        assert rotation_property(bessel_params, 0.4 + 0.2j, period) <= 1e-10

    def test_grid(self, bessel_params, rng):
        for _ in range(12):
            z = complex(*rng.uniform(-1.0, 1.0, 2))
            t = float(rng.uniform(0.0, 6.0))
            assert rotation_property(bessel_params, z, t) <= 1e-10

    def test_family_mismatch(self, jacobi_params):
        with pytest.raises(ValueError):
            rotation_property(jacobi_params, 0.2, 1.0)


class TestPolarRows:
    def test_rows_match_pointwise_density(self, bessel_params):
        t_values, r_values, theta_values = [0.0, 0.3, 1.1], [0.25, 0.5, 2.0], [0.0, 1.0, math.pi]
        rows = polar_density_rows(bessel_params, 0.5 + 0.5j, t_values, r_values, theta_values)
        expect = [(r, th, t) for t in t_values for r in r_values for th in theta_values]
        assert [row[:3] for row in rows] == expect
        for r, th, t, rho_f, rho_r in rows:
            z = r * cmath.exp(1j * th)
            assert (rho_f, rho_r) == density_evolved(bessel_params, 0.5 + 0.5j, z, t)

    def test_empty_grids_give_no_rows(self, bessel_params):
        assert polar_density_rows(bessel_params, 0.5, [0.0, 1.0], [], [0.0, 1.0]) == []
        assert polar_density_rows(bessel_params, 0.5, [0.0, 1.0], [0.5], []) == []
        assert polar_density_rows(bessel_params, 0.5, [], [0.5], [0.0]) == []

    def test_shape_and_ranges(self, bessel_params):
        rows = polar_density_rows(
            bessel_params, 0.5, [0.0, 0.3], [0.25, 0.5], [0.0, math.pi]
        )
        assert len(rows) == 8
        for r, th, t, rho_f, rho_r in rows:
            assert 0.0 <= rho_f <= 1.0 + 1e-12
            assert 0.0 <= rho_r <= 1.0 + 1e-12
        # t = 0 rows have both densities equal
        for row in rows[:4]:
            assert abs(row[3] - row[4]) < 1e-10
