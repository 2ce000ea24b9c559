"""State construction, normalization, overlaps, label continuity."""

import math

import mpmath as mp
import numpy as np
import pytest

from ghcs import specfun
from ghcs.kernel import gram_matrix
from ghcs.states import (
    Family,
    FamilyParams,
    FockVector,
    PochhammerVariant,
    _log_h_array,
    _log_h_table,
    coeff_h,
    coefficient_sign,
    energy_level,
    energy_product,
    label_distance,
    log_coeff_h,
    normalization,
    overlap,
    state,
)

from conftest import rel_err

mp.mp.dps = 40


class TestFamilyParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FamilyParams(-1, 0.5)
        with pytest.raises(ValueError):
            FamilyParams(1, 0.0)
        with pytest.raises(ValueError):
            FamilyParams(1, -0.5)

    def test_radius(self):
        assert FamilyParams(1, 0.5, Family.BESSEL).radius == math.inf
        assert FamilyParams(1, 0.5, Family.JACOBI).radius == 1.0

    def test_radius_matches_coefficient_ratio_limit(self):
        # h_{n+1}^2 / h_n^2 at large n: -> inf (bessel) and -> 1 (jacobi)
        pb = FamilyParams(1, 0.5, Family.BESSEL)
        pj = FamilyParams(1, 0.5, Family.JACOBI)
        n = 4000
        ratio_b = math.exp(2.0 * (log_coeff_h(pb, n + 1) - log_coeff_h(pb, n)))
        ratio_j = math.exp(2.0 * (log_coeff_h(pj, n + 1) - log_coeff_h(pj, n)))
        assert ratio_b > 1e6
        assert abs(ratio_j - 1.0) < 1e-2

    def test_label_domain(self):
        pj = FamilyParams(1, 0.5, Family.JACOBI)
        with pytest.raises(ValueError):
            pj.require_label(1.0 + 0.1j)


class TestCoefficients:
    def test_h0(self, bessel_params, jacobi_params):
        assert coeff_h(bessel_params, 0) == 1.0
        assert coeff_h(jacobi_params, 0) == 1.0

    def test_bessel_example(self, bessel_params):
        # sqrt(2! (3)_2) = sqrt(24)
        assert rel_err(coeff_h(bessel_params, 2), math.sqrt(24.0)) < 1e-14

    def test_jacobi_example(self, jacobi_params):
        # divide by (2.5)_2 = 8.75
        assert rel_err(coeff_h(jacobi_params, 2), math.sqrt(24.0) / 8.75) < 1e-14

    def test_overflow_signalled(self, bessel_params):
        with pytest.raises(OverflowError):
            coeff_h(bessel_params, 200)

    def test_signs(self, bessel_params, jacobi_params):
        assert [coefficient_sign(bessel_params, n) for n in range(4)] == [1, 1, 1, 1]
        assert [coefficient_sign(jacobi_params, n) for n in range(4)] == [1, -1, 1, -1]

    def test_eigenvalue_bookkeeping(self, bessel_params):
        # e_n = n(2m + n + 2nu - 1); prod e_k = n! (2m+2nu)_n exactly for small n
        p = bessel_params
        assert energy_level(p, 0) == 0.0
        for n in range(1, 9):
            assert energy_level(p, n) == n * (n + 2)  # b = 3
            exact = math.factorial(n) * specfun.pochhammer(3.0, n)
            assert energy_product(p, n) == pytest.approx(exact, rel=1e-14)

    def test_levels_increasing(self):
        p = FamilyParams(0, 0.6)  # 2m+2nu = 1.2 > 1
        lv = [energy_level(p, n) for n in range(20)]
        assert all(b > a for a, b in zip(lv, lv[1:]))


class TestNormalization:
    def test_at_zero(self, bessel_params, jacobi_params):
        assert normalization(bessel_params, 0.0) == 1.0
        assert normalization(jacobi_params, 0.0) == 1.0

    def test_bessel_closed_form(self, bessel_params):
        # Gamma(3) 4^{-1} I_2(4) 4^{1/2} ... i.e. Gamma(b) x^{(1-b)/2} I_{b-1}(2 sqrt x)
        x = 4.0
        ref = 2.0 * x ** (-1.0) * specfun.bessel_i(2.0, 2.0 * math.sqrt(x))
        assert rel_err(normalization(bessel_params, x), ref) < 1e-10

    def test_jacobi_closed_form(self, jacobi_params):
        ref = specfun.hyp_2f1(2.5, 2.5, 3.0, 0.5)
        assert rel_err(normalization(jacobi_params, 0.5), ref) < 1e-10

    def test_identity_on_grid(self):
        for params, closed in (
            (FamilyParams(2, 0.7, Family.BESSEL),
             lambda x: specfun.hyp_0f1(5.4, x)),
            (FamilyParams(2, 0.7, Family.JACOBI),
             lambda x: specfun.hyp_2f1(3.7, 3.7, 5.4, x)),
        ):
            hi = 20.0 if params.family is Family.BESSEL else 0.95
            for x in np.linspace(0.0, hi, 20):
                got = normalization(params, float(x))
                assert rel_err(got, closed(float(x))) < 1e-10

    def test_domain_error(self, jacobi_params):
        with pytest.raises(ValueError):
            normalization(jacobi_params, 1.0)


class TestState:
    def test_vacuum(self, bessel_params):
        v = state(bessel_params, 0.0)
        assert v.coeffs[0] == 1.0
        assert np.all(v.coeffs[1:] == 0.0)
        assert v.tail_bound == 0.0

    def test_normalized(self):
        v = state(FamilyParams(2, 0.7, Family.BESSEL), 0.3 + 0.4j)
        assert abs(v.norm_sq - 1.0) < 1e-10
        assert v.norm_sq <= 1.0 + 1e-12
        assert v.norm_sq + v.tail_bound >= 1.0 - 1e-12

    def test_amplitude_ratio(self, bessel_params, jacobi_params):
        # a_{n+1}/a_n = s z h_n / h_{n+1} with the family sign s
        for params, z in ((bessel_params, 0.7 + 0.2j), (jacobi_params, 0.4 - 0.3j)):
            v = state(params, z)
            for n in range(6):
                got = v.coeffs[n + 1] / v.coeffs[n]
                sign = coefficient_sign(params, n + 1) * coefficient_sign(params, n)
                ref = sign * z * coeff_h(params, n) / coeff_h(params, n + 1)
                assert abs(got - ref) < 1e-12

    def test_jacobi_signs_in_amplitudes(self, jacobi_params):
        v = state(jacobi_params, 0.5)
        assert v.coeffs[0].real > 0
        assert v.coeffs[1].real < 0
        assert v.coeffs[2].real > 0

    def test_explicit_truncation_error(self, bessel_params):
        with pytest.raises(ValueError, match="larger n_max"):
            state(bessel_params, 3.0, n_max=4)

    @pytest.mark.parametrize("n_max", [-1, -5, 2.5])
    def test_explicit_n_max_must_be_non_negative_integer(self, jacobi_params, n_max):
        with pytest.raises(ValueError, match="n_max"):
            state(jacobi_params, 0.3, n_max=n_max)

    def test_label_outside_domain(self, jacobi_params):
        with pytest.raises(ValueError):
            state(jacobi_params, 1.2)

    def test_fockvector_validation(self):
        with pytest.raises(ValueError):
            FockVector(coeffs=np.ones(3), n_max=4, tail_bound=0.0)
        with pytest.raises(ValueError):
            FockVector(coeffs=np.ones(3), n_max=2, tail_bound=-1.0)


class TestOverlap:
    def test_self_overlap(self, bessel_params):
        assert abs(overlap(bessel_params, 0.3 + 0.1j, 0.3 + 0.1j) - 1.0) < 1e-12

    def test_bessel_closed_form(self, bessel_params):
        # series value against the modified-Bessel expression
        z1, z2 = 0.5, 0.5j
        got = overlap(bessel_params, z1, z2)
        b = bessel_params.b
        w = mp.conj(mp.mpc(z1)) * mp.mpc(z2)
        pref = (abs(mp.mpc(z1) * mp.mpc(z2)) / (mp.mpc(z2) * mp.conj(mp.mpc(z1)))) ** (
            (b - 1.0) / 2.0
        )
        ref = pref * mp.besseli(b - 1.0, 2.0 * mp.sqrt(w)) / mp.sqrt(
            mp.besseli(b - 1.0, 2.0 * abs(z1)) * mp.besseli(b - 1.0, 2.0 * abs(z2))
        )
        assert abs(got - complex(ref)) < 1e-8

    def test_cauchy_schwarz(self, rng):
        for params, scale in (
            (FamilyParams(1, 0.5, Family.BESSEL), 1.5),
            (FamilyParams(1, 0.5, Family.JACOBI), 0.65),
        ):
            for _ in range(100):
                z1 = complex(*rng.uniform(-scale / 2, scale / 2, 2))
                z2 = complex(*rng.uniform(-scale / 2, scale / 2, 2))
                assert abs(overlap(params, z1, z2)) <= 1.0 + 1e-12


class TestLabelDistance:
    def test_zero_at_equal_labels(self, bessel_params):
        assert label_distance(bessel_params, 0.4j, 0.4j) < 1e-7

    def test_symmetry(self, bessel_params):
        d12 = label_distance(bessel_params, 0.3, 0.1 + 0.2j)
        d21 = label_distance(bessel_params, 0.1 + 0.2j, 0.3)
        assert d12 == pytest.approx(d21, abs=1e-14)

    def test_lipschitz_scan(self, bessel_params, rng):
        # distance(z, z + delta) <= C |delta| for small delta
        for _ in range(20):
            z = complex(*rng.uniform(-1.0, 1.0, 2))
            delta = complex(*rng.uniform(-1e-3, 1e-3, 2))
            d = label_distance(bessel_params, z, z + delta)
            assert d <= 10.0 * abs(delta) + 1e-12


class TestPochhammerVariant:
    def test_two_nu_divisor(self):
        p = FamilyParams(1, 0.5, Family.JACOBI, PochhammerVariant.TWO_NU)
        # divisor (m + 2 nu + 1)_2 = (3)_2 = 12
        assert rel_err(coeff_h(p, 2), math.sqrt(24.0) / 12.0) < 1e-14

    def test_two_nu_normalization_closed_form(self):
        # sum (3)_n x^n / n! = (1 - x)^{-3} when the divisor equals (b)_n
        p = FamilyParams(1, 0.5, Family.JACOBI, PochhammerVariant.TWO_NU)
        for x in (0.1, 0.4, 0.7):
            assert rel_err(normalization(p, x), (1.0 - x) ** -3.0) < 1e-12

    def test_bessel_ignores_variant(self):
        a = FamilyParams(1, 0.5, Family.BESSEL)
        b = FamilyParams(1, 0.5, Family.BESSEL, PochhammerVariant.TWO_NU)
        assert coeff_h(a, 5) == coeff_h(b, 5)

    def test_measure_guards_variant(self):
        from ghcs.measure import radial_rule

        p = FamilyParams(1, 0.5, Family.JACOBI, PochhammerVariant.TWO_NU)
        with pytest.raises(ValueError, match="canonical"):
            radial_rule(p)


def _log_h_reference(params, n_max):
    # uncached scalar evaluation, same operations in the same order
    out = [0.0]
    for k in range(1, n_max + 1):
        v = 0.5 * (math.lgamma(k + 1.0) + math.lgamma(params.b + k) - math.lgamma(params.b))
        if params.family is Family.JACOBI:
            v -= math.lgamma(params.coeff_shift + k) - math.lgamma(params.coeff_shift)
        out.append(v)
    return np.array(out)


class TestLogHCache:
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("variant", list(PochhammerVariant))
    def test_bit_identical_to_reference(self, family, variant):
        params = FamilyParams(2, 0.7, family, variant)
        for n in (0, 1, 127, 128, 129, 1000, 16384):
            got = _log_h_array(params, n)
            assert got.shape == (n + 1,)
            assert np.array_equal(got, _log_h_reference(params, n)), n

    def test_read_only(self, jacobi_params):
        lg = _log_h_array(jacobi_params, 100)
        with pytest.raises(ValueError):
            lg[1] = 0.0
        assert not _log_h_table(jacobi_params, 128).flags.writeable

    def test_tables_keyed_by_family_and_variant(self):
        bessel = _log_h_array(FamilyParams(1, 0.5, Family.BESSEL), 64)
        canonical = _log_h_array(FamilyParams(1, 0.5, Family.JACOBI), 64)
        two_nu = _log_h_array(
            FamilyParams(1, 0.5, Family.JACOBI, PochhammerVariant.TWO_NU), 64
        )
        assert not np.array_equal(bessel, canonical)
        assert not np.array_equal(canonical, two_nu)

    def test_gram_matrix_misses_once_per_table_size(self):
        params = FamilyParams(1, 0.83, Family.JACOBI)
        radii = 1.0 - 10.0 ** -np.linspace(0.1, 2.0, 16)  # up to |z| = 0.99
        labels = [r * np.exp(1j * t) for r, t in zip(radii, np.linspace(0, 6, 16))]
        top = max(state(params, z).n_max for z in labels)
        sizes = int(math.log2(top // 128)) + 1  # 128, 256, ..., top
        _log_h_table.cache_clear()
        gram_matrix(params, labels)
        info = _log_h_table.cache_info()
        assert info.misses <= sizes
        assert info.hits >= 2 * 16 * 17 // 2 - info.misses


class TestResolvedStateConsistency:
    def test_reconstructed_normalization(self, bessel_params, jacobi_params):
        # the unnormalized coefficient mass reproduces N(|z|^2)
        for params, z in ((bessel_params, 1.1 + 0.4j), (jacobi_params, 0.5 - 0.3j)):
            v = state(params, z)
            n = np.arange(v.n_max + 1, dtype=float)
            mods2 = np.exp(2.0 * (n * math.log(abs(z)) - _log_h_array(params, v.n_max)))
            recon = float(np.sum(mods2)) / (1.0 - v.tail_bound)
            ref = normalization(params, abs(z) ** 2)
            assert rel_err(recon, ref) < 1e-12
