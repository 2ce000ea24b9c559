"""Scalar kernel tests: reference values, identities, independent oracles."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from ghcs import specfun
from ghcs.specfun import (
    ContourSpec,
    SeriesControl,
    bessel_i,
    bessel_k,
    default_contour,
    hyp_0f1,
    hyp_2f1,
    log_gamma,
    meijer_g_2022,
    meijer_g_canonical,
    pochhammer,
)
from ghcs.states import FamilyParams, Family

from conftest import rel_err

mp.mp.dps = 40


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == 0.0

    def test_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert rel_err(log_gamma(0.5), 0.5723649429247001) < 1e-13

    def test_factorial(self):
        assert rel_err(log_gamma(5.0), math.log(24.0)) < 1e-13

    def test_pole(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-3)

    def test_real_sweep(self):
        # relative where |log Gamma| >= 1, absolute near its zeros
        for x in np.linspace(0.5, 50.0, 400):
            ref = float(mp.loggamma(mp.mpf(float(x))))
            err = abs(log_gamma(float(x)) - ref) / max(abs(ref), 1.0)
            assert err < 1e-13, x

    def test_complex_line(self):
        # exp-compare removes any 2 pi i convention difference
        for t in np.linspace(-50.0, 50.0, 41):
            z = complex(1.25, float(t))
            ref = mp.loggamma(mp.mpc(z))
            assert abs(complex(mp.exp(ref - log_gamma(z))) - 1.0) < 1e-12

    def test_reflection_exp_exact_off_principal_branch(self):
        # left of Re z = 0.5 the value is a log of Gamma, not always the
        # principal one: exp matches Gamma, the offset is a 2 pi i multiple
        for t in (-10.0, -1.0, 0.4, 2.0, 10.0):
            z = complex(-7.3, t)
            got = log_gamma(z)
            ref = complex(mp.gamma(mp.mpc(z)))
            assert abs(cmath.exp(got) / ref - 1.0) < 1e-13
            k = (got - complex(mp.loggamma(mp.mpc(z)))) / (2j * math.pi)
            assert abs(k - round(k.real)) < 1e-12

    def test_negative_real_principal_branch(self):
        # Gamma(-1.5) > 0 so the principal log is real
        got = log_gamma(-1.5)
        assert isinstance(got, float)
        assert rel_err(got, float(mp.log(mp.gamma(mp.mpf(-1.5))))) < 1e-12
        # Gamma(-0.5) < 0 so the principal log picks up i pi
        got = log_gamma(-0.5)
        assert got.imag == pytest.approx(math.pi)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7, 0) == 1.0

    def test_negative_argument(self):
        assert pochhammer(-3.5, 2) == pytest.approx(8.75, rel=1e-15)

    def test_reflection_pair(self):
        assert pochhammer(2.5, 2) == pytest.approx(8.75, rel=1e-15)

    def test_reflection_identity(self):
        # (-m-n-nu)_n = (-1)^n (m+nu+1)_n
        for m in range(0, 21, 4):
            for n in range(0, 21, 3):
                for nu in (0.3, 0.5, 1.7):
                    lhs = pochhammer(-m - n - nu, n)
                    rhs = (-1.0) ** n * pochhammer(m + nu + 1.0, n)
                    assert rel_err(lhs, rhs) < 1e-13

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, -1)


class TestHypSeries:
    def test_0f1_at_zero(self):
        assert hyp_0f1(2.0, 0.0) == 1.0

    def test_0f1_bessel_identity(self):
        # 0F1(b; x) = Gamma(b) x^{(1-b)/2} I_{b-1}(2 sqrt x)
        for b in (2.0, 3.4, 7.0):
            for x in np.logspace(-3, math.log10(30.0), 20):
                lhs = hyp_0f1(b, float(x))
                rhs = math.exp(log_gamma(b)) * x ** ((1.0 - b) / 2.0) * bessel_i(
                    b - 1.0, 2.0 * math.sqrt(x)
                )
                assert rel_err(lhs, rhs) < 1e-10

    def test_0f1_partial_sum_oracle(self):
        # independent partial sums with exact rational terms
        from fractions import Fraction

        b, x = 3, 4
        total = Fraction(0)
        term = Fraction(1)
        for k in range(60):
            if k > 0:
                term *= Fraction(x, k * (b + k - 1))
            total += term
        assert rel_err(hyp_0f1(3.0, 4.0), float(total)) < 1e-12

    def test_0f1_rejects(self):
        with pytest.raises(ValueError):
            hyp_0f1(-2.0, 1.0)
        with pytest.raises(ValueError):
            hyp_0f1(2.0, -1.0)

    def test_0f1_nonconvergence(self):
        with pytest.raises(specfun.ConvergenceError):
            hyp_0f1(2.0, 50.0, SeriesControl(max_terms=3, rel_tol=1e-15))

    def test_2f1_at_zero(self):
        assert hyp_2f1(1.3, 0.4, 2.0, 0.0) == 1.0

    def test_2f1_log_identity(self):
        # 2F1(1,1;2;x) = -ln(1-x)/x
        x = 0.5
        assert rel_err(hyp_2f1(1.0, 1.0, 2.0, x), -math.log(1.0 - x) / x) < 1e-13

    def test_2f1_direct_series_oracle(self):
        a = b = 2.5
        c, x = 5.0, 0.3
        total = 0.0
        for n in range(80):
            total += (
                pochhammer(a, n) * pochhammer(b, n) * x**n
                / (pochhammer(c, n) * math.factorial(n))
            )
        assert rel_err(hyp_2f1(a, b, c, x), total) < 1e-13

    def test_2f1_domain(self):
        with pytest.raises(ValueError):
            hyp_2f1(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            hyp_2f1(1.0, 1.0, -1.0, 0.5)


class TestBessel:
    def test_i_at_zero(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(2.0, 0.0) == 0.0

    def test_i_reference(self):
        # ascending-series reference value
        assert rel_err(bessel_i(1.0, 2.0), 1.5906368546373291) < 1e-12

    def test_k_half_integer(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
        assert rel_err(bessel_k(0.5, 1.0), math.sqrt(math.pi / 2.0) * math.exp(-1.0)) < 1e-12

    def test_sweep_against_reference(self):
        for order in (0.0, 0.5, 1.0, 3.7, 12.3, 20.0):
            for x in (1e-3, 0.5, 1.9, 2.1, 10.0, 50.0):
                assert rel_err(bessel_i(order, x), float(mp.besseli(order, x))) < 1e-10
                assert rel_err(bessel_k(order, x), float(mp.besselk(order, x))) < 1e-10

    def test_k_integer_order_limit(self):
        # the small-x branch passes through the mu -> 0 limit here
        for order in (0.0, 1.0, 2.0, 6.0):
            for x in (0.05, 1.0, 1.99):
                assert rel_err(bessel_k(order, x), float(mp.besselk(order, x))) < 1e-11

    def test_k_scaled(self):
        got = bessel_k(2.0, 300.0, scaled=True)
        ref = float(mp.besselk(2, 300) * mp.exp(300))
        assert rel_err(got, ref) < 1e-10

    def test_i_negative_fractional_order(self):
        # needed by the 0F1 identity when b < 1
        assert rel_err(bessel_i(-0.4, 0.3), float(mp.besseli(-0.4, 0.3))) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_i(-1.0, 1.0)
        with pytest.raises(ValueError):
            bessel_k(1.0, 0.0)


class TestMeijerG:
    def test_gauss_reduction_oracle(self, jacobi_params):
        # independent closed form on (0,1): 2F1(1-a, 1-a; 1; 1-x)
        m, nu = jacobi_params.m, jacobi_params.nu
        a = m + nu
        for x in (0.01, 0.1, 0.35, 0.7, 0.95):
            got = meijer_g_canonical(x, m, nu)
            ref = hyp_2f1(1.0 - a, 1.0 - a, 1.0, 1.0 - x)
            assert rel_err(got, ref) < 1e-8

    def test_reference_evaluator(self):
        for (m, nu) in ((0, 0.3), (2, 0.7), (3, 1.2)):
            a = m + nu
            for x in (0.05, 0.4, 0.9):
                got = meijer_g_canonical(x, m, nu)
                ref = float(
                    mp.meijerg([[], [a, a]], [[0, 2 * a - 1], []], x)
                )
                assert rel_err(got, ref) < 1e-8

    def test_vanishes_outside_unit_interval(self, jacobi_params):
        spec = default_contour(1, 0.5)
        for x in (1.5, 2.0, 10.0):
            assert abs(meijer_g_2022(x, jacobi_params, spec)) < 1e-10

    def test_mellin_consistency(self, jacobi_params):
        # integer moments of the scaled G reproduce the full gamma product
        m, nu = jacobi_params.m, jacobi_params.nu
        u, lw = np.polynomial.legendre.leggauss(320)
        x = 0.5 * (u + 1.0)
        w = 0.5 * lw
        vals = np.asarray(meijer_g_2022(x, jacobi_params))
        for s in range(1, 9):
            got = float(np.dot(w * vals, x ** (s - 1.0)))
            ref = float(
                mp.gamma(1 - nu - m - s) ** 2 * mp.gamma(s) * mp.gamma(2 * m + 2 * nu + s - 1)
            )
            assert rel_err(got, ref) < 1e-6

    def test_total_mass_is_s1_gamma_product(self, jacobi_params):
        # int_0^1 G dx equals the gamma product at s = 1
        m, nu = jacobi_params.m, jacobi_params.nu
        u = np.polynomial.legendre.leggauss(240)
        x = 0.5 * (u[0] + 1.0)
        w = 0.5 * u[1]
        vals = np.array(meijer_g_canonical(x, m, nu)) * (
            math.pi / math.sin(math.pi * nu)
        ) ** 2
        got = float(np.dot(w, vals))
        ref = float(mp.gamma(-m - nu) ** 2 * mp.gamma(2 * m + 2 * nu))
        assert rel_err(got, ref) < 1e-6

    def test_contour_admissibility(self):
        bad = ContourSpec(real_shift=0.1, half_height=40.0, node_count=501)
        with pytest.raises(ValueError, match="separate"):
            meijer_g_canonical(0.5, 0, 0.3, bad)  # needs real_shift > 1 - b = 0.4

    def test_contourspec_validation(self):
        with pytest.raises(ValueError):
            ContourSpec(real_shift=1.0, half_height=-1.0, node_count=100)
        with pytest.raises(ValueError):
            ContourSpec(real_shift=1.0, half_height=10.0, node_count=1)

    def test_literal_scaling_singular_at_integer_nu(self):
        p = FamilyParams(1, 1.0, Family.JACOBI)
        with pytest.raises(ValueError, match="integer nu"):
            meijer_g_2022(0.5, p)
