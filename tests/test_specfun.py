"""Special functions against independent oracles: the certified series, the
log-gamma and Pochhammer values behind h_n, and the closed forms behind the
weight densities."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import iv

from ghcs import specfun
from ghcs.measure import density
from ghcs.specfun import SeriesControl, hyp_0f1
from ghcs.states import (
    Family,
    FamilyParams,
    coeff_h,
    log_coeff_h,
    normalization,
    state,
)
from ghcs.thermal import number_moment

from conftest import _sum_ratio_series, rel_err

mp.mp.dps = 40


class TestHypSeries:
    def test_0f1_at_zero(self):
        assert hyp_0f1(2.0, 0.0) == 1.0

    def test_0f1_bessel_identity(self):
        # 0F1(b; x) = Gamma(b) x^{(1-b)/2} I_{b-1}(2 sqrt x)
        for b in (2.0, 3.4, 7.0):
            for x in np.logspace(-3, math.log10(30.0), 20):
                lhs = hyp_0f1(b, float(x))
                rhs = math.exp(math.lgamma(b)) * x ** ((1.0 - b) / 2.0) * iv(
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

    def test_0f1_rejects_complex(self):
        # complex arguments belong to the Bessel closed form in dynamics
        for x in (0.5 + 0.5j, 2.0 + 0j, np.array([0.1, 0.2j])):
            with pytest.raises(ValueError, match="real"):
                hyp_0f1(2.0, x)

    def test_0f1_nonconvergence(self):
        with pytest.raises(specfun.ConvergenceError):
            hyp_0f1(2.0, 50.0, SeriesControl(max_terms=3))



# Term-by-term references for the array summation: `_sum_ratio_series` on
# Python floats, with the ratios in the same association.
def _loop_norm(params, x, ctl=specfun.DEFAULT_SERIES):
    b = params.b
    if params.family is Family.BESSEL:
        ratio = lambda k: x / ((k + 1.0) * (b + k))  # noqa: E731
    else:
        shift = params.coeff_shift
        ratio = lambda k: x * ((shift + k) * (shift + k)) / ((k + 1.0) * (b + k))  # noqa: E731
    return _sum_ratio_series(1.0, ratio, ctl)


def _loop_0f1(b, x, ctl=specfun.DEFAULT_SERIES):
    return _sum_ratio_series(1.0, lambda k: x / ((k + 1.0) * (b + k)), ctl)


_NORM_PARAMS = [
    FamilyParams(m, nu, family)
    for family in (Family.BESSEL, Family.JACOBI)
    for m, nu in ((0, 0.05), (0, 0.7), (1, 0.5), (2, 0.7), (3, 2.45))
]


def _norm_grid(params):
    if params.family is Family.BESSEL:
        return np.concatenate((np.linspace(0.0, 50.0, 101), [1e-9, 0.4, 400.0, 3000.0]))
    # near x = 1 the series runs past k = 678, where libm pow and numpy's
    # square of shift + k first differ for m = 0, nu = 0.05; at these three
    # x that last bit reaches the sum
    return np.concatenate((np.linspace(0.0, 0.98, 99), [1e-9, 0.99, 0.995],
                           [0.9967939698492463, 0.9970351758793969, 0.9975175879396985]))


class TestArraySeries:
    """normalization and hyp_0f1 on whole arrays against the term-by-term
    loop `_sum_ratio_series`: bit for bit, and the same raise or value at
    every budget, across the 64/128/256 chunk boundaries."""

    @pytest.mark.parametrize("params", _NORM_PARAMS, ids=lambda p: f"{p.family.value}-m{p.m}-nu{p.nu}")
    def test_normalization_bit_identical(self, params):
        xs = _norm_grid(params)
        got = normalization(params, xs)
        ref = np.array([_loop_norm(params, float(x)) for x in xs])
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("b", [0.1, 0.6, 1.0, 3.0, 5.4, 10.9])
    def test_0f1_bit_identical(self, b):
        xs = np.concatenate((np.linspace(0.0, 50.0, 101), [1e-9, 0.4, 400.0, 3000.0, 9e4]))
        got = hyp_0f1(b, xs)
        ref = np.array([_loop_0f1(b, float(x)) for x in xs])
        assert np.array_equal(got, ref)
        assert type(hyp_0f1(b, 0.4)) is float and hyp_0f1(b, 0.4) == ref[-4]

    @pytest.mark.parametrize("b", [41.0, 81.0, 201.0])
    def test_complex_0f1_series_matches_the_loop(self, b):
        # the density sums this series where I_{b-1}(2 sqrt w) underflows;
        # numpy's complex division may round a ratio apart from Python's
        xs = np.array([1e-8 + 0j, -3e-6j, 0.5 - 2.0j, -3.0 + 0.1j, 0.0, 1e-300j])
        got = specfun._hyp_0f1_series(b, xs)
        ref = np.array([_loop_0f1(b, complex(x)) for x in xs])
        assert np.all(np.abs(got - ref) <= 4.0 * np.finfo(float).eps * np.abs(ref))
        assert type(specfun._hyp_0f1_series(b, 0.5 - 2.0j)) is complex

    @pytest.mark.parametrize("max_terms", [1, 63, 64, 65, 191, 192, 193])
    def test_budget_matches_loop(self, max_terms):
        ctl = SeriesControl(max_terms=max_terms)
        cases = [
            (lambda x: normalization(FamilyParams(1, 0.5, Family.JACOBI), x, ctl),
             lambda x: _loop_norm(FamilyParams(1, 0.5, Family.JACOBI), x, ctl),
             np.linspace(0.05, 0.95, 37)),
            (lambda x: normalization(FamilyParams(0, 0.3, Family.BESSEL), x, ctl),
             lambda x: _loop_norm(FamilyParams(0, 0.3, Family.BESSEL), x, ctl),
             np.geomspace(1e-3, 3e4, 37)),
        ]
        for array_fn, loop_fn, xs in cases:
            refs = []
            for x in xs.tolist():
                try:
                    refs.append(loop_fn(x))
                except specfun.ConvergenceError:
                    refs.append(None)
                try:
                    got = array_fn(x)
                except specfun.ConvergenceError as exc:
                    assert refs[-1] is None, (max_terms, x)
                    assert f"within {max_terms} terms at x = {x!r}" in str(exc)
                else:
                    assert got == refs[-1], (max_terms, x)
            failed = [x for x, r in zip(xs.tolist(), refs) if r is None]
            if failed:
                # the whole-array call names the first x that ran out
                with pytest.raises(specfun.ConvergenceError, match=f"at x = {failed[0]!r}$"):
                    array_fn(xs)
            else:
                assert np.array_equal(array_fn(xs), np.array(refs))

    def test_budget_cases_cover_both_outcomes(self):
        # the budget test above sees converging and exhausted series at the
        # chunk boundaries, not only one of the two
        ctl = SeriesControl(max_terms=64)
        xs = np.linspace(0.05, 0.95, 37)
        p = FamilyParams(1, 0.5, Family.JACOBI)
        outcomes = set()
        for x in xs.tolist():
            try:
                _loop_norm(p, x, ctl)
                outcomes.add("value")
            except specfun.ConvergenceError:
                outcomes.add("raise")
        assert outcomes == {"value", "raise"}

    def test_zero_is_one_without_summing(self):
        ctl = SeriesControl(max_terms=1)
        assert hyp_0f1(2.0, 0.0, ctl) == 1.0
        assert normalization(FamilyParams(1, 0.5, Family.JACOBI), 0.0, ctl) == 1.0

    def test_scalar_and_array_contract(self):
        p = FamilyParams(1, 0.5, Family.JACOBI)
        for fn in (lambda x: normalization(p, x), lambda x: hyp_0f1(3.0, x)):
            assert type(fn(0.4)) is float
            assert type(fn(np.float64(0.4))) is float
            assert type(fn(np.array(0.4))) is float
            grid = np.array([[0.1, 0.2], [0.3, 0.4]])
            out = fn(grid)
            assert isinstance(out, np.ndarray) and out.shape == (2, 2)
            assert out[1, 1] == fn(0.4)
            empty = fn(np.array([]))
            assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    def test_domain_errors(self):
        pj = FamilyParams(1, 0.5, Family.JACOBI)
        pb = FamilyParams(1, 0.5, Family.BESSEL)
        with pytest.raises(ValueError, match=">= 0"):
            normalization(pb, np.array([0.5, -0.1]))
        with pytest.raises(ValueError, match="normalization domain"):
            normalization(pj, np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="normalization domain"):
            normalization(pj, np.array([np.nan]))

    def test_budget_error_names_series_x_and_budget(self):
        p = FamilyParams(1, 0.5, Family.JACOBI)
        with pytest.raises(specfun.ConvergenceError) as exc:
            normalization(p, np.array([0.2, 0.999, 0.9995]))
        assert str(exc.value) == (
            "jacobi normalization series did not converge within 20000 terms "
            "at x = 0.999"
        )
        with pytest.raises(specfun.ConvergenceError, match=r"^0F1\(2.0; x\) series did not "
                           r"converge within 3 terms at x = 50.0$"):
            hyp_0f1(2.0, np.array([0.0, 50.0]), SeriesControl(max_terms=3))


_RATIO_BS = [0.02, 0.1, 0.7, 2.0, 3.0, 10.6, 21.0, 119.4, 200.0]
_RATIO_XS = (np.geomspace(1e-300, 1e8, 31).tolist() + [0.1, 0.98, 3.7, 50.0, 1e3, 4.4e4, 3.3e7]
             + np.geomspace(1e8, 1e9, 4)[1:].tolist())


def _ratio_falling(b, x):
    # (D1, D2) = (N'/N, N''/N) of N = 0F1(; b; x): the bessel falling
    # moments at m = 0, nu = b / 2, which read them from the ratios
    params = FamilyParams(0, b / 2.0, Family.BESSEL)
    return tuple(number_moment(params, x, s, falling=True) for s in (1, 2))


class TestHypRatios:
    """rho_c = 0F1(; c+1; x) / 0F1(; c; x) from the bracketed backward
    recurrence, against mpmath at 40 digits."""

    @pytest.mark.parametrize("b", _RATIO_BS)
    def test_falling_moments_against_mpmath(self, b):
        for x in _RATIO_XS:
            d1, d2 = _ratio_falling(b, x)
            # b + k in mpmath, as a float sum may round off b's last bit
            f = [mp.hyp0f1(mp.mpf(b) + k, x) / mp.rf(b, k) for k in range(3)]
            assert rel_err(d1, f[1] / f[0]) <= 4e-15, x
            assert rel_err(d2, f[2] / f[0]) <= 4e-15, x

    @pytest.mark.parametrize("b", _RATIO_BS)
    def test_both_brackets_are_the_returned_value(self, b):
        # the sweeps from rho = 0 and rho = 1 meet at the first depth, but
        # for b = 10.6 at x = 4.6e8: that needs 1337 levels, 8 past its start
        # depth, and meets at the routine's next try, the 1600-level budget
        for x in _RATIO_XS:
            depth = min(specfun._ratio_depth(x), specfun._RATIO_MAX_LEVELS)
            if (b, x) == (10.6, _RATIO_XS[-2]):
                depth = specfun._RATIO_MAX_LEVELS
            lo, hi = specfun._ratio_brackets(b, x, depth)
            assert lo == hi
            assert 1.0 / lo == specfun._hyp_0f1_ratios(b, x)[1]

    def test_large_b_meets_within_the_start_depth(self):
        # the start depth does not grow with b: at b = 4000 the step
        # contracts from c = b on, so x = 4e8 meets within the 1280 levels
        # of its start depth, far short of sqrt x - b = 16000
        b, x = 4000.0, 4e8
        d1, d2 = _ratio_falling(b, x)
        f = [mp.hyp0f1(b + k, x, maxterms=10**6) / mp.rf(b, k) for k in range(3)]
        assert rel_err(d1, f[1] / f[0]) <= 4e-15
        assert rel_err(d2, f[2] / f[0]) <= 4e-15
        assert specfun._ratio_depth(x) == 1280
        lo, hi = specfun._ratio_brackets(b, x, 1280)
        assert lo == hi == 1.0 / specfun._hyp_0f1_ratios(b, x)[1]
        assert specfun._ratio_brackets(b, x, 16040) == (lo, hi)
        ctl = SeriesControl(max_terms=1280)
        assert specfun._hyp_0f1_ratios(b, x, ctl) == specfun._hyp_0f1_ratios(b, x)

    def test_zero_gives_the_first_coefficients(self):
        for b in _RATIO_BS:
            assert _ratio_falling(b, 0.0) == (1.0 / b, 1.0 / (b * (b + 1.0)))

    def test_every_accepting_depth_gives_the_same_bits(self, monkeypatch):
        # a sweep started deeper lies inside the bracket at every level: from
        # a start depth of 1 every x needs doubled depths, meets at a power
        # of two, and lands on the bits of the default start; an array
        # element is the float call's value
        xs = np.array([0.0, 1e-300, 0.5, 7.0, 300.0, 1e4, 2.5e6])
        for b in (0.3, 3.0, 60.0):
            ref = [specfun._hyp_0f1_ratios(b, x) for x in xs.tolist()]
            monkeypatch.setattr(specfun, "_ratio_depth", lambda x: 1)
            assert [specfun._hyp_0f1_ratios(b, x) for x in xs.tolist()] == ref
            got = specfun._hyp_0f1_ratios(b, xs)
            assert [got[0].tolist(), got[1].tolist()] == [list(r) for r in zip(*ref)]
            monkeypatch.undo()

    def test_the_last_depth_tried_is_the_budget(self, monkeypatch):
        # from a start depth of 41, b = 60 and x = 1e4 first meet at 49: a
        # budget of 60 is tried after 41, not skipped for 82, and a budget
        # of 48 raises; floats and arrays alike
        ref = specfun._hyp_0f1_ratios(60.0, 1e4)
        monkeypatch.setattr(specfun, "_ratio_depth", lambda x: 41)
        assert specfun._hyp_0f1_ratios(60.0, 1e4, SeriesControl(max_terms=60)) == ref
        got = specfun._hyp_0f1_ratios(60.0, np.array([0.5, 1e4]), SeriesControl(max_terms=60))
        assert (got[0][1], got[1][1]) == ref
        for x in (1e4, np.array([0.5, 1e4])):
            with pytest.raises(specfun.ConvergenceError, match=r"within 48 steps at x = 10000.0$"):
                specfun._hyp_0f1_ratios(60.0, x, SeriesControl(max_terms=48))

    def test_arrays_keep_their_shape(self):
        xs = np.geomspace(1e-3, 1e5, 6).reshape(2, 3)
        r0, r1 = specfun._hyp_0f1_ratios(1.5, xs)
        assert r0.shape == r1.shape == (2, 3)
        assert list(zip(r0.ravel().tolist(), r1.ravel().tolist())) == [
            specfun._hyp_0f1_ratios(1.5, x) for x in xs.ravel().tolist()]
        assert specfun._hyp_0f1_ratios(1.5, np.array([]))[0].shape == (0,)
        assert all(type(r) is float for r in specfun._hyp_0f1_ratios(1.5, np.float64(2.0)))

    def test_budget_error_names_x_and_budget(self):
        # x = 1e7 at b = 3 first meets at 478 levels, so a budget of 300
        # raises; a budget of its start depth, 514, gives the default value
        ctl = SeriesControl(max_terms=300)
        for x in (1e7, np.array([2.0, 1e7, 1e8])):
            with pytest.raises(specfun.ConvergenceError) as exc:
                specfun._hyp_0f1_ratios(3.0, x, ctl)
            assert str(exc.value) == ("0F1(3.0; x) ratios did not converge within 300 "
                                      "steps at x = 10000000.0")
        assert specfun._hyp_0f1_ratios(3.0, 1e7, SeriesControl(max_terms=514)) == (
            specfun._hyp_0f1_ratios(3.0, 1e7))

    def test_no_budget_sweeps_past_the_level_cap(self):
        # x = 2e9 at b = 3 first meets at 1826 levels, past the 1600 beyond
        # which D1 and D2 leave 4e-15, so it is refused at any larger
        # budget; b = 200 meets sooner and is taken at 1.2e9 (1431 levels)
        for ctl in (specfun.DEFAULT_SERIES, SeriesControl(max_terms=10**6)):
            for x in (2e9, np.array([2.0, 2e9])):
                with pytest.raises(specfun.ConvergenceError) as exc:
                    specfun._hyp_0f1_ratios(3.0, x, ctl)
                assert str(exc.value) == ("0F1(3.0; x) ratios did not converge within 1600 "
                                          "steps at x = 2000000000.0")
        lo, hi = specfun._ratio_brackets(200.0, 1.2e9, 1600)
        assert lo == hi == 1.0 / specfun._hyp_0f1_ratios(200.0, 1.2e9)[1]


class TestLogGamma:
    """Log-gamma as the library uses it: math.lgamma sums in the log h_n table."""

    def test_real_sweep(self):
        # error relative to the largest log-gamma term, which the jacobi
        # difference of near-equal terms cancels down to O(log n)
        for family in (Family.BESSEL, Family.JACOBI):
            for m, nu in ((0, 0.05), (0, 0.5), (1, 0.5), (3, 2.7), (7, 13.25)):
                p = FamilyParams(m, nu, family)
                b = 2 * m + 2 * mp.mpf(nu)
                for n in (0, 1, 2, 5, 17, 100, 999, 4000, 16384):
                    ref = (mp.loggamma(n + 1) + mp.loggamma(b + n) - mp.loggamma(b)) / 2
                    if family is Family.JACOBI:
                        s = m + mp.mpf(nu) + 1
                        ref -= mp.loggamma(s + n) - mp.loggamma(s)
                    scale = max(1.0, float(mp.loggamma(b + n)))
                    assert abs(log_coeff_h(p, n) - float(ref)) / scale < 1e-14, (p, n)


class TestPochhammer:
    """The defining jacobi coefficient (-m-n-nu)_n: the amplitudes keep its
    sign, and h_n = sqrt(n! (b)_n) / |(-m-n-nu)_n|."""

    def test_reflection_identity(self):
        # (-m-n-nu)_n = (-1)^n (m+nu+1)_n
        for m in range(0, 21, 4):
            for n in range(0, 21, 3):
                for nu in (0.3, 0.5, 1.7):
                    p = FamilyParams(m, nu, Family.JACOBI)
                    lhs = mp.rf(-m - n - mp.mpf(nu), n)
                    # the amplitude at a positive real label has the sign of lhs
                    assert np.sign(state(p, 0.5).coeffs[n].real) == mp.sign(lhs)
                    rhs = mp.sqrt(mp.factorial(n) * mp.rf(2 * m + 2 * mp.mpf(nu), n)) / coeff_h(p, n)
                    assert rel_err(float(abs(lhs)), float(rhs)) < 1e-13

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            log_coeff_h(FamilyParams(1, 0.5, Family.JACOBI), -1)


def _bessel_density_ref(b, x):
    # 2 x^{(b-1)/2} K_{b-1}(2 sqrt x) / Gamma(b), in high precision
    x = mp.mpf(x)
    return float(2 * x ** ((b - 1) / 2) * mp.besselk(b - 1, 2 * mp.sqrt(x)) / mp.gamma(b))


def _bessel_params(b):
    return FamilyParams(0, b / 2.0, Family.BESSEL)


class TestBessel:
    """Modified Bessel functions as the library evaluates them: K inside the
    bessel weight density (scipy's kv/kve), I through the 0F1 series."""

    def test_i_reference(self):
        # 0F1(2; 1) = I_1(2)
        assert rel_err(hyp_0f1(2.0, 1.0), 1.5906368546373291) < 1e-12

    def test_i_negative_fractional_order(self):
        # the 0F1 identity at b = 0.6 < 1 needs I of order -0.4
        b, x = 0.6, 0.0225
        ref = mp.gamma(b) * mp.mpf(x) ** ((1 - b) / 2) * mp.besseli(b - 1, 2 * mp.sqrt(x))
        assert rel_err(hyp_0f1(b, x), float(ref)) < 1e-12

    def test_k_half_integer(self):
        # b = 3/2: K_{1/2}(t) = sqrt(pi/(2t)) e^{-t}, so omega(x) = 2 e^{-2 sqrt x}
        p = _bessel_params(1.5)
        for x in (1e-8, 0.3, 1.0, 12.0, 400.0):
            assert rel_err(density(p, x), 2.0 * math.exp(-2.0 * math.sqrt(x))) < 1e-13

    def test_sweep_against_reference(self):
        # orders b - 1 from -0.8 to 20, x from 1e-12 out to 1e4 (2 sqrt x = 200)
        xs = np.logspace(-12.0, 4.0, 33)
        for b in (0.2, 0.7, 1.0, 1.5, 2.0, 4.7, 13.3, 21.0):
            got = density(_bessel_params(b), xs)
            for x, g in zip(xs, got):
                assert rel_err(g, _bessel_density_ref(b, x)) < 1e-12, (b, x)

    def test_k_integer_order_limit(self):
        # integer orders, b = 1 being the logarithmic case at the origin
        for order in (0, 1, 2, 6):
            b = order + 1.0
            for t in (0.05, 1.0, 1.99):
                x = 0.25 * t * t
                assert rel_err(density(_bessel_params(b), x), _bessel_density_ref(b, x)) < 1e-12

    def test_k_scaled(self):
        # deep in the exponential tail, where K alone is ~1e-131
        x = 22500.0  # 2 sqrt x = 300
        assert rel_err(density(_bessel_params(3.0), x), _bessel_density_ref(3.0, x)) < 1e-12


def _jacobi_constant(p):
    return math.exp(2.0 * math.lgamma(p.a + 1.0) - math.lgamma(p.b))


class TestMeijerG:
    """The jacobi weight density, Gamma(a+1)^2 / Gamma(b) times
    G^{2,0}_{2,2}(x | a,a; 0,2a-1), as `measure.density` evaluates it."""

    def test_gauss_reduction_oracle(self, jacobi_params):
        # mpmath's 2F1 at 1 - x, an implementation independent of scipy's
        # hyp2f1
        a = jacobi_params.a
        for x in (0.01, 0.1, 0.35, 0.7, 0.95):
            ref = _jacobi_constant(jacobi_params) * float(mp.hyp2f1(1 - a, 1 - a, 1, 1 - mp.mpf(x)))
            assert rel_err(density(jacobi_params, x), ref) < 1e-12

    def test_reference_evaluator(self):
        # mpmath's Meijer G over x in [1e-6, 1 - 1e-6]
        xs = np.concatenate([np.logspace(-6.0, -1.0, 6), [0.3, 0.6], 1.0 - np.logspace(-1.0, -6.0, 6)])
        for m, nu in ((0, 0.1), (0, 0.5), (1, 0.3), (2, 0.7), (3, 1.2), (3, 2.5)):
            p = FamilyParams(m, nu, Family.JACOBI)
            a = p.a
            got = density(p, xs)
            for x, g in zip(xs, got):
                g_ref = mp.meijerg([[], [a, a]], [[0, 2 * a - 1], []], mp.mpf(float(x)))
                ref = float(mp.gamma(a + 1) ** 2 / mp.gamma(2 * a) * g_ref)
                assert rel_err(g, ref) < 1e-10, (m, nu, x)

    def test_vanishes_outside_unit_interval(self, jacobi_params):
        a = jacobi_params.a
        for x in (1.5, 2.0, 10.0):
            assert mp.meijerg([[], [a, a]], [[0, 2 * a - 1], []], x) == 0
            assert density(jacobi_params, x) == 0.0
        assert density(jacobi_params, 1.0) == 0.0

    def test_mellin_consistency(self, jacobi_params):
        # integer moments reproduce the gamma product of the paper's Mellin
        # transform, [Gamma(1-a-s)]^2 Gamma(s) Gamma(b+s-1), once its
        # (pi / sin(pi nu))^2 prefactor and the density constant are applied
        m, nu = jacobi_params.m, jacobi_params.nu
        a, b = jacobi_params.a, jacobi_params.b
        u, lw = np.polynomial.legendre.leggauss(320)
        x = 0.5 * (u + 1.0)
        w = 0.5 * lw
        vals = density(jacobi_params, x)
        scale = (mp.sin(mp.pi * nu) / mp.pi) ** 2 * mp.gamma(a + 1) ** 2 / mp.gamma(b)
        for s in range(1, 9):
            got = float(np.dot(w * vals, x ** (s - 1.0)))
            ref = float(
                scale * mp.gamma(1 - nu - m - s) ** 2 * mp.gamma(s) * mp.gamma(2 * m + 2 * nu + s - 1)
            )
            assert rel_err(got, ref) < 1e-10

    def test_total_mass_is_s1_gamma_product(self, jacobi_params):
        # the s = 1 gamma product: unit mass
        m, nu = jacobi_params.m, jacobi_params.nu
        a, b = jacobi_params.a, jacobi_params.b
        u = np.polynomial.legendre.leggauss(240)
        x = 0.5 * (u[0] + 1.0)
        w = 0.5 * u[1]
        got = float(np.dot(w, density(jacobi_params, x)))
        ref = float(
            (mp.sin(mp.pi * nu) / mp.pi) ** 2 * mp.gamma(a + 1) ** 2 / mp.gamma(b)
            * mp.gamma(-m - nu) ** 2 * mp.gamma(2 * m + 2 * nu)
        )
        assert rel_err(got, ref) < 1e-10
