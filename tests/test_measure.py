"""Weight density, quadrature rules and the moment certificate."""

import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln, hyp2f1

from ghcs import families, measure, specfun
from ghcs.families import _gauss_genlaguerre, _tanh_sinh
from ghcs.kernel import check_idempotence
from ghcs.measure import (
    QuadratureRule,
    _cached_rule,
    WeightCurve,
    default_figure_curves,
    density,
    figure1_columns,
    radial_rule,
    target_moments,
    verify_identity,
)
from ghcs.states import Family, FamilyParams, _log_h_array, normalization

from conftest import rel_err

mp.mp.dps = 40


def gamma_product_moment(params, n, exact=False):
    """Independent oracle: the n-th moment as a pure gamma product, as a
    float or (exact) an mpmath number, which holds it past the float range."""
    m, nu = params.m, mp.mpf(params.nu)
    b = 2 * m + 2 * nu
    mom = mp.factorial(n) * mp.rf(b, n)
    if params.family is Family.JACOBI:
        mom /= mp.rf(m + nu + 1, n) ** 2
    return mom if exact else float(mom)


class TestDensity:
    def test_bessel_total_mass(self, bessel_params, bessel_rule):
        assert rel_err(math.exp(bessel_rule.log_moments([0.0])[0]), 1.0) < 1e-12

    def test_bessel_first_moment(self, bessel_params, bessel_rule):
        # K-Bessel moment identity: int x omega dx = 1! (3)_1 = 3
        assert rel_err(math.exp(bessel_rule.log_moments([1.0])[0]), 3.0) < 1e-12

    def test_bessel_density_closed_form(self, bessel_params):
        # omega(x) = 2 x^{(b-1)/2} K_{b-1}(2 sqrt x) / Gamma(b)
        for x in (0.1, 1.0, 7.5):
            ref = float(2.0 * x * mp.besselk(2, 2 * mp.sqrt(x)) / mp.gamma(3))
            assert rel_err(density(bessel_params, x), ref) < 1e-12

    def test_jacobi_first_moment(self, jacobi_params, jacobi_rule):
        # 1! (3)_1 / ((2.5)_1)^2 = 3 / 6.25
        assert rel_err(math.exp(jacobi_rule.log_moments([1.0])[0]), 3.0 / 6.25) < 1e-10

    def test_jacobi_third_moment_gamma_products(self, jacobi_params, jacobi_rule):
        # 3! (3)_3 / ((2.5)_3)^2
        ref = 6.0 * 60.0 / (2.5 * 3.5 * 4.5) ** 2
        assert rel_err(math.exp(jacobi_rule.log_moments([3.0])[0]), ref) < 1e-10

    def test_jacobi_density_positive_inside(self, jacobi_params):
        xs = np.linspace(0.02, 0.98, 25)
        vals = density(jacobi_params, xs)
        assert np.all(vals > 0.0)

    def test_jacobi_density_zero_outside(self, jacobi_params):
        assert density(jacobi_params, 1.5) == 0.0
        assert density(jacobi_params, 2.0) == 0.0

    def test_rejects_negative(self, bessel_params):
        with pytest.raises(ValueError):
            density(bessel_params, -0.5)

    @pytest.mark.parametrize("b, tol", [
        (0.2, 5e-13), (1.5, 5e-13), (3.0, 5e-13), (5.0, 5e-13), (6.6, 5e-13), (40.2, 5e-12),
    ])
    def test_bessel_density_against_mpmath(self, b, tol):
        # down to x = 1e-300, where kve overflows from b = 5 on and log K
        # comes from its small-argument series; the error grows as eps b |log t|
        params = FamilyParams(0, b / 2.0, Family.BESSEL)
        xs = np.logspace(-300.0, 5.0, 62)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = density(params, xs)
        bm = mp.mpf(params.b)
        for x, value in zip(xs.tolist(), got):
            xm = mp.mpf(x)
            ref = 2 * xm ** ((bm - 1) / 2) * mp.besselk(bm - 1, 2 * mp.sqrt(xm)) / mp.gamma(bm)
            assert abs(value / ref - 1) <= tol, x

    def test_bessel_density_past_the_float_range_is_an_overflow_error(self):
        # at b = 81 kve overflows for x below about 2.1e-5, and the series is
        # taken only from x = 1.1e-6 down (its next term below 1e-16), so the
        # band between raises, naming b and its first x; x = 1e-6 is finite
        params = FamilyParams(0, 40.5, Family.BESSEL)
        x = mp.mpf(1e-6)
        ref = 2 * x ** 40 * mp.besselk(80, 2 * mp.sqrt(x)) / mp.gamma(81)
        assert abs(density(params, 1e-6) / ref - 1) <= 5e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"^the bessel density at b = 81\.0 "
                                                    r"passes the float range at x = 1e-05$"):
                density(params, np.array([1e-3, 1e-6, 1e-5, 2e-5]))


class TestRule:
    def test_weights_nonnegative(self, bessel_rule, jacobi_rule):
        # every kept log weight is finite: a weight that is positive
        assert np.all(np.isfinite(bessel_rule.log_weights))
        assert np.all(np.isfinite(jacobi_rule.log_weights))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_positive_weight_validation(self, bad):
        with pytest.raises(ValueError, match="NaN or [+]inf"):
            QuadratureRule(nodes=np.array([1.0, 2.0]), log_weights=np.array([0.0, bad]))

    def test_a_zero_weight_drops_its_node(self):
        rule = QuadratureRule(nodes=np.array([1.0, 2.0, 3.0]),
                              log_weights=np.array([0.0, -math.inf, -1.0]))
        assert rule.nodes.tolist() == [1.0, 3.0]
        assert rule.log_weights.tolist() == [0.0, -1.0]

    @pytest.mark.parametrize("arg", [240.0, 20.5, "240"])
    @pytest.mark.parametrize("call, name", [
        (lambda p, v: radial_rule(p, v), "n_nodes"),
        (lambda p, v: verify_identity(p, v), "n_check"),
    ], ids=["radial_rule", "verify_identity"])
    def test_a_non_integer_count_is_a_value_error(self, bessel_params, call, name, arg):
        # named up front, not a TypeError from inside numpy
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {arg!r}$"):
            call(bessel_params, arg)

    @pytest.mark.parametrize("count", [np.int64(240), np.int32(240), np.uint16(240)])
    def test_numpy_integer_counts_are_accepted(self, bessel_params, count):
        assert radial_rule(bessel_params, count) is radial_rule(bessel_params)
        assert verify_identity(bessel_params, count // 12).passed

    @pytest.mark.parametrize("family, m", [
        (Family.BESSEL, 43), (Family.BESSEL, 400), (Family.JACOBI, 86),
    ])
    def test_an_infinite_weight_is_an_overflow_error(self, family, m):
        # at nu = 0.5 the bessel rule forms an inf weight from m = 43 on and
        # the jacobi rule at m = 86, without a numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as exc:
                radial_rule(FamilyParams(m, 0.5, family))
        assert str(exc.value) == (f"the {family.value} rule at m = {m}, nu = 0.5 on 240 "
                                  "nodes has a weight that is not finite")

    def test_a_nan_weight_is_not_dropped(self, monkeypatch):
        rule = families.BESSEL.rule

        def with_nan(params, n):
            nodes, weights = rule(params, n)
            weights = weights.copy()
            weights[3] = math.nan
            return nodes, weights

        monkeypatch.setattr(families.BESSEL, "rule", with_nan)
        with pytest.raises(OverflowError, match=r"^the bessel rule at m = 2, nu = 0.35 on 48 "):
            radial_rule(FamilyParams(2, 0.35, Family.BESSEL), 48)

    def test_log_moment_large_order(self, bessel_params, bessel_rule):
        # moments that overflow as plain powers stay finite in log space
        got = bessel_rule.log_moments([64.0])[0]
        ref = float(mp.log(mp.factorial(64) * mp.rf(3, 64)))
        assert abs(got - ref) < 1e-9 * abs(ref)


    def test_log_moments_blocks_match_one_dense_sum(self, bessel_rule, jacobi_rule):
        # the log-sum-exp over the whole (orders x nodes) matrix, bit for bit,
        # across the 256-order block boundaries
        for rule in (bessel_rule, jacobi_rule):
            e = np.concatenate((np.arange(600.0), [0.5, 1e4]))
            g = e[:, None] * np.log(rule.nodes)[None, :] + rule.log_weights[None, :]
            top = np.max(g, axis=1)
            ref = top + np.log(np.sum(np.exp(g - top[:, None]), axis=1))
            assert np.array_equal(rule.log_moments(e), ref)
            assert rule.log_moments([]).shape == (0,)

    def test_integer_log_moments_are_prefixes_of_one_table(self):
        rule = radial_rule(FamilyParams(1, 0.5, Family.BESSEL), 100)
        ref = rule.log_moments(np.arange(600.0))
        for n_max in (20, 0, 33, 20, 300, 599):
            got = rule._integer_log_moments(n_max)
            assert np.array_equal(got, ref[: n_max + 1])
            assert not got.flags.writeable
        # grown to the next power of two >= 599, computing only new orders
        assert len(rule._log_mu) == 1025
        assert np.array_equal(rule._log_mu[:600], ref)


class TestGaussLaguerreNodes:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("n", [2, 8, 131, 240, 392, 1000])
    def test_nodes_equal_the_tridiagonal_solver(self, n, alpha):
        # numpy's dense eigvalsh of the Jacobi matrix gives scipy's
        # tridiagonal eigenvalues bit for bit, so every rule is unchanged;
        # scipy.linalg is imported here only as the oracle
        from scipy.linalg import eigh_tridiagonal

        k = np.arange(n, dtype=float)
        ref = eigh_tridiagonal(2.0 * k + alpha + 1.0, np.sqrt(k[1:] * (k[1:] + alpha)),
                               eigvals_only=True)
        assert np.array_equal(_gauss_genlaguerre(n, alpha)[0], ref)


class TestRuleCache:
    @pytest.mark.parametrize("family, default", [(Family.BESSEL, 240), (Family.JACOBI, 240)])
    def test_default_nodes_resolve_to_one_rule(self, family, default):
        params = FamilyParams(1, 0.5, family)
        rule = radial_rule(params)
        assert radial_rule(params, default) is rule
        assert radial_rule(params, 0) is rule
        assert radial_rule(params, default + 8) is not rule

    @pytest.mark.parametrize("params", [
        FamilyParams(2, 0.7, Family.JACOBI),   # b = 5.4: tanh-sinh, 2F1 in 1 - x
        FamilyParams(0, 0.3, Family.JACOBI),   # b = 0.6: tanh-sinh, 2F1s in x near 0
        FamilyParams(2, 0.7, Family.BESSEL),   # b = 5.4: Laguerre t e^{-t}
        FamilyParams(0, 0.6, Family.BESSEL),   # b = 1.2: tanh-sinh + Laguerre tail
    ], ids=["jacobi-b-above-one", "jacobi-b-below-one", "bessel-laguerre", "bessel-tanh-sinh"])
    def test_rules_equal_fresh_builds(self, params):
        # a rule over cached base tables, a rule built after clearing both
        # caches, and a rule of other params in between that shares the
        # base tables: nodes and weights are the same bit for bit
        cached = radial_rule(params, 90)
        radial_rule(FamilyParams(params.m + 1, params.nu, params.family), 90)
        for cache in (_cached_rule, _gauss_genlaguerre, _tanh_sinh):
            cache.cache_clear()
        fresh = radial_rule(params, 90)
        assert fresh is not cached
        assert np.array_equal(fresh.nodes, cached.nodes)
        assert np.array_equal(fresh.log_weights, cached.log_weights)

    def test_base_tables_are_shared_and_read_only(self):
        for build in (lambda: _gauss_genlaguerre(70, 1.0), lambda: _gauss_genlaguerre(70, 0.0),
                      lambda: _tanh_sinh(70)):
            first = build()
            assert build() is first
            for values in first:
                assert values.shape == (70,)
                with pytest.raises(ValueError):
                    values[0] = 1.0
        assert _gauss_genlaguerre.cache_info().maxsize == 8
        assert _tanh_sinh.cache_info().maxsize == 8

    def test_arrays_are_read_only(self, bessel_rule, jacobi_rule):
        for rule in (bessel_rule, jacobi_rule):
            for values in (rule.nodes, rule.log_weights):
                with pytest.raises(ValueError):
                    values[0] = 1.0

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("nu", [0.2, 1.5])  # bessel b <= 1.5 and b > 1.5
    def test_fewer_than_eight_nodes_are_rejected(self, family, nu):
        params = FamilyParams(0, nu, family)
        for n in range(1, 8):
            with pytest.raises(ValueError, match=f"n_nodes must be at least 8 .*got {n}$"):
                radial_rule(params, n)
        with pytest.raises(ValueError, match="got -3$"):
            radial_rule(params, -3)
        assert radial_rule(params, 8).n_nodes <= 8
        assert radial_rule(params, 0) is radial_rule(params)

    def test_cache_is_bounded(self):
        params = FamilyParams(0, 0.4, Family.BESSEL)
        for n in range(60, 80):
            radial_rule(params, n)
        assert _cached_rule.cache_info().currsize <= 8


def gamma_product_log_moments(params, n_max):
    """The oracle's log moments for n = 0..n_max from float log-gammas,
    whose absolute error (about eps |log mu_n|) stays below 1e-12 here."""
    n = np.arange(n_max + 1.0)
    b = params.b
    out = gammaln(n + 1.0) + gammaln(b + n) - gammaln(b)
    if params.family is Family.JACOBI:
        s = params.m + params.nu + 1.0
        out -= 2.0 * (gammaln(s + n) - gammaln(s))
    return out


def rule_moment_error(params, n_max):
    rule = radial_rule(params)
    return np.abs(np.expm1(rule._integer_log_moments(n_max)
                           - gamma_product_log_moments(params, n_max)))


# nu on a 49-point grid over [0.1, 2.5], plus the points around b = 1 at m = 0
RULE_NU_GRID = [*np.linspace(0.1, 2.5, 49).tolist(), 0.499, 0.5, 0.501, 0.502]


class TestTanhSinhRule:
    """One tanh-sinh rule for both singular origins: the jacobi rule for
    every b and the bessel b <= 1.5 branch."""

    @pytest.mark.parametrize("nu", [0.05, 0.3, 0.486, 0.5])  # b = 0.1, 0.6, 0.972, 1
    def test_jacobi_density_near_the_origin_against_mpmath(self, nu):
        params = FamilyParams(0, nu, Family.JACOBI)
        xs = [1e-300, 1e-12, 1e-6, 0.3, 0.7]
        got = density(params, np.array(xs))
        with mp.workdps(50):
            a, b = mp.mpf(nu), 2 * mp.mpf(nu)
            const = mp.gamma(a + 1) ** 2 / mp.gamma(b)
            for x, value in zip(xs, got):
                ref = const * mp.meijerg([[], [a, a]], [[0, b - 1], []], mp.mpf(x))
                assert abs(value / ref - 1) <= 1e-13, x

    def test_jacobi_density_from_x_above_b_one_against_mpmath(self):
        # the x-form of DLMF 15.8.4 for non-integer b in (1, 12], and within
        # 1e-3 of an integer from 3 up scipy's 2F1 in 1 - x, where the
        # x-form cancels (1.4e-13 at b = 2.9999); 2.78e-14 is a tanh-sinh
        # node at which scipy's 2F1 in 1 - x errs 3.5e-2 at b = 1.1; next to
        # b = 2, where the x-form's third parameter 2 - b is a few ulp from 0
        bs = [1.01, 1.1, 1.2, 1.4, 1.7, 1.9999, 2.0 - 1e-14, math.nextafter(2.0, 1.0), 2.0,
              math.nextafter(2.0, 3.0), 2.0 + 1e-14, 2.0001, 2.5, 2.9999, 3.0, 3.0001,
              3.4, 3.7, 3.9999, 4.0, 4.0001, 5.3, 6.6, 7.9, 9.2, 10.5, 11.5, 12.0]
        xs = [1e-300, 1e-100, 1e-30, 1e-15, 2.78e-14, 1e-12, 1e-8, 1e-4, 1e-2, 0.1,
              0.3, 0.49, 0.4999]
        worst = 0.0
        with mp.workdps(60):
            for b in bs:
                p = FamilyParams(0, b / 2.0, Family.JACOBI)
                a, bm = mp.mpf(p.a), mp.mpf(p.b)
                const = mp.gamma(a + 1) ** 2 / mp.gamma(bm)
                for x, value in zip(xs, density(p, np.array(xs))):
                    ref = const * mp.meijerg([[], [a, a]], [[0, bm - 1], []], mp.mpf(x))
                    worst = max(worst, abs(value / ref - 1))
        assert worst <= 1e-13

    def test_jacobi_rules_keep_every_node(self):
        # every weight is finite and positive, at b = 1 too, where the
        # density's logarithmic end is taken from x itself
        x, y, w = _tanh_sinh(240)
        for m in range(4):
            for nu in [*np.linspace(0.1, 2.5, 13).tolist(), 0.5]:
                params = FamilyParams(m, nu, Family.JACOBI)
                v = w * families.JACOBI._density(params, x, y)
                assert np.all(np.isfinite(v) & (v > 0.0)), (m, nu)
                assert radial_rule(params).n_nodes == 240

    def test_bessel_rules_keep_every_node(self):
        # the Laguerre log weights keep the far-tail nodes whose linear
        # weights underflow (the exponentiated weights kept 229 of 240)
        for m in range(4):
            for nu in np.linspace(0.1, 2.5, 13).tolist():
                params = FamilyParams(m, nu, Family.BESSEL)
                if params.b > 1.5:
                    assert radial_rule(params).n_nodes == 240, (m, nu)

    @pytest.mark.parametrize("m, kept", [(40, 239), (60, 238), (85, 237)])
    def test_a_zero_jacobi_weight_drops_its_node(self, m, kept):
        # where the density underflows to 0 the log weight is -inf: the node
        # is dropped, without a numpy warning, and is no OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert radial_rule(FamilyParams(m, 0.5, Family.JACOBI)).n_nodes == kept

    def test_jacobi_rule_moments_against_gamma_products(self):
        worst = max(rule_moment_error(FamilyParams(m, nu, Family.JACOBI), 600).max()
                    for m in range(4) for nu in RULE_NU_GRID)
        assert worst <= 1e-10

    @pytest.mark.parametrize("nu", [0.05, 0.3, 0.7, 0.75])  # m = 0: b <= 1.5
    def test_bessel_small_b_moments_reach_order_280(self, nu):
        assert rule_moment_error(FamilyParams(0, nu, Family.BESSEL), 280).max() <= 1e-8

    @pytest.mark.parametrize("family, nu, r", [
        (Family.JACOBI, 0.43, 0.5), (Family.JACOBI, 0.486, 0.5), (Family.JACOBI, 0.5, 0.5),
        (Family.JACOBI, 0.514, 0.5), (Family.BESSEL, 0.05, 0.7), (Family.BESSEL, 0.1, 0.7),
    ])
    def test_idempotence_at_small_b(self, family, nu, r):
        params = FamilyParams(0, nu, family)
        z2 = r * complex(math.cos(0.3), math.sin(0.3))
        assert check_idempotence(params, r, z2, radial_rule(params)) <= 1e-11

    def test_small_b_bessel_certificate_passes(self):
        cert = verify_identity(FamilyParams(0, 0.05, Family.BESSEL), 20)
        assert cert.passed and cert.diagnosis is None and cert.tol == 1e-8

    def test_table_reaches_the_smallest_normal_float(self):
        x, y, w = _tanh_sinh(241)
        tiny = np.finfo(float).tiny
        assert x.min() >= tiny and y.min() >= tiny
        assert np.all(np.abs(x + y - 1.0) <= 2.3e-16)  # a rounding error in each
        assert np.all(w > 0.0)
        assert abs(w.sum() - 1.0) <= 1e-15


class TestVerifyIdentity:
    def test_bessel_certificate(self, bessel_params):
        cert = verify_identity(bessel_params, n_check=20, tol=1e-8)
        assert cert.passed
        assert cert.reports[0].rel_error < 1e-12  # n = 0 row
        assert all(r.rel_error <= 1e-8 for r in cert.reports)

    def test_jacobi_certificate(self, jacobi_params):
        cert = verify_identity(jacobi_params, n_check=12, tol=1e-5)
        assert cert.passed

    def test_certificate_against_gamma_oracle(self, jacobi_params):
        cert = verify_identity(jacobi_params, n_check=12)
        for r in cert.reports:
            assert rel_err(r.target, gamma_product_moment(jacobi_params, r.order)) < 1e-12

    def test_parameter_sweep(self):
        for m, nu in ((0, 0.3), (2, 0.7), (5, 1.5)):
            cert = verify_identity(FamilyParams(m, nu, Family.BESSEL), 20, 1e-8)
            assert cert.passed, (m, nu, cert.worst)

    def test_jacobi_parameter_sweep_large_b(self):
        # large b: 27, 40, 51 and 61
        for m, nu in ((3, 10.5), (3, 17.0), (3, 22.5), (3, 27.5)):
            cert = verify_identity(FamilyParams(m, nu, Family.JACOBI), 20, 1e-12)
            assert cert.passed, (m, nu, cert.worst)

    def test_rejects_small_n_check(self, bessel_params):
        with pytest.raises(ValueError):
            verify_identity(bessel_params, n_check=4)

    def test_quadrature_insufficiency_diagnosed(self, jacobi_params):
        cert = verify_identity(
            jacobi_params, 12, tol=1e-14, rule=radial_rule(jacobi_params, 50)
        )
        assert not cert.passed
        assert cert.diagnosis == "quadrature_insufficient"


class TestHighOrders:
    """Orders past 300 on the bessel rule, which keeps every node's weight
    as a log: the moments against the gamma products h_n^2."""

    @pytest.mark.parametrize("m", [1, 3, 10, 40])
    def test_order_330_on_240_nodes(self, m):
        params = FamilyParams(m, 0.5, Family.BESSEL)
        cert = verify_identity(params, 330)
        assert cert.passed and cert.n_nodes == 240
        assert cert.worst.rel_error <= 1e-11
        assert rule_moment_error(params, 330).max() <= 1e-11

    def test_order_400_on_600_nodes(self, bessel_params):
        rule = radial_rule(bessel_params, 600)
        cert = verify_identity(bessel_params, 400, rule=rule)
        assert cert.passed and cert.worst.rel_error <= 1e-11
        oracle = gamma_product_log_moments(bessel_params, 400)
        assert np.abs(np.expm1(rule._integer_log_moments(400) - oracle)).max() <= 1e-11

    def test_order_400_on_240_nodes_indicts_the_quadrature(self, bessel_params):
        cert = verify_identity(bessel_params, 400)
        assert not cert.passed and cert.n_nodes == 240
        assert cert.diagnosis == "quadrature_insufficient"

    def test_idempotence_at_radius_300(self, bessel_params):
        assert check_idempotence(bessel_params, 300.0, 300.0) <= 1e-12


class TestVerifyIdentityOverflow:
    def test_rows_past_the_float_range_stay_finite(self, bessel_params, monkeypatch):
        # h_n^2 and mu_n leave the float range from n = 98 at m = 1, nu = 0.5;
        # the comparison in logs keeps every row finite, and numpy warns of
        # nothing
        rule = radial_rule(bessel_params)
        monkeypatch.setattr(measure, "radial_rule", lambda *a: pytest.fail("refined"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = verify_identity(bessel_params, n_check=200, rule=rule)
        assert cert.passed and cert.diagnosis is None
        assert all(math.isfinite(r.rel_error) for r in cert.reports)
        assert cert.worst.rel_error < 1e-12
        # the report columns stay mu_n and h_n^2 themselves
        assert cert.reports[97].target < math.inf
        assert cert.reports[98].target == math.inf == cert.reports[98].computed

    @pytest.mark.parametrize("family, n_check", [(Family.BESSEL, 200), (Family.JACOBI, 60)])
    def test_rel_error_is_the_log_ratio_defect(self, family, n_check):
        params = FamilyParams(1, 0.5, family)
        rule = radial_rule(params)
        cert = verify_identity(params, n_check, rule=rule)
        log_mu = rule.log_moments(np.arange(n_check + 1.0))
        defect = np.abs(np.expm1(log_mu - 2.0 * _log_h_array(params, n_check)))
        assert [r.rel_error for r in cert.reports] == defect.tolist()
        # |mu_n / h_n^2 - 1| with h_n^2 the gamma product, in mpmath; the
        # float log h_n carries an absolute error of about eps |log h_n|
        for r in cert.reports:
            moment = mp.exp(mp.mpf(float(log_mu[r.order])))
            ref = abs(moment / gamma_product_moment(params, r.order, exact=True) - 1)
            assert abs(r.rel_error - float(ref)) <= 1e-12

    def test_non_finite_rows_fail_as_the_worst(self, bessel_params, monkeypatch):
        rule = radial_rule(bessel_params)
        ratio = measure._log_moment_ratio

        def broken(params, rule, n_max):
            out = ratio(params, rule, n_max).copy()
            out[[14, 17]] = (math.inf, math.nan)
            return out

        monkeypatch.setattr(measure, "_log_moment_ratio", broken)
        monkeypatch.setattr(measure, "radial_rule", lambda *a: pytest.fail("refined"))
        cert = verify_identity(bessel_params, n_check=20, rule=rule)
        assert not cert.passed
        assert cert.diagnosis == "float_overflow"
        assert cert.worst.order == 14 and cert.worst.rel_error == math.inf
        assert math.isnan(cert.reports[17].rel_error)
        doc = cert.as_dict()
        assert doc["worst_order"] == 14 and doc["worst_rel_error"] is None
        assert doc["moments"][14]["rel_error"] is None
        assert doc["moments"][17]["rel_error"] is None
        json.dumps(doc, allow_nan=False)  # strict JSON

    def test_finite_rows_keep_their_worst(self, jacobi_params):
        cert = verify_identity(jacobi_params, 12, tol=1e-14, rule=radial_rule(jacobi_params, 50))
        assert cert.worst.rel_error == max(r.rel_error for r in cert.reports)
        assert cert.worst == next(r for r in cert.reports
                                  if r.rel_error == cert.worst.rel_error)


class TestSupport:
    def test_jacobi_mass_above_one_negligible(self, jacobi_params):
        # mass on x > 1 relative to the total, by direct sampling of |G|
        u, w = np.polynomial.legendre.leggauss(120)
        x = 1.0 + 4.5 * (u + 1.0) / 2.0  # (1, 10)
        vals = np.abs(density(jacobi_params, x))
        mass = float(np.dot(2.25 * w, vals))
        assert mass <= 1e-8


def _w(curve, xs):
    """One curve's W column, as `figure1_columns` gives it."""
    return figure1_columns([curve], xs)[1][0][1]


class TestFigureScan:
    def test_rows_positive(self):
        x_list, columns = figure1_columns(default_figure_curves(), np.linspace(0.02, 0.98, 25))
        assert len(x_list) == 25 and len(columns) == 12
        assert all(len(ws) == 25 and min(ws) >= -1e-12 for _, ws in columns)

    def test_deterministic_ordering(self):
        grid = np.linspace(0.02, 0.98, 7)
        a = figure1_columns(default_figure_curves(), grid)
        b = figure1_columns(default_figure_curves(), grid)
        assert a == b
        assert [curve for curve, _ in a[1]] == default_figure_curves()

    def test_bessel_weight_decays_past_mode(self):
        curve = WeightCurve(FamilyParams(2, 0.7, Family.BESSEL))
        xs = np.linspace(0.5, 60.0, 120)
        w = _w(curve, xs)
        peak = int(np.argmax(w))
        tail = np.array(w[peak:])
        assert np.all(np.diff(tail) <= 1e-12)

    def test_variant_tags(self):
        p = FamilyParams(1, 0.5, Family.JACOBI)
        assert WeightCurve(p, 2).variant_tag == "literal-n2"
        assert WeightCurve(p, 0).variant_tag == "literal-n0"
        assert WeightCurve(p).variant_tag == "canonical"

    def test_literal_variant_uses_the_extra_index(self, jacobi_params):
        # 2F1(-(m+n+nu), -(m+n+nu); b; x) times the density
        x = 0.4
        c = WeightCurve(jacobi_params, 2)
        ref = float(mp.hyp2f1(-3.5, -3.5, 3.0, x)) * density(jacobi_params, x)
        assert rel_err(_w(c, [x])[0], ref) < 1e-12

    def test_zero_at_and_past_support_edge(self, jacobi_params):
        assert _w(WeightCurve(jacobi_params), [1.0, 1.7]) == [0.0, 0.0]

    def test_small_x_column_finite_for_b_above_one(self, jacobi_params):
        assert math.isfinite(_w(WeightCurve(jacobi_params), [1e-4])[0])

    def test_target_moments_match_h(self, bessel_params):
        t = target_moments(bessel_params, 5)
        for n in range(6):
            assert rel_err(t[n], gamma_product_moment(bessel_params, n)) < 1e-12


def _mp_bessel_weight(b, x):
    """W = 2 I_{b-1}(2 sqrt x) K_{b-1}(2 sqrt x) in mpmath, the bessel
    N(x) omega(x), with its x = 0 limit 1/(b-1) (inf for b <= 1)."""
    b, x = mp.mpf(b), mp.mpf(x)
    if x == 0:
        return 1 / (b - 1) if b > 1 else mp.inf
    t, nu = 2 * mp.sqrt(x), b - 1
    if nu == mp.floor(nu) or t > 100:
        k = mp.besselk(nu, t)
    else:
        # K from I_{-nu} - I_nu (DLMF 10.27.4), which cancels as e^{-2t}:
        # several times faster than mpmath's own K at these orders
        with mp.extradps(int(t) + 10):
            k = mp.pi / (2 * mp.sin(nu * mp.pi)) * (mp.besseli(-nu, t) - mp.besseli(nu, t))
    return 2 * mp.besseli(nu, t) * k


def _mp_jacobi_n(params, literal_n, x):
    """The jacobi curve's N(x) in mpmath: 2F1(a+1, a+1; b; x), or the
    literal 2F1(-c, -c; b; x) with c = m + n + nu."""
    a = params.m + mp.mpf(params.nu)
    if literal_n is None:
        return mp.hyp2f1(a + 1, a + 1, 2 * a, x)
    c = a + literal_n
    return mp.hyp2f1(-c, -c, 2 * a, x)


def _n_of(params, literal_n, xs):
    # with omega = 1, `weights` returns the N of a jacobi curve
    xs = np.asarray(xs, dtype=float)
    return families.JACOBI.weights(params, literal_n, xs, lambda p: np.ones_like(xs),
                                   normalization)


def _cli_curves(family):
    # the curves `ghcs weight` draws: the caption curves plus one canonical
    # curve per distinct (m, nu)
    curves = default_figure_curves(family)
    for key in dict.fromkeys((c.params.m, c.params.nu) for c in list(curves)):
        curves.append(WeightCurve(FamilyParams(*key, family)))
    return curves


class TestFigureScanOracle:
    """figure1_columns on whole grids against mpmath."""

    @pytest.mark.parametrize("family", [Family.JACOBI, Family.BESSEL])
    def test_whole_grids_match_mpmath(self, family):
        curves = _cli_curves(family)
        # bessel curves are canonical and literal alike (no 2F1 there)
        curves += [WeightCurve(FamilyParams(m, nu, family), n)
                   for m, nu, n in ((0, 0.05, 0), (0, 0.3, 1), (3, 2.45, 3))]
        curves += [WeightCurve(FamilyParams(m, nu, family))
                   for m, nu in ((0, 0.05), (0, 0.3), (3, 2.45))]
        if family is Family.JACOBI:
            grid = np.concatenate((np.linspace(0.0, 1.2, 121), [1e-9, 0.99, 0.995]))
        else:
            grid = np.concatenate((np.linspace(0.0, 50.0, 101), [1e-9, 0.99, 1.0, 1.2]))
        x_list, columns = figure1_columns(curves, grid)
        assert x_list == grid.tolist()
        assert [curve for curve, _ in columns] == curves
        got = np.array([ws for _, ws in columns])
        refs: dict = {}  # mpmath values by (params, N)
        with mp.workdps(20):
            for curve, w in zip(curves, got):
                p = curve.params
                if family is Family.BESSEL:
                    if p not in refs:
                        refs[p] = [_mp_bessel_weight(p.b, x) for x in grid]
                    ref = refs[p]
                    bound = np.full(len(grid), 2e-13)
                else:
                    # the change is in N: the oracle is the mpmath N times the
                    # library's density, which is checked against mpmath above
                    n = curve.literal_n
                    if (p, n) not in refs:
                        refs[p, n] = [_mp_jacobi_n(p, n, x) if x < 1.0 else 0 for x in grid]
                    ref = [float(v) * om for v, om in zip(refs[p, n], density(p, grid))]
                    # N: Euler's form to x = 0.998 and the series above, or the literal 2F1
                    bound = np.where((n is None) & (grid <= families._EULER_CUT), 1e-13, 5e-13)
                for x, value, r, tol in zip(grid, w, ref, bound):
                    if r == 0 or mp.isinf(r):
                        assert value == r, (curve, x)
                    else:
                        assert abs(value / r - 1) <= tol, (curve, x, value)
        # the grid reaches the singular x = 0 branch (b < 1) and, for
        # jacobi, the zero past the support
        assert np.isinf(got).any()
        assert (got == 0.0).any() == (family is Family.JACOBI)

    @pytest.mark.parametrize("family, evaluations", [(Family.JACOBI, 17), (Family.BESSEL, 7)])
    def test_each_distinct_weight_evaluated_once(self, family, evaluations, monkeypatch):
        # the 19 curves of `ghcs weight` hold 7 distinct params; jacobi adds
        # 10 distinct literal n's to the 7 canonical N and reads one density
        # per params, while a bessel literal curve is its canonical curve
        # and bessel W needs no density
        calls = {"density": [], "weights": []}

        def counted(name, fn):
            def call(params, *args):
                calls[name].append((params, *args[:1]) if name == "weights" else params)
                return fn(params, *args)
            return call

        monkeypatch.setattr(measure, "density", counted("density", measure.density))
        for formulas in (families.BESSEL, families.JACOBI):
            monkeypatch.setattr(formulas, "weights", counted("weights", formulas.weights))
        curves = _cli_curves(family)
        _, columns = figure1_columns(curves, np.linspace(0.02, 0.98, 9))
        assert len(curves) == len(columns) == 19
        assert len(calls["weights"]) == len(set(calls["weights"])) == evaluations
        densities = 7 if family is Family.JACOBI else 0
        assert len(calls["density"]) == len(set(calls["density"])) == densities

    def test_one_point_scans_are_the_grid_values(self):
        grids = {
            Family.JACOBI: [0.0, 1e-9, 0.37, 0.99, 0.995, 1.0, 1.2],
            # the bessel grid reaches the Wronskian branch (b = 7.4 at
            # 1e-300) and past x = 1.3e5, where N leaves the float range
            Family.BESSEL: [0.0, 5e-324, 1e-300, 1e-9, 0.37, 1e5, 1e12],
        }
        for family, grid in grids.items():
            for curve in _cli_curves(family):
                on_grid = _w(curve, grid)
                for x, w in zip(grid, on_grid):
                    (one,) = _w(curve, [x])
                    assert type(one) is float
                    assert one == w

    def test_row_types_and_empty_grid(self):
        curves = default_figure_curves()
        empty = ([], [(curve, []) for curve in curves])
        assert figure1_columns(curves, []) == empty
        assert figure1_columns(curves, np.array([])) == empty
        [x], [(curve, [w])] = figure1_columns(curves[:1], np.array([0.5]))
        assert type(x) is float and type(w) is float
        assert (curve.params.m, curve.params.nu, curve.variant_tag) == (1, 0.3, "literal-n2")

    def test_semantics_at_the_edges(self):
        jac = WeightCurve(FamilyParams(1, 0.5, Family.JACOBI))
        # N = 1 at x = 0, so W is the density's limit there
        assert _w(jac, [1.0, 7.0, 0.0]) == [0.0, 0.0, density(jac.params, 0.0)]
        singular = WeightCurve(FamilyParams(0, 0.3, Family.BESSEL))
        assert _w(singular, [0.0]) == [math.inf]

    def test_negative_x_rejected(self):
        curve = WeightCurve(FamilyParams(1, 0.5, Family.JACOBI))
        with pytest.raises(ValueError):
            figure1_columns([curve], [-0.1])
        with pytest.raises(ValueError):
            figure1_columns([curve], [0.2, -1e-12])

    def test_budget_error_names_first_x(self):
        curve = WeightCurve(FamilyParams(1, 0.5, Family.JACOBI))
        with pytest.raises(specfun.ConvergenceError, match="at x = 0.999$"):
            figure1_columns([curve], [0.5, 0.999, 0.9995])


# (m, nu) for b = 0.1, 0.6, 1, 1.4, 3, 7.4 and 10.9
_SMALL_X_PARAMS = [(0, 0.05), (0, 0.3), (0, 0.5), (0, 0.7), (1, 0.5), (3, 0.7), (5, 0.45)]


class TestWeightClosedForms:
    """The figure's W in closed form against mpmath: bessel 2 I K, and the
    jacobi N from scipy's Gauss function."""

    @pytest.mark.parametrize("m, nu", [(0, 0.05), (0, 0.3), (0, 0.7), (1, 0.5), (3, 0.7),
                                       (5, 0.45)])  # b = 0.1, 0.6, 1.4, 3, 7.4, 10.9
    def test_bessel_weight_from_1e_300_to_1e12(self, m, nu):
        xs = np.logspace(-300, 12, 53)
        curve = WeightCurve(FamilyParams(m, nu, Family.BESSEL))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _w(curve, xs)
        with mp.workdps(20):
            for x, w in zip(xs, got):
                assert abs(w / _mp_bessel_weight(curve.params.b, x) - 1) <= 2e-13, x

    def test_jacobi_canonical_n_to_x_099(self):
        xs = np.concatenate((np.logspace(-12, -2, 6), np.linspace(0.05, 0.99, 14)))
        params = [(m, nu) for m in range(4) for nu in np.linspace(0.1, 2.5, 13).tolist()]
        worst = 0.0
        with mp.workdps(20):
            for m, nu in params + [(0, 0.05), (3, 2.45)]:
                p = FamilyParams(m, nu, Family.JACOBI)
                for x, n in zip(xs, _n_of(p, None, xs)):
                    worst = max(worst, abs(n / _mp_jacobi_n(p, None, x) - 1))
        assert worst <= 1e-13

    @pytest.mark.parametrize("m", range(4))
    def test_jacobi_literal_n_to_one_minus_1e_12(self, m):
        xs = np.concatenate((np.linspace(0.0, 0.99, 7), 1.0 - np.logspace(-3, -12, 6)))
        worst = 0.0
        with mp.workdps(20):
            for nu in (0.1, 0.7, 1.3, 1.9, 2.5):
                p = FamilyParams(m, nu, Family.JACOBI)
                for n in range(4):
                    for x, value in zip(xs, _n_of(p, n, xs)):
                        worst = max(worst, abs(value / _mp_jacobi_n(p, n, x) - 1))
        assert worst <= 5e-13

    @pytest.mark.parametrize("family", [Family.BESSEL, Family.JACOBI])
    def test_small_x_has_no_nan_and_no_warning(self, family):
        # at b >= 3 ive underflows where kve overflows near x = 1e-300: the
        # bessel W comes from the Wronskian there, never 0 * inf
        xs = [5e-324, 1e-300, 1e-200, 1e-60]
        curves = [WeightCurve(FamilyParams(m, nu, family), n)
                  for m, nu in _SMALL_X_PARAMS for n in (None, 2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, columns = figure1_columns(curves, xs)
        assert not any(math.isnan(w) for _, ws in columns for w in ws)
        infinite = set()
        with mp.workdps(50):
            for curve, x, w in ((c, x, w) for c, ws in columns for x, w in zip(xs, ws)):
                p = curve.params
                if not math.isfinite(w):
                    infinite.add(p.b)
                    continue
                if family is Family.BESSEL:
                    ref = _mp_bessel_weight(p.b, x)
                else:
                    a = p.m + mp.mpf(p.nu)
                    omega = (mp.gamma(a + 1) ** 2 / mp.gamma(2 * a)
                             * mp.meijerg([[], [a, a]], [[0, 2 * a - 1], []], mp.mpf(x)))
                    ref = _mp_jacobi_n(p, curve.literal_n, mp.mpf(x)) * omega
                assert abs(w / ref - 1) <= 2e-13, (curve, x)
        # every true W here is finite, the jacobi density at b = 1 too: it is
        # taken from x itself, not from 1 - x, which rounds to 1 at its
        # logarithmic end
        assert infinite == set()

    def test_jacobi_canonical_takes_the_series_past_the_largest_a(self):
        # scipy's Euler form is trusted up to a = m + nu = 6
        p = FamilyParams(3, 3.1, Family.JACOBI)
        xs = np.array([1e-8, 0.3, 0.9, 0.99])
        assert _n_of(p, None, xs).tolist() == normalization(p, xs).tolist()

    def test_jacobi_canonical_takes_the_series_above_the_euler_cut(self):
        # scipy's Euler form errs from about x = 0.99842, so above the cut
        # x = 0.998 the canonical N is the normalization series, bit for bit;
        # at and below 0.998 it is the Euler form
        above = np.array([np.nextafter(0.998, 1.0), 0.9981, 0.9982, 0.9983, 0.9984])
        below = np.array([0.5, 0.99, 0.995, 0.998])
        for curve in _cli_curves(Family.JACOBI)[12:]:
            p = curve.params
            w = _w(curve, np.concatenate((above, below)))
            series = density(p, above) * normalization(p, above)
            euler = density(p, below) * (hyp2f1(p.a - 1.0, p.a - 1.0, p.b, below)
                                         / np.square(1.0 - below))
            assert w == [*series.tolist(), *euler.tolist()]

    def test_euler_gauss_functions_at_the_cut(self):
        # F_k = 2F1(a-1, a-1; b+k; x), k = 0, 1, 2, at x = _EULER_CUT on a
        # dense a grid (5.2e-14 at worst): a cut moved past scipy's switch
        # near x = 0.99842, where F_0 errs 2e-3, fails here
        x = families._EULER_CUT
        worst = 0.0
        with mp.workdps(20):
            for a in np.linspace(0.1, 6.0, 296).tolist():
                p = FamilyParams(0, a, Family.JACOBI)
                for k in range(3):
                    ref = mp.hyp2f1(a - 1, a - 1, 2 * a + k, x)
                    worst = max(worst, abs(families.JACOBI._euler_gauss(p, x, k) / ref - 1))
        assert worst <= 1e-13

    def test_euler_gauss_of_a_float_is_the_arrays_bits(self):
        # a float x takes cython_special's hyp2f1 and an array the ufunc: F_0,
        # F_1 and F_2 agree bit for bit over the region `Jacobi.closed` admits
        rng = np.random.default_rng(0)
        xs = np.concatenate(([0.0, 1e-300, 1e-12, 0.5, 0.99, families._EULER_CUT],
                             rng.uniform(0.0, families._EULER_CUT, 60)))
        for a in np.linspace(0.02, families._EULER_A_MAX, 60).tolist():
            p = FamilyParams(0, a, Family.JACOBI)
            for k in range(3):
                got = [families.JACOBI._euler_gauss(p, x, k) for x in xs.tolist()]
                assert all(type(v) is float for v in got)
                assert got == families.JACOBI._euler_gauss(p, xs, k).tolist(), (a, k)

    def test_jacobi_canonical_weight_between_099_and_the_cut(self):
        # the canonical W = N omega against mpmath's N times its Gauss
        # reduction of the density, 2F1(1-a, 1-a; 1; 1-x) (5.0e-14 at worst)
        xs = np.linspace(0.99, families._EULER_CUT, 9)[1:]
        worst = 0.0
        with mp.workdps(20):
            for m in range(4):
                for nu in (0.05, 0.1, 0.7, 1.3, 1.9, 2.5):
                    p = FamilyParams(m, nu, Family.JACOBI)
                    a = m + mp.mpf(nu)
                    const = mp.gamma(a + 1) ** 2 / mp.gamma(2 * a)
                    for x, w in zip(xs, _w(WeightCurve(p), xs)):
                        omega = const * mp.hyp2f1(1 - a, 1 - a, 1, 1 - mp.mpf(x))
                        worst = max(worst, abs(w / (_mp_jacobi_n(p, None, x) * omega) - 1))
        assert worst <= 1e-13


class TestDensityEndpoint:
    def test_jacobi_zero_limit(self, jacobi_params):
        # x -> 0 limit is a^2/(b-1) for b > 1
        lim = density(jacobi_params, 0.0)
        assert rel_err(lim, 1.5**2 / 2.0) < 1e-12
        near = density(jacobi_params, 1e-7)
        assert rel_err(near, lim) < 1e-3

    def test_bessel_zero_limit(self, bessel_params):
        assert rel_err(density(bessel_params, 0.0), 0.5) < 1e-12

    def test_singular_flag_below_b_one(self):
        p = FamilyParams(0, 0.3, Family.JACOBI)
        assert density(p, 0.0) == math.inf
