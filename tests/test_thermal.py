"""Partition sums, thermal averages, P-function moment verification."""

import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcs import cli, families, specfun, thermal
from ghcs.measure import density, radial_rule
from ghcs.specfun import _ABS_FLOOR, _REL_TOL, ConvergenceError
from ghcs.states import Family, FamilyParams, log_coeff_h
from ghcs.pfunction import (
    PFunctionCandidate,
    derivative_series_candidate,
    moment_matched_candidate,
    p_function_passes,
    verify_p_function,
)
from ghcs.thermal import (
    boltzmann_moment,
    closed_form_thermal_stats,
    cs_thermal_expectation,
    g2_in_state,
    number_moment,
    oracle_thermal_stats,
    partition,
    thermal_scan_rows,
    thermal_state,
)

from conftest import rel_err


def brute_partition(beta, mu, n_terms=200):
    return sum(math.exp(-beta * n * (n + mu + 1.0)) for n in range(n_terms))


class TestPartition:
    def test_direct_sum(self):
        # beta = 1, mu = 2: 1 + e^-4 + e^-10 + ...
        assert rel_err(partition(1.0, 2.0), brute_partition(1.0, 2.0)) < 1e-14

    def test_low_temperature_limit(self):
        assert partition(200.0, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_tail_certificate(self):
        ts = thermal_state(0.05, 1.0)
        assert ts.tail_bound <= 1e-14 * ts.partition
        assert ts.partition >= 1.0

    @pytest.mark.parametrize("beta, mu", [(0.0, 2.0), (-1.0, 2.0), (math.nan, 2.0),
                                          (math.inf, 2.0), (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_nonpositive_beta(self, beta, mu):
        # a non-finite beta or mu is rejected before any summation too
        with pytest.raises(ValueError):
            partition(beta, mu)

    def test_monotone_decreasing_in_beta(self):
        betas = np.linspace(0.2, 2.0, 10)
        z = [partition(float(b), 2.0) for b in betas]
        assert all(b < a for a, b in zip(z, z[1:]))


class TestBoltzmannMoments:
    def test_zeroth(self):
        assert boltzmann_moment(1.0, 2.0, 0) == pytest.approx(1.0, rel=1e-13)

    def test_first_moment_direct(self):
        num = sum(n * math.exp(-1.0 * n * (n + 3.0)) for n in range(100))
        ref = num / brute_partition(1.0, 2.0)
        assert rel_err(boltzmann_moment(1.0, 2.0, 1), ref) < 1e-13

    def test_variance_nonnegative(self):
        for beta in np.linspace(0.1, 3.0, 12):
            n1 = boltzmann_moment(float(beta), 2.0, 1)
            n2 = boltzmann_moment(float(beta), 2.0, 2)
            assert n2 - n1 * n1 >= -1e-15

    def test_mean_monotone_in_beta(self):
        betas = np.linspace(0.2, 2.0, 10)
        means = [boltzmann_moment(float(b), 2.0, 1) for b in betas]
        assert all(b <= a for a, b in zip(means, means[1:]))

    @pytest.mark.parametrize("s", [1.5, 3, -1, 1.0, True, False])
    def test_only_orders_up_to_two(self, s):
        with pytest.raises(ValueError, match="s must be 0, 1 or 2"):
            boltzmann_moment(1.0, 1.0, s)


@functools.lru_cache(maxsize=None)
def mp_boltzmann(beta, mu):
    """(Z, <N>, <N(N-1)>) at 60 digits by direct summation over n < 400,
    whose dropped tail is below e^{-8000} for beta >= 0.05."""
    with mp.workdps(60):
        beta, mu = mp.mpf(beta), mp.mpf(mu)
        w = [mp.exp(-beta * n * (n + mu + 1)) for n in range(400)]
        z = mp.fsum(w)
        return z, mp.fsum(n * t for n, t in enumerate(w)) / z, \
            mp.fsum(n * (n - 1) * t for n, t in enumerate(w)) / z


def mp_thermal_stats(beta, mu, convention):
    """(Z, <N>, <N^2>, g2, Q) from `mp_boltzmann`, as floats."""
    z, n1, fall = mp_boltzmann(float(beta), float(mu))
    with mp.workdps(60):
        g2 = fall / n1**2 if convention == "conventional" else fall / (n1 + fall)
        return tuple(float(v) for v in (z, n1, n1 + fall, g2, n1 * (g2 - 1)))


def q_tolerance(g2, convention):
    """1e-13 relative, times g2 / |g2 - 1| for the conventional Q: Q =
    <N> (g2 - 1) crosses zero where the conventional g2 crosses 1 (near
    beta = 0.3 at every mu here), so there its relative error is g2's
    rounding error magnified by that factor, in any double arithmetic."""
    if convention == "conventional":
        return 1e-13 * max(1.0, g2 / abs(g2 - 1.0))
    return 1e-13


class TestBoltzmannAgainstMpmath:
    @pytest.mark.parametrize("convention", ["as_written", "conventional"])
    @pytest.mark.parametrize("mu", [0.1, 1.0, 3.5])
    def test_g2_and_q(self, mu, convention):
        # g2 used to come from <N^2> - <N>, off by 4.8e-6 at beta = 5, mu = 1
        # and 0.0 from beta = 8; rho and g2c keep their digits to beta = 60
        betas = np.geomspace(0.05, 60.0, 61)
        rows = thermal_scan_rows(betas, mu, convention)
        for beta, row in zip(betas, rows):
            _, _, _, g2, q = mp_thermal_stats(beta, mu, convention)
            assert g2 > 0.0 and rel_err(row[5], g2) <= 1e-13, beta
            assert rel_err(row[6], q) <= q_tolerance(g2, convention), beta

    def test_default_grid(self):
        # the ghcs thermal defaults: beta in [0.2, 2] (10 points), mu = 2 nu = 1
        betas = np.linspace(0.2, 2.0, 10)
        for beta, row in zip(betas, thermal_scan_rows(betas, 1.0)):
            ref = mp_thermal_stats(beta, 1.0, "as_written")
            for got, want in zip(row[2:5], ref[:3]):
                assert rel_err(got, want) <= 2e-15, beta

    @pytest.mark.parametrize("convention", ["as_written", "conventional"])
    def test_scan_rows_are_the_single_beta_rows(self, convention):
        # one grid call gives every beta its single-beta values bit for bit,
        # whatever the other betas: each row stops at its own cut
        for mu in (0.1, 1.0, 3.5):
            for betas in (np.linspace(0.2, 2.0, 10), np.geomspace(0.01, 80.0, 41)[::-1]):
                rows = thermal_scan_rows(betas, mu, convention)
                for beta, row in zip(betas.tolist(), rows):
                    o = oracle_thermal_stats(beta, mu, convention)
                    c = closed_form_thermal_stats(beta, mu)
                    assert row == (beta, mu, o["Z"], o["N_mean"], o["N2_mean"], o["g2"],
                                   o["Q"], c["N_mean"], c["N2_mean"], c["g2"], c["Q"])

    @pytest.mark.parametrize("convention", ["as_written", "conventional"])
    def test_cli_thermal_to_beta_20(self, tmp_path, convention):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"beta_max=20\ng2_convention={convention}\n")
        out = tmp_path / "thermal.csv"
        assert cli.main(["thermal", "--config", str(cfg), "--out", str(out)]) == 0
        body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
        assert len(body) == 10
        for line in body:
            beta, mu, *cols = (float(v) for v in line.split(",")[:7])
            ref = mp_thermal_stats(beta, mu, convention)
            assert cols[3] > 0.0
            for got, want in zip(cols[:4], ref[:4]):
                assert rel_err(got, want) <= 1e-13, (beta, got, want)
            assert rel_err(cols[4], ref[4]) <= q_tolerance(ref[3], convention)


class TestClosedForms:
    def test_published_values_at_beta1_mu2(self):
        c = closed_form_thermal_stats(1.0, 2.0)
        assert c["N_mean"] == pytest.approx(3.0)
        assert c["N2_mean"] == pytest.approx(5.0)
        assert c["Q"] == pytest.approx(-7.0 / 3.0)

    def test_oracle_disagrees_and_is_reported(self):
        # the closed forms stay O(1) while the direct sums freeze out;
        # both are tabulated, difference reported, nothing asserted equal
        o = oracle_thermal_stats(1.0, 2.0)
        c = closed_form_thermal_stats(1.0, 2.0)
        assert abs(o["N_mean"] - c["N_mean"]) > 1.0

    def test_g2_conventions(self):
        o1 = oracle_thermal_stats(0.5, 2.0, "as_written")
        o2 = oracle_thermal_stats(0.5, 2.0, "conventional")
        n1, n2 = o1["N_mean"], o1["N2_mean"]
        assert o1["g2"] == pytest.approx((n2 - n1) / n2)
        assert o2["g2"] == pytest.approx((n2 - n1) / n1**2)
        with pytest.raises(ValueError):
            oracle_thermal_stats(0.5, 2.0, "weird")

    def test_scan_rows_schema(self):
        rows = thermal_scan_rows([0.5, 1.0], 1.0)
        assert len(rows) == 2
        assert len(rows[0]) == 11


class TestInStateExpectations:
    def test_eps_zero(self, bessel_params):
        assert cs_thermal_expectation(bessel_params, 2.0, 0.0) == pytest.approx(1.0)

    def test_finite_difference_first_moment(self, bessel_params):
        x, h = 2.0, 1e-4
        fd = (
            cs_thermal_expectation(bessel_params, x, h)
            - cs_thermal_expectation(bessel_params, x, -h)
        ) / (2.0 * h)
        assert rel_err(fd, number_moment(bessel_params, x, 1)) < 1e-6

    def test_finite_difference_second_moment(self, bessel_params):
        x, h = 2.0, 1e-3
        f = lambda e: cs_thermal_expectation(bessel_params, x, e)  # noqa: E731
        fd2 = (f(h) - 2.0 * f(0.0) + f(-h)) / (h * h)
        assert rel_err(fd2, number_moment(bessel_params, x, 2)) < 1e-5

    def test_float_range_error_names_x_and_eps(self, bessel_params):
        # N(x) is finite just below the edge (x = 131439.07...) and N(x e^eps)
        # is not; past the edge N(x) itself fails, naming x
        x = 131439.0
        with pytest.raises(OverflowError) as exc:
            cs_thermal_expectation(bessel_params, x, 1e-4)
        assert str(exc.value) == ("the bessel normalization passes the float range "
                                  "at x e^eps, x = 131439.0, eps = 0.0001")
        with pytest.raises(OverflowError, match=r"at x = 200000.0$"):
            cs_thermal_expectation(bessel_params, 2e5, -1e-4)

    def test_jacobi_domain_exit(self, jacobi_params):
        with pytest.raises(ValueError):
            cs_thermal_expectation(jacobi_params, 0.9, 0.2)  # 0.9 e^0.2 > 1

    def test_number_moment_brute_force(self, jacobi_params):
        # direct series with explicitly accumulated coefficients
        x = 0.5
        term = 1.0  # x^n / h_n^2
        num, den = 0.0, 1.0
        for n in range(400):
            term *= x * (2.5 + n) ** 2 / ((n + 1.0) * (3.0 + n))
            den += term
            num += (n + 1.0) * term
        assert rel_err(number_moment(jacobi_params, x, 1), num / den) < 1e-12

    def test_g2_and_mandel(self, bessel_params):
        x = 1.5
        n1 = number_moment(bessel_params, x, 1)
        n2 = number_moment(bessel_params, x, 2)
        assert g2_in_state(bessel_params, x) == pytest.approx((n2 - n1) / n2)
        q = thermal.in_state_stats(bessel_params, x)[3]
        assert q == pytest.approx(n1 * ((n2 - n1) / n2 - 1.0))

    @pytest.mark.parametrize("convention", ["as_written", "conventional"])
    def test_g2_undefined_in_vacuum(self, bessel_params, jacobi_params, convention):
        # <N> = <N^2> = 0 at x = 0, so g2 is 0/0
        for params in (bessel_params, jacobi_params):
            with pytest.raises(ValueError, match="vacuum"):
                g2_in_state(params, 0.0, convention)
            with pytest.raises(ValueError, match="vacuum"):
                thermal.in_state_stats(params, 0.0, convention)


def loop_number_moment(params, x, s, falling=False, record=None):
    """Reference: the term-by-term loop `number_moment` sums for the jacobi
    family within `specfun._MAX_TERMS` terms as it reads at the call, as
    (<N^s>, index of the last summed term), or with `falling` as
    (<N (N-1) ... (N-s+1)> / x^s, that index).  The falling recurrence
    carries t_n / x^min(n, s), its first s steps taken without their
    factor x, and sums from n = s on.  A list `record` gets the pair
    (contribution, numerator partial sum) of each index from n = s + 1
    (`falling`) or 1 on, as the loop tests them."""
    b = params.b
    shift = params.coeff_shift
    p = s if falling else 0
    term, den = 1.0, 0.0
    for k in range(p):
        den += term * x**k
        term *= (shift + k) ** 2 / ((k + 1.0) * (b + k))
    xp = x**p
    den += term * xp
    num = (math.perm(p, s) if falling else 0.0**s) * term  # the index-p contribution
    small = 0
    for n in range(p, specfun._MAX_TERMS):
        ratio = x / ((n + 1.0) * (b + n))
        ratio *= (shift + n) ** 2
        term *= ratio
        den += term * xp
        contrib = (math.perm(n + 1, s) if falling else float(n + 1) ** s) * term
        num += contrib
        if record is not None:
            record.append((contrib, num))
        if contrib <= _REL_TOL * max(num, _ABS_FLOOR):
            small += 1
            if small >= 2:
                return num / den, n
        else:
            small = 0
    raise ConvergenceError("number_moment series did not converge")


def mp_number_moments(b, x):
    """(<N>, <N^2>) for the bessel family from N(x) = 0F1(; b; x):
    x N'/N and (x N' + x^2 N'')/N."""
    with mp.workdps(40):
        b, x = mp.mpf(b), mp.mpf(x)
        f0 = mp.hyp0f1(b, x)
        f1 = mp.hyp0f1(b + 1, x) / b
        f2 = mp.hyp0f1(b + 2, x) / (b * (b + 1))
        return float(x * f1 / f0), float((x * f1 + x * x * f2) / f0)


def mp_jacobi_series_moments(params, x):
    """(<N>/x, <N(N-1)>/x^2, <N>, <N^2>) for the jacobi family, each a sum
    over t_n = x^n (shift)_n^2 / (n! (b)_n) over sum_n t_n, summed term by
    term at 40 digits until, past the peak, n^2 t_n falls below 1e-45 of
    its sum.  It shares neither the float series' chunks, rescaling and
    budget nor the Gauss functions; mpmath's hyp2f1 takes 5 s at m = 1000,
    x = 0.9 and does not converge at m = 5000."""
    with mp.workdps(40):
        b, shift, x = mp.mpf(params.b), mp.mpf(params.coeff_shift), mp.mpf(x)
        term, den, s1, s2 = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(0)
        tiny = mp.mpf(10) ** -45
        n = 0
        while True:
            den += term
            s1 += n * term
            s2 += n * n * term
            ratio = x * (shift + n) ** 2 / ((n + 1) * (b + n))
            term *= ratio
            n += 1
            if ratio < 1 and n * n * term < tiny * s2:
                break
        n1, n2 = s1 / den, s2 / den
        return [float(v) for v in (n1 / x, (n2 - n1) / x**2, n1, n2)]


def loop_derivative_series(params, beta, mu, k_max, x, fit_radius=0.4):
    """The published truncated derivative series for P at one x, the
    per-point loop `derivative_series_candidate` replaced, kept as its
    reference: one scalar density call per fit node."""
    a0 = beta * (mu + 1.0)
    deg = 2 * k_max + 6
    r = fit_radius
    if params.family is Family.JACOBI:
        r = min(r, 0.5 * max(1e-3, -math.log(x) - a0))
    pts = a0 + r * np.cos(np.pi * (np.arange(deg + 1) + 0.5) / (deg + 1))
    om0 = density(params, x)
    if not (om0 > 0.0 and math.isfinite(om0)):
        return 0.0
    vals = np.array([math.exp(a) * density(params, math.exp(a) * x) / om0 for a in pts])
    dk = np.polynomial.chebyshev.chebfit((pts - a0) / r, vals, deg)
    total, fact = 0.0, 1.0
    for k in range(k_max + 1):
        if k > 0:
            fact *= k
            dk = np.polynomial.chebyshev.chebder(dk, 2) / (r * r)
        total += beta**k / fact * np.polynomial.chebyshev.chebval(0.0, dk)
    return math.exp(beta * mu) * total


class TestNumberMomentSeries:
    """The chunked summation against the scalar loop it replaced.  The
    cases at x <= 0.998 call the series routine itself, as `number_moment`
    takes the closed form there."""

    def test_agrees_with_scalar_loop(self):
        worst = 0.0
        for m in range(4):
            for nu in (0.1, 0.5, 1.3, 2.5):
                params = FamilyParams(m, nu, Family.JACOBI)
                for x in (1e-3, 0.3, 0.7, 0.95, 0.99, 0.997):
                    for s in (1, 2):
                        for falling in (False, True):
                            ref, _ = loop_number_moment(params, x, s, falling=falling)
                            got = thermal._moment_ratio(params, x, s, falling)
                            worst = max(worst, rel_err(got, ref))
        assert worst <= 1e-15

    @pytest.mark.parametrize("x, s, falling, last", [
        # the loop's last summed index is a chunk's first element (chunks
        # start at s with `falling`, else at 0, and hold 64, 128, ... terms)
        (0.5010081815743476, 2, False, 64),
        (0.8007775620601262, 2, False, 192),
        (0.5303707541066701, 1, True, 65),
        (0.8138530090499401, 1, True, 193),
        (0.509770780995872, 2, True, 66),
        (0.802332896464048, 2, True, 194),
    ])
    def test_stop_on_a_chunk_first_element(self, monkeypatch, x, s, falling, last):
        # the stopping pair is the carried flag and a chunk's first
        # contribution; with a budget of last + 1 that chunk holds one term
        # (no pair inside it), and with last no stop is reached; nor is it
        # in that one-term chunk for a larger x, whose series is longer
        params = FamilyParams(1, 0.5, Family.JACOBI)
        value, n = loop_number_moment(params, x, s, falling=falling)
        assert n == last
        longer = math.sqrt(x)
        assert loop_number_moment(params, longer, s, falling=falling)[1] > last + 1
        for budget in (specfun._MAX_TERMS, last + 1):
            monkeypatch.setattr(specfun, "_MAX_TERMS", budget)
            got = thermal._moment_ratio(params, x, s, falling)
            assert rel_err(got, value) <= 1e-15
        for xx, budget in ((x, last), (longer, last + 1)):
            monkeypatch.setattr(specfun, "_MAX_TERMS", budget)
            with pytest.raises(ConvergenceError):
                thermal._moment_ratio(params, xx, s, falling)

    def test_zeroth_moment_is_one(self, bessel_params, jacobi_params):
        # the scalar loop left the n = 0 term out of the s = 0 numerator
        # and returned 1 - 1/N(x).  s = 0 takes no series, so it is
        # exactly 1 also where the series runs out of budget: jacobi
        # x = 0.9995 and bessel x = 1e155
        for params, x in ((bessel_params, 3.0), (jacobi_params, 0.5),
                          (jacobi_params, 0.99), (jacobi_params, 0.9995),
                          (bessel_params, 1e155)):
            for falling in (False, True):
                got = number_moment(params, x, 0, falling=falling)
                assert type(got) is float and got == 1.0
                got = number_moment(params, np.array([0.0, x]), 0, falling=falling)
                assert got.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("x, last",
                             [(0.5253376688344171, 64), (0.813431715857929, 192)])
    def test_stop_straddling_a_chunk_boundary(self, monkeypatch, jacobi_params, x, last):
        # the loop's last two small contributions sit on either side of a
        # chunk boundary; with no term to spare, the chunked sum stops in
        # budget only through the flag it carries across the boundary
        value, n = loop_number_moment(jacobi_params, x, 1)
        assert n == last
        monkeypatch.setattr(specfun, "_MAX_TERMS", last + 1)
        assert rel_err(thermal._moment_ratio(jacobi_params, x, 1, False), value) <= 1e-15

    @pytest.mark.parametrize("max_terms", [1, 2, 63, 64, 65, 66, 191, 192, 193, 194])
    def test_budget_at_chunk_boundaries(self, monkeypatch, jacobi_params, max_terms):
        monkeypatch.setattr(specfun, "_MAX_TERMS", max_terms)
        for x in (0.05, 0.5253376688344171, 0.7, 0.813431715857929):
            for s in (1, 2):
                try:
                    ref, _ = loop_number_moment(jacobi_params, x, s)
                except ConvergenceError:
                    with pytest.raises(ConvergenceError):
                        thermal._moment_ratio(jacobi_params, x, s, False)
                else:
                    got = thermal._moment_ratio(jacobi_params, x, s, False)
                    assert rel_err(got, ref) <= 1e-15

    def test_budget_error_text(self, monkeypatch, jacobi_params):
        # matched verbatim by the benchmark's known-defect rule
        monkeypatch.setattr(specfun, "_MAX_TERMS", 100)
        with pytest.raises(ConvergenceError) as exc:
            thermal._moment_ratio(jacobi_params, 0.9, 1, False)
        assert str(exc.value) == "number_moment series did not converge"
        monkeypatch.undo()
        with pytest.raises(ConvergenceError) as exc:
            number_moment(jacobi_params, 0.9995, 1)
        assert str(exc.value) == "number_moment series did not converge"

    @pytest.mark.parametrize("x", [1.5, 1.0, -0.5, math.nan])
    def test_jacobi_argument_outside_domain(self, jacobi_params, x):
        with pytest.raises(ValueError, match="normalization"):
            number_moment(jacobi_params, x, 1)

    @pytest.mark.parametrize("x", [-1.0, math.inf])
    def test_bessel_argument_outside_domain(self, bessel_params, x):
        with pytest.raises(ValueError, match="normalization"):
            number_moment(bessel_params, x, 1)

    @pytest.mark.parametrize("s", [1.5, -1, 2.0, True, False, 3, np.int64(3)])
    def test_order_must_be_a_nonnegative_integer(self, jacobi_params, s):
        # only the orders the thermal layer reads, as `boltzmann_moment`
        for x in (0.5, np.array([0.5, 0.9995])):
            with pytest.raises(ValueError, match=r"^s must be 0, 1 or 2, not "):
                number_moment(jacobi_params, x, s)

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("m", [10, 100, 1000, 5000])
    def test_large_a_against_mpmath(self, m, x):
        # a > 6 takes the series at every x.  Its sums are rescaled by
        # powers of two between chunks: the unscaled terms would pass the
        # float range at m = 1000, x = 0.9 and at m = 5000, x >= 0.5 (up to
        # 1e1815), and at m = 5000, x = 0.9 a chunk is summed again at half
        # its length; within 1.3e-14 of mpmath here (15047 terms at m = 5000,
        # x = 0.9)
        params = FamilyParams(m, 0.5, Family.JACOBI)
        ref = mp_jacobi_series_moments(params, x)
        got = [number_moment(params, x, 1, falling=True), number_moment(params, x, 2, falling=True),
               number_moment(params, x, 1), number_moment(params, x, 2)]
        for g, r in zip(got, ref):
            assert rel_err(g, r) <= 5e-14

    @pytest.mark.parametrize("s", [3, np.int64(3), 150])
    @pytest.mark.parametrize("family", list(Family))
    def test_order_is_checked_before_any_work(self, monkeypatch, family, s):
        # an order past 2 is named before x is read or any path is taken:
        # here x is outside the domain, and each of those steps raises
        def no_work(*args):
            raise AssertionError("an order past 2 reached the computation")

        for name in ("_norm_arg", "_norm_args", "_closed_moments", "_moment_ratio"):
            monkeypatch.setattr(thermal, name, no_work)
        for formulas in (families.BESSEL, families.JACOBI):
            monkeypatch.setattr(formulas, "closed", no_work)
        params = FamilyParams(1, 0.5, family)
        for x in (-1.0, np.array([-1.0, 0.5])):
            with pytest.raises(ValueError) as exc:
                number_moment(params, x, s)
            assert str(exc.value) == f"s must be 0, 1 or 2, not {s!r}"

    @pytest.mark.parametrize("family", list(Family))
    def test_positional_falling_is_rejected_by_name(self, family):
        # `falling` is keyword-only, so a flag passed positionally (or any
        # fourth argument) is Python's TypeError, before any work, an x
        # outside the domain included
        params = FamilyParams(1, 0.5, family)
        positional = "takes 3 positional arguments but 4 were given"
        for x in (0.5, 0.999, 1.5, np.array([0.5, 0.999])):
            for flag in (True, False):
                with pytest.raises(TypeError, match=positional):
                    number_moment(params, x, 1, flag)
            with pytest.raises(TypeError, match=positional):
                number_moment(params, x, 2, {"max_terms": 100})

    @pytest.mark.parametrize("x", [1.5e5, 1e6, 1e8])
    def test_large_bessel_argument_matches_mpmath(self, bessel_params, x):
        # the terms pass the float range here; the series is rescaled
        n1, n2 = mp_number_moments(bessel_params.b, x)
        assert rel_err(number_moment(bessel_params, x, 1), n1) <= 1e-13
        assert rel_err(number_moment(bessel_params, x, 2), n2) <= 1e-13

    def test_bessel_never_sums_the_series(self, monkeypatch):
        # bessel s = 1, 2 read the 0F1 ratio recurrence and s = 0 is 1, so
        # with the series routine raising every value stays what it was
        xs = np.concatenate(([0.0, 1e-300, 1e-150], np.geomspace(1e-8, 1e8, 33)))
        cases = [FamilyParams(m, nu, Family.BESSEL) for m, nu in ((0, 0.1), (1, 0.5), (3, 2.5))]

        def values():
            out = []
            for params in cases:
                for s in (0, 1, 2):
                    for falling in (False, True):
                        out.append(number_moment(params, xs, s, falling=falling).tobytes())
                        out += [number_moment(params, x, s, falling=falling) for x in xs.tolist()]
                for convention in ("as_written", "conventional"):
                    out.append(np.array(thermal.in_state_stats(params, xs[1:], convention)).tobytes())
                    out += [thermal.in_state_stats(params, x, convention) for x in xs[1:].tolist()]
            return out

        def no_series(*args):
            raise AssertionError("a bessel moment summed the series")

        ref = values()
        monkeypatch.setattr(thermal, "_moment_ratio", no_series)
        assert values() == ref

    def test_in_state_statistics_sum_each_moment_once(self, monkeypatch, tmp_path,
                                                      bessel_params):
        # the bessel D1 and D2 come from one ratio sweep per x, with no
        # series call
        calls, swept = [], []
        series, ratios = thermal.number_moment, specfun._hyp_0f1_ratios
        monkeypatch.setattr(thermal, "number_moment",
                            lambda *a, **k: calls.append((a[2], np.size(a[1])))
                            or series(*a, **k))
        monkeypatch.setattr(specfun, "_hyp_0f1_ratios",
                            lambda *a: swept.append(a[1]) or ratios(*a))
        thermal.in_state_stats(bessel_params, 1.5)
        assert (calls, swept) == ([], [1.5])
        swept.clear()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x_count=3\n")
        out = tmp_path / "expect.csv"
        assert cli.main(["expect", "--config", str(cfg), "--out", str(out)]) == 0
        # each x of the grid is swept once, in order
        defaults = cli.RunConfig()
        grid = np.linspace(defaults.x_min, defaults.x_max, 3).tolist()
        assert (calls, swept) == ([], grid)


def _straddle(turns):
    """The x on both sides of every change of a predicate on [1/2, 1): each
    change between neighbours of the grid 1 - 2^-k, k = 1 ... 53,
    bracketed to 1e-12."""
    grid = [1.0 - 2.0**-k for k in range(1, 54)]
    values = [turns(x) for x in grid]
    out = []
    for lo, hi, at_lo, at_hi in zip(grid, grid[1:], values, values[1:]):
        if at_lo != at_hi:
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if turns(mid) == at_hi else (mid, hi)
            out += [lo, hi]
    return out


def _loop_fails(params, s, falling):
    def fails(x):
        try:
            loop_number_moment(params, x, s, falling)
        except ConvergenceError:
            return True
        return False
    return fails


class TestBudgetDecidedUpFront:
    """The jacobi s = 1, 2 series that cannot stop within its budget raise
    before summing (`thermal._budget_runs_out`), exactly where the
    term-by-term loop runs out of that budget."""

    @pytest.mark.parametrize("m, nu", [(0, 0.1), (1, 0.5), (3, 2.5), (6, 7.3), (20, 5),
                                       (150, 150)])
    def test_raises_exactly_where_the_loop_does(self, monkeypatch, m, nu):
        # x straddles the loop's own failure edge and both ends of the x
        # interval where the check fires (its bound on the partial sums
        # grows like (1 - x)^-(s+2), so it stops firing near x = 1), for
        # every budget; the check must fire on some of them, else this
        # would test the series alone (not at a = 300, where its factor
        # e^{-(a-1)^2 / N} is e^-89 at N = 1000)
        params = FamilyParams(m, nu, Family.JACOBI)
        fired = 0
        for max_terms in (2, 3, 63, 64, 65, 194, 1000):
            monkeypatch.setattr(specfun, "_MAX_TERMS", max_terms)
            for s in (1, 2):
                for falling in (False, True):
                    edges = (_straddle(_loop_fails(params, s, falling))
                             + _straddle(lambda x: thermal._budget_runs_out(
                                 params, x, s, falling, max_terms)))
                    for x in edges:
                        fired += thermal._budget_runs_out(params, x, s, falling, max_terms)
                        try:
                            ref, _ = loop_number_moment(params, x, s, falling)
                        except ConvergenceError:
                            with pytest.raises(ConvergenceError) as exc:
                                thermal._moment_ratio(params, x, s, falling)
                            assert str(exc.value) == "number_moment series did not converge"
                        else:
                            got = thermal._moment_ratio(params, x, s, falling)
                            assert rel_err(got, ref) <= 1e-15, (max_terms, s, falling, x)
        assert fired > 0 or m == 150

    def test_decided_before_any_chunk(self, monkeypatch, jacobi_params):
        # at x = 0.9995 no chunk is summed: the shared index row that every
        # chunk slices is never read
        def no_chunk(n_max):
            raise AssertionError("a chunk was summed")

        monkeypatch.setattr(thermal, "_index_row", no_chunk)
        for x in (0.9995, np.array([0.9995]), np.array([0.5, 0.9995])):
            for s in (1, 2):
                for falling in (False, True):
                    with pytest.raises(ConvergenceError) as exc:
                        number_moment(jacobi_params, x, s, falling=falling)
                    # matched verbatim by the benchmark's known-defect rule
                    assert str(exc.value) == "number_moment series did not converge"
            with pytest.raises(ConvergenceError, match="^number_moment series did not converge$"):
                thermal.in_state_stats(jacobi_params, x)

    @pytest.mark.parametrize("m, nu", [(0, 0.1), (1, 0.5), (6, 7.3), (20, 5)])
    def test_bounds_hold_against_the_loop(self, monkeypatch, m, nu):
        # P_inf B is at or above every partial sum of the loop's numerator,
        # and P_inf L(n) at or below its contribution at each index n (up
        # to the loop's rounding, a few 1e-13 over 3000 terms)
        params = FamilyParams(m, nu, Family.JACOBI)
        a = params.a
        log_p_inf = math.lgamma(2.0 * a) - 2.0 * math.lgamma(a + 1.0)
        monkeypatch.setattr(specfun, "_MAX_TERMS", 3000)
        for x in (0.5, 0.9, 0.99, 0.999, 0.9999):
            for s in (1, 2):
                for falling in (False, True):
                    record = []
                    try:
                        loop_number_moment(params, x, s, falling, record)
                    except ConvergenceError:
                        assert len(record) == 3000 - (s if falling else 0)
                    first = (s if falling else 0) + 1
                    _, high = thermal._jacobi_log_bounds(a, x, s, falling, first)
                    bound = math.exp(log_p_inf + high)
                    assert max(num for _, num in record) <= bound * (1.0 + 1e-12)
                    for n, (contrib, _) in enumerate(record, first):
                        low, _ = thermal._jacobi_log_bounds(a, x, s, falling, n)
                        assert math.exp(log_p_inf + low) <= contrib * (1.0 + 1e-12), n


def mp_state_g2(params, x, convention):
    """(<N>, g2) from the derivatives of N(x): 0F1(; b; x) for bessel,
    2F1(a+1, a+1; b; x) for jacobi, where <N> = x N'/N and
    <N(N-1)> = x^2 N''/N."""
    with mp.workdps(40):
        x = mp.mpf(x)
        if params.family is Family.BESSEL:
            b = mp.mpf(params.b)
            f0, f1, f2 = (mp.hyp0f1(b + k, x) / mp.rf(b, k) for k in range(3))
        else:
            a, b = mp.mpf(params.a), mp.mpf(params.b)
            f0, f1, f2 = (mp.rf(a + 1, k) ** 2 / mp.rf(b, k)
                          * mp.hyp2f1(a + 1 + k, a + 1 + k, b + k, x) for k in range(3))
        mean, fact = f1 / f0, f2 / f0  # <N>/x and <N(N-1)>/x^2
        if convention == "conventional":
            g2 = fact / mean**2
        else:
            g2 = fact * x / (fact * x + mean)
        return float(x * mean), float(g2)


class TestStateG2:
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("convention", ["as_written", "conventional"])
    def test_small_x_against_mpmath(self, family, convention):
        # <N^2> - <N> cancels below x ~ 1e-16 and <N>^2 underflows below
        # x ~ 1e-162; the factorial moment is summed directly instead
        for m, nu in ((1, 0.5), (0, 0.3), (3, 2.1)):
            params = FamilyParams(m, nu, family)
            for x in 10.0 ** -np.arange(10, 171, 10):
                n1, g2 = mp_state_g2(params, x, convention)
                assert rel_err(g2_in_state(params, x, convention), g2) < 1e-13
                q = thermal.in_state_stats(params, x, convention)[3]
                assert rel_err(q, n1 * (g2 - 1.0)) < 1e-13

    def test_conventional_limit(self, bessel_params):
        # g2 -> b / (b + 1) = 0.75 as x -> 0 at b = 3
        for x in (1e-150, 1e-170):
            assert g2_in_state(bessel_params, x, "conventional") == pytest.approx(0.75, rel=1e-15)

    @pytest.mark.parametrize("family, xs", [
        (Family.JACOBI, (0.05, 0.5, 0.9, 0.99)),
        (Family.BESSEL, (0.5, 5.0, 120.0, 3000.0)),
    ])
    @pytest.mark.parametrize("convention", ["as_written", "conventional"])
    def test_against_mpmath(self, family, xs, convention):
        for m, nu in ((1, 0.5), (0, 0.3), (2, 1.7)):
            params = FamilyParams(m, nu, family)
            for x in xs:
                n1, g2 = mp_state_g2(params, x, convention)
                assert rel_err(g2_in_state(params, x, convention), g2) < 1e-12
                q = thermal.in_state_stats(params, x, convention)[3]
                assert rel_err(q, n1 * (g2 - 1.0)) < 1e-11

    def test_falling_moments_at_zero(self, bessel_params, jacobi_params):
        # <N(N-1)...(N-s+1)> / x^s -> s! / h_s^2
        for params in (bessel_params, jacobi_params):
            for s in range(3):
                ref = math.factorial(s) / math.exp(log_coeff_h(params, s)) ** 2
                assert rel_err(number_moment(params, 0.0, s, falling=True), ref) < 1e-14

    def test_bad_convention(self, bessel_params):
        with pytest.raises(ValueError, match="g2_convention"):
            g2_in_state(bessel_params, 0.5, "other")


def mp_state_stats(params, x, convention):
    """(<N>, <N^2>, g2, Q) at 40 digits, from the derivatives of N(x) as in
    `mp_state_g2`, with <N^2> = <N> + <N(N-1)>."""
    with mp.workdps(40):
        x = mp.mpf(x)
        if params.family is Family.BESSEL:
            b = mp.mpf(params.b)
            f0, f1, f2 = (mp.hyp0f1(b + k, x) / mp.rf(b, k) for k in range(3))
        else:
            a, b = mp.mpf(params.a), mp.mpf(params.b)
            f0, f1, f2 = (mp.rf(a + 1, k) ** 2 / mp.rf(b, k)
                          * mp.hyp2f1(a + 1 + k, a + 1 + k, b + k, x) for k in range(3))
        n1, fall = x * f1 / f0, x * x * f2 / f0  # <N> and <N(N-1)>
        n2 = n1 + fall
        g2 = fall / n1**2 if convention == "conventional" else fall / n2
        return tuple(float(v) for v in (n1, n2, g2, n1 * (g2 - 1)))


class TestInStateStats:
    @pytest.mark.parametrize("family, xs", [
        (Family.JACOBI, (1e-150, 1e-8, 0.05, 0.5, 0.9, 0.98)),
        (Family.BESSEL, (1e-150, 1e-8, 0.5, 5.0, 120.0, 3000.0)),
    ])
    @pytest.mark.parametrize("convention", ["as_written", "conventional"])
    def test_against_mpmath(self, family, xs, convention):
        for m, nu in ((1, 0.5), (0, 0.3), (2, 1.7)):
            params = FamilyParams(m, nu, family)
            for x in xs:
                got = thermal.in_state_stats(params, x, convention)
                ref = mp_state_stats(params, x, convention)
                for g, r, tol in zip(got, ref, (1e-13, 1e-13, 1e-12, 1e-11)):
                    assert rel_err(g, r) < tol, (m, nu, x)
                assert got[2] == g2_in_state(params, x, convention)

    @pytest.mark.parametrize("family", ["bessel", "jacobi"])
    def test_expect_at_tiny_x(self, tmp_path, family):
        # <N^2> - <N> from two separate series cancels to 0 here: every
        # column must be mpmath's, and bessel g2 the limit b / (b + 1) = 0.75
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x_min=1e-150\nx_max=1e-150\nx_count=1\n"
                       "g2_convention=conventional\n")
        out = tmp_path / "expect.csv"
        assert cli.main(["expect", "--family", family, "--config", str(cfg),
                         "--out", str(out)]) == 0
        body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert body[0] == "x,N_mean,N2_mean,g2,mandel_q" and len(body) == 2
        x, *cols = (float(v) for v in body[1].split(","))
        assert x == 1e-150
        ref = mp_state_stats(FamilyParams(1, 0.5, Family(family)), x, "conventional")
        for g, r in zip(cols, ref):
            assert rel_err(g, r) < 1e-14
        if family == "bessel":
            assert cols[2] == pytest.approx(0.75, rel=1e-14)

    @pytest.mark.parametrize("m", [100, 1000, 5000])
    def test_expect_where_every_x_is_the_series(self, tmp_path, m):
        # a = m + 0.5 > 6, so every x of the grid is summed as the series
        # (at m = 5000 with a chunk summed again at half its length); no
        # numpy warning, and every cell is mpmath's; Q = <N> (g2 - 1)
        # cancels as g2 nears 1, so it is held relative to <N> g2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x_min=0.1\nx_max=0.9\nx_count=9\n")
        out = tmp_path / "expect.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["expect", "--family", "jacobi", "--m", str(m), "--nu", "0.5",
                             "--config", str(cfg), "--out", str(out)]) == 0
        body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert body[0] == "x,N_mean,N2_mean,g2,mandel_q" and len(body) == 10
        params = FamilyParams(m, 0.5, Family.JACOBI)
        for line, x_ref in zip(body[1:], np.linspace(0.1, 0.9, 9).tolist()):
            x, n1, n2, g2, q = (float(v) for v in line.split(","))
            assert x == x_ref
            _, _, r1, r2 = mp_jacobi_series_moments(params, x)
            rg2 = (r2 - r1) / r2
            assert rel_err(n1, r1) <= 5e-14 and rel_err(n2, r2) <= 5e-14
            assert rel_err(g2, rg2) <= 5e-14
            assert abs(q - r1 * (rg2 - 1.0)) <= 1e-13 * r1 * rg2


def scalar_moments(params, xs, s, falling=False):
    """Reference: `number_moment` one x at a time."""
    return np.array([number_moment(params, float(x), s, falling=falling) for x in xs])


_GRIDS = {
    # x = 0 entries, the x -> 0 underflow region, the expect grid, the
    # long series near x = 1 and, for bessel, series cut short by overflow
    Family.JACOBI: np.concatenate([[0.0, 1e-300, 1e-150, 0.0], np.linspace(0.02, 0.98, 49),
                                   1.0 - np.geomspace(0.3, 2e-3, 12)]),
    Family.BESSEL: np.concatenate([[0.0, 1e-300, 1e-150, 0.0], np.linspace(0.02, 0.98, 49),
                                   np.geomspace(2.0, 1e8, 15)]),
}


class TestMomentArrays:
    """Array x: every element is the scalar call's value bit for bit, and
    errors are the first failing x's."""

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("falling", [False, True])
    def test_arrays_equal_the_scalar_calls(self, family, falling):
        # a = 13.3 at (6, 7.3) takes the series at every jacobi x
        for m, nu in ((1, 0.5), (0, 0.3), (3, 2.1), (6, 7.3)):
            params = FamilyParams(m, nu, family)
            xs = _GRIDS[family]
            for s in (0, 1, 2):
                got = number_moment(params, xs, s, falling=falling)
                assert got.shape == xs.shape
                assert got.tobytes() == scalar_moments(params, xs, s, falling=falling).tobytes()

    def test_shape_is_kept_and_scalars_stay_floats(self, jacobi_params):
        xs = np.linspace(0.1, 0.9, 6).reshape(2, 3)
        got = number_moment(jacobi_params, xs, 1)
        assert got.shape == (2, 3)
        assert got.ravel().tolist() == [number_moment(jacobi_params, x, 1) for x in xs.ravel()]
        assert type(number_moment(jacobi_params, 0.5, 1)) is float
        assert type(number_moment(jacobi_params, np.float64(0.5), 1)) is float
        assert number_moment(jacobi_params, np.array([]), 2).shape == (0,)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("convention", ["as_written", "conventional"])
    def test_in_state_stats_arrays(self, family, convention):
        for m, nu in ((1, 0.5), (2, 1.7), (6, 7.3)):
            params = FamilyParams(m, nu, family)
            xs = _GRIDS[family][_GRIDS[family] > 0.0]
            got = thermal.in_state_stats(params, xs, convention)
            ref = np.array([thermal.in_state_stats(params, float(x), convention) for x in xs])
            for k in range(4):
                assert got[k].tobytes() == ref[:, k].tobytes()
            assert g2_in_state(params, xs, convention).tobytes() == ref[:, 2].tobytes()

    def test_vacuum_entry_rejected(self, bessel_params):
        with pytest.raises(ValueError, match="vacuum"):
            thermal.in_state_stats(bessel_params, np.array([0.5, 0.0]))

    @pytest.mark.parametrize("max_terms", [63, 64, 65, 191, 192, 193, 194])
    def test_budget_at_chunk_boundaries(self, monkeypatch, max_terms):
        # x stop, carry their flag over a boundary or run out of budget at
        # different chunks (the plain series at 0.468... and 0.792... end
        # at index 64 and 192); a = 13.3 takes every x through the series
        params = FamilyParams(6, 7.3, Family.JACOBI)
        monkeypatch.setattr(specfun, "_MAX_TERMS", max_terms)
        xs = np.array([0.05, 0.4680258563027752, 0.7, 0.7926352660880547, 0.3])
        outcomes = set()
        for s in (1, 2):
            for falling in (False, True):
                refs = []
                for x in xs.tolist():
                    try:
                        ref = loop_number_moment(params, x, s, falling)[0]
                    except ConvergenceError:
                        ref = None
                        with pytest.raises(ConvergenceError):
                            number_moment(params, x, s, falling=falling)
                    else:
                        got = number_moment(params, x, s, falling=falling)
                        assert rel_err(got, ref) <= 1e-15
                        ref = got
                    refs.append(ref)
                ok = np.array([r is not None for r in refs])
                outcomes.update(ok.tolist())
                for idx in (np.arange(len(xs)), np.arange(len(xs))[::-1], np.flatnonzero(ok)):
                    expect = [refs[i] for i in idx]
                    if None in expect:
                        with pytest.raises(ConvergenceError) as exc:
                            number_moment(params, xs[idx], s, falling=falling)
                        assert str(exc.value) == "number_moment series did not converge"
                    else:
                        got = number_moment(params, xs[idx], s, falling=falling)
                        assert got.tolist() == expect
        assert outcomes == {False, True}  # every budget stops some x and not others

    def test_budget_error_text(self, jacobi_params):
        # matched verbatim by the benchmark's known-defect rule
        with pytest.raises(ConvergenceError) as exc:
            number_moment(jacobi_params, np.array([0.3, 0.9995, 0.5]), 1)
        assert str(exc.value) == "number_moment series did not converge"

    @pytest.mark.parametrize("x, s, falling, max_terms, kind, text", [
        (1e155, 2, True, 20000, ConvergenceError, "0F1(3.0; x) ratios need scipy's ive "
         "past its edge 2 sqrt x = 1073741823.5 at x = 1e+155"),
        (1e155, 2, True, 2, ConvergenceError, "0F1(3.0; x) ratios need scipy's ive "
         "past its edge 2 sqrt x = 1073741823.5 at x = 1e+155"),
        (0.5, 1, False, 20000, OverflowError, "number_moment: the <N^1> series at "
         "x = 0.5 overflows the float range"),
        (0.5, 1, True, 20000, OverflowError, "number_moment: the <N^(1)> / x^1 series at "
         "x = 0.5 overflows the float range"),
        (0.5, 2, True, 20000, OverflowError, "number_moment: the <N^(2)> / x^2 series at "
         "x = 0.5 overflows the float range"),
    ])
    def test_errors_are_the_same_for_both_shapes(self, monkeypatch, bessel_params, x, s,
                                                 falling, max_terms, kind, text):
        # bessel s = 2 at x = 1e155 lies in scipy ive's large-argument
        # regime past its edge, which no budget moves (each budget is at
        # most max_terms, the ratio recurrence's at most 1600 levels); at
        # jacobi a = 2e154 the series' (shift + n)^2 passes the float range,
        # in the chunks or, with `falling`, before them, and a one-term chunk
        # still overflows
        params = bessel_params if x > 1.0 else FamilyParams(2 * 10**154, 0.5, Family.JACOBI)
        monkeypatch.setattr(specfun, "_MAX_TERMS", max_terms)
        monkeypatch.setattr(specfun, "_RATIO_MAX_LEVELS", min(max_terms, 1600))
        for arg in (x, np.array([x])):
            with pytest.raises(kind) as exc:
                number_moment(params, arg, s, falling=falling)
            assert str(exc.value) == text

    @pytest.mark.parametrize("chunk", [7, 1000])
    @pytest.mark.parametrize("m, nu", [(5000, 0.5), (6, 7.3)])
    def test_chunk_boundaries_change_no_bit(self, monkeypatch, m, nu, chunk):
        # the carried term and sums are only scaled by exact powers of two,
        # so where a chunk starts or ends, or is summed again after an
        # overflow (m = 5000 at x = 0.9 from chunks of 7, and from x = 0.3
        # from chunks of 1000), changes no value; a = 13.3 at (6, 7.3) takes
        # the series at every x of its grid, s = 0 none
        params = FamilyParams(m, nu, Family.JACOBI)
        xs = np.linspace(0.0, 0.9, 10) if m == 5000 else _GRIDS[Family.JACOBI]
        cases = [(s, falling) for s in (0, 1, 2) for falling in (False, True)]

        def both_shapes(s, falling):
            return (number_moment(params, xs, s, falling=falling).tobytes(),
                    scalar_moments(params, xs, s, falling=falling).tobytes())

        ref = {c: both_shapes(*c) for c in cases}
        monkeypatch.setattr(thermal, "_MOMENT_CHUNK", chunk)
        for c in cases:
            assert both_shapes(*c) == ref[c]

    def test_a_retried_chunk_length_is_held_for_the_next_chunk(self, monkeypatch):
        # each chunk attempt reads the index row once.  At m = 5000, x = 0.9
        # the chunk [448, 960) overflows and is summed again as [448, 704);
        # the next one keeps that length, [704, 960), rather than doubling
        # back into the overflow, and then the chunks double to the stop at
        # index 16832: 11 attempts, 12 if the length doubled back
        params = FamilyParams(5000, 0.5, Family.JACOBI)
        attempts = []
        row = thermal._index_row
        monkeypatch.setattr(thermal, "_index_row", lambda n: attempts.append(n) or row(n))
        for x in (0.9, np.array([0.9])):
            for s in (1, 2):
                attempts.clear()
                number_moment(params, x, s)
                assert len(attempts) == 11

    def test_domain_error_names_the_first_bad_x(self, jacobi_params):
        with pytest.raises(ValueError, match="argument magnitude 1.5 outside"):
            number_moment(jacobi_params, np.array([0.5, 1.5, 2.0]), 1)
        with pytest.raises(ValueError, match="must be >= 0"):
            number_moment(jacobi_params, np.array([0.5, -1.0, 2.0]), 1)


def _regime_start(b):
    """The least float x at which scipy's ive regime of the bessel D1 and
    D2 holds (`families._ive_regime`), within 4 ulps of its x-form
    max(118.64, (b+1)^4 / 16)."""
    holds = lambda x: bool(families._ive_regime(b, 2.0 * math.sqrt(x)))
    x = max((0.5 * families._AMOS_RL) ** 2, (b + 1.0) ** 4 / 16.0)
    for _ in range(4):
        x = math.nextafter(x, 0.0)
    assert not holds(x), b
    for _ in range(8):
        x = math.nextafter(x, math.inf)
        if holds(x):
            return x
    raise AssertionError(f"no regime within 4 ulps above the x-form at b = {b}")


# the bessel b of the ive regime's tests: m = 0, nu = b / 2
_IVE_BS = (0.02, 0.3, 1.0, 2.5, 3.0, 7.7, 40.0, 200.0, 600.0, 1000.0)
# scipy's ive returns NaN past 2 sqrt x = (2^31 - 1) / 2, at this x
_IVE_X_EDGE = 2.8823037588327632e17


def _ive_params(b):
    return FamilyParams(0, b / 2.0, Family.BESSEL)


class TestIveRegime:
    """Bessel D1 and D2 from scipy's ive where Amos's large-argument
    expansion holds, x >= max(118.64, (b+1)^4 / 16), up to ive's edge."""

    def test_against_mpmath(self):
        # 6 x per b from the regime's start to 2.8e17, at 40 digits
        for b in _IVE_BS:
            params = _ive_params(b)
            for x in np.geomspace(_regime_start(b), 2.8e17, 6).tolist():
                with mp.workdps(40):
                    t = 2 * mp.sqrt(mp.mpf(x))
                    i0 = mp.besseli(mp.mpf(b) - 1, t)
                    ref1 = mp.besseli(b, t) / (mp.sqrt(x) * i0)
                    ref2 = mp.besseli(mp.mpf(b) + 1, t) / (x * i0)
                d1, d2 = families.BESSEL.derivative_ratios(params, x)
                assert rel_err(d1, ref1) <= 1e-15, (b, x)
                assert rel_err(d2, ref2) <= 1e-15, (b, x)

    def test_floats_are_array_elements_bit_for_bit(self):
        # a mixed array straddles the regime's start (the sweep below, ive
        # from it on; at b = 200 from x = 1.0e8) and ends at ive's edge
        for b in (0.02, 3.0, 200.0):
            params, x0 = _ive_params(b), _regime_start(b)
            xs = np.array(sorted({0.0, 1e-300, 0.5, 100.0, math.nextafter(x0, 0.0), x0,
                                  math.nextafter(x0, math.inf), 2.0 * x0, 1e4, 1e9,
                                  1e15, _IVE_X_EDGE}))
            d1, d2 = families.BESSEL.derivative_ratios(params, xs)
            for k, x in enumerate(xs.tolist()):
                assert families.BESSEL.derivative_ratios(params, x) == (d1[k], d2[k])
                assert families.BESSEL.derivative_ratios(params, x, True, False)[0] == d1[k]
                assert families.BESSEL.derivative_ratios(params, x, False, True)[1] == d2[k]
            for convention in ("as_written", "conventional"):
                got = thermal.in_state_stats(params, xs[1:], convention)
                ref = [thermal.in_state_stats(params, x, convention) for x in xs[1:].tolist()]
                assert np.array(got).T.tobytes() == np.array(ref).tobytes()
            shaped = families.BESSEL.derivative_ratios(params, xs[:10].reshape(2, 5))
            assert shaped[0].shape == (2, 5) and shaped[0].ravel().tolist() == d1[:10].tolist()

    def test_the_regime_makes_no_sweep(self, monkeypatch, tmp_path, bessel_params):
        # counted as in test_in_state_statistics_sum_each_moment_once: an x
        # in the regime calls neither the series nor the ratio recurrence,
        # and an array sweeps only its elements below the regime
        calls, swept = [], []
        series, ratios = thermal.number_moment, specfun._hyp_0f1_ratios
        monkeypatch.setattr(thermal, "number_moment",
                            lambda *a, **k: calls.append((a[2], np.size(a[1])))
                            or series(*a, **k))
        monkeypatch.setattr(specfun, "_hyp_0f1_ratios",
                            lambda *a: swept.append(a[1]) or ratios(*a))
        thermal.in_state_stats(bessel_params, 1e4)
        thermal.in_state_stats(bessel_params, np.array([200.0, 1e6, 1e12]))
        assert (calls, swept) == ([], [])
        thermal.in_state_stats(bessel_params, np.array([0.5, 1e4, 2.0, 1e6]))
        assert (calls, swept) == ([], [0.5, 2.0])
        swept.clear()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x_min=1e3\nx_max=1e9\nx_count=5\n")
        out = tmp_path / "expect.csv"
        assert cli.main(["expect", "--config", str(cfg), "--out", str(out)]) == 0
        assert (calls, swept) == ([], [])

    def test_past_the_edge_is_a_typed_error(self):
        # at b = 3 every x past ive's edge is in its regime; at b = 500 an
        # array names its first failing element, the recurrence's refusal
        # at 3.7e9 or the edge, whichever comes first
        params = _ive_params(3.0)
        assert families.BESSEL.derivative_ratios(params, _IVE_X_EDGE)[0] > 0.0
        past = math.nextafter(_IVE_X_EDGE, math.inf)
        ive = families._special().ive
        assert not math.isnan(ive(4.0, 2.0 * math.sqrt(_IVE_X_EDGE)))
        assert math.isnan(ive(4.0, 2.0 * math.sqrt(past)))
        text = ("0F1(3.0; x) ratios need scipy's ive past its edge "
                f"2 sqrt x = 1073741823.5 at x = {past!r}")
        for x in (past, np.array([past]), np.array([0.5, 1e4, past, 1e300])):
            with pytest.raises(ConvergenceError) as exc:
                families.BESSEL.derivative_ratios(params, x)
            assert str(exc.value) == text
            for s in (1, 2):
                with pytest.raises(ConvergenceError) as exc:
                    number_moment(params, x, s)
                assert str(exc.value) == text
            with pytest.raises(ConvergenceError) as exc:
                thermal.in_state_stats(params, x)
            assert str(exc.value) == text
        params = _ive_params(500.0)
        for xs, named in (([1e3, 3.7e9, 3e17], "ratios did not converge within 1600 steps "
                           "at x = 3700000000.0"),
                          ([1e3, 3e17, 3.7e9], "ratios need scipy's ive past its edge "
                           "2 sqrt x = 1073741823.5 at x = 3e+17")):
            with pytest.raises(ConvergenceError) as exc:
                families.BESSEL.derivative_ratios(params, np.array(xs))
            assert str(exc.value) == f"0F1(500.0; x) {named}"


class TestBesselDerivativeRatios:
    """An array of x maps the float `derivative_ratios` over its elements in
    C order."""

    def test_arrays_keep_their_shape(self):
        params = _ive_params(1.5)
        xs = np.geomspace(1e-3, 1e5, 10).reshape(2, 5)
        d1, d2 = families.BESSEL.derivative_ratios(params, xs)
        assert d1.shape == d2.shape == (2, 5)
        assert list(zip(d1.ravel().tolist(), d2.ravel().tolist())) == [
            families.BESSEL.derivative_ratios(params, x) for x in xs.ravel().tolist()]
        for d in families.BESSEL.derivative_ratios(params, np.array([])):
            assert d.shape == (0,) and d.dtype == float

    @pytest.mark.parametrize("xs, sweeps", [
        (np.linspace(1e10, 6e10, 16), 1),    # refused at its first element
        (np.array([1e9, 3e10, 5.9e10]), 2),  # 1e9 meets within the cap, 3e10 does not
    ])
    def test_an_array_is_refused_at_its_first_refused_element(self, monkeypatch, xs, sweeps):
        # at b = 1000 each x below the regime's start (6.3e10) is swept from
        # its own start depth, the 1600-level cap, in order, so the elements
        # after the first refused one cost no sweep
        calls = []
        brackets = specfun._ratio_brackets

        def counted(*args):
            calls.append(args)
            return brackets(*args)

        monkeypatch.setattr(specfun, "_ratio_brackets", counted)
        with pytest.raises(ConvergenceError) as exc:
            families.BESSEL.derivative_ratios(_ive_params(1000.0), xs)
        assert str(exc.value) == ("0F1(1000.0; x) ratios did not converge within 1600 "
                                  f"steps at x = {xs[sweeps - 1].item()!r}")
        assert [c[1] for c in calls] == xs[:sweeps].tolist()


def mp_closed_form_columns(params, x):
    """(D1, D2, <N>, <N^2>, g2 as written, g2 conventional, Q as written,
    Q conventional) at 40 digits, where D^k N / N is the k-th derivative of
    the jacobi N = 2F1(a+1, a+1; b; x) over N."""
    with mp.workdps(40):
        x, a = mp.mpf(x), mp.mpf(params.a)
        f0, f1, f2 = (mp.rf(a + 1, k) ** 2 / mp.rf(2 * a, k)
                      * mp.hyp2f1(a + 1 + k, a + 1 + k, 2 * a + k, x) for k in range(3))
        d1, d2 = f1 / f0, f2 / f0
        n1, n2 = x * d1, x * d1 + x * x * d2
        g2w, g2c = x * x * d2 / n2, d2 / d1**2
        return [float(v) for v in (d1, d2, n1, n2, g2w, g2c, n1 * (g2w - 1), n1 * (g2c - 1))]


def closed_form_columns(params, xs):
    """The columns of `mp_closed_form_columns` as the library gives them."""
    w = thermal.in_state_stats(params, xs, "as_written")
    c = thermal.in_state_stats(params, xs, "conventional")
    return np.array([number_moment(params, xs, 1, falling=True),
                     number_moment(params, xs, 2, falling=True),
                     number_moment(params, xs, 1), number_moment(params, xs, 2),
                     w[2], c[2], w[3], c[3]])


_SERIES_CASES = [(s, falling) for s in (1, 2) for falling in (False, True)]


class TestClosedFormMoments:
    """jacobi s = 1, 2 at x <= 0.998 and a = m + nu <= 6 in closed form from
    scipy's Gauss functions; every other jacobi x is the series, bit for bit."""

    _XS = np.concatenate(([1e-300, 1e-150, 1e-20, 1e-8, 1e-3], np.linspace(0.01, 0.99, 50),
                          np.linspace(0.991, 0.998, 8)))

    @pytest.mark.parametrize("m", range(4))
    def test_against_mpmath(self, m):
        # D1, D2, <N>, <N^2> and the as-written g2 within 5e-14; the
        # conventional g2 = D2 / D1^2 and the as-written Q = -x D1^2 /
        # (D1 + x D2) carry D1's error twice (5.1e-14 at m = 3, nu = 2.5,
        # x = 0.91), and the conventional Q = <N> (g2 - 1) cancels where g2
        # is near 1, so it is held relative to <N> g2, its scale
        for nu in np.linspace(0.1, 2.5, 7).tolist():
            params = FamilyParams(m, nu, Family.JACOBI)
            got = closed_form_columns(params, self._XS)
            ref = np.array([mp_closed_form_columns(params, x) for x in self._XS]).T
            err = np.abs(got - ref) / np.abs(ref)
            assert err[:5].max() <= 5e-14, (m, nu)
            assert err[[5, 6]].max() <= 1e-13, (m, nu)
            assert (np.abs(got[7] - ref[7]) / (ref[2] * ref[5])).max() <= 1e-13, (m, nu)

    @pytest.mark.parametrize("m, nu", [(3, 2.7), (5, 1.0)])  # a = 5.7, 6 = the largest a
    def test_against_mpmath_up_to_the_largest_a(self, m, nu):
        # from a = 5.4 scipy's Gauss functions err up to 8.1e-14 near
        # x = 0.91, still below the series' 1e-13 there
        params = FamilyParams(m, nu, Family.JACOBI)
        got = closed_form_columns(params, self._XS)[:4]
        ref = np.array([mp_closed_form_columns(params, x)[:4] for x in self._XS]).T
        assert (np.abs(got - ref) / ref).max() <= 1e-13

    @settings(max_examples=150, deadline=None, database=None)
    @given(m=st.integers(0, 3), nu=st.floats(0.1, 2.5),
           x=st.floats(0.0, 0.998, exclude_min=True), case=st.sampled_from(_SERIES_CASES))
    def test_agrees_with_the_series(self, m, nu, x, case):
        # above x = 0.99 the series' own error against mpmath grows to
        # 5.9e-13, where the closed form holds 5e-14 (`test_against_mpmath`)
        s, falling = case
        params = FamilyParams(m, nu, Family.JACOBI)
        series = thermal._moment_ratio(params, x, s, falling)
        bound = 2e-13 if x <= 0.99 else 1e-12
        assert rel_err(number_moment(params, x, s, falling=falling), series) <= bound

    @pytest.mark.parametrize("m, nu, xs", [
        # past the cut, short of the series' budget (from x = 0.99818)
        (1, 0.5, [np.nextafter(0.998, 1.0), 0.99805, 0.9981, 0.99813]),
        (3, 3.1, [1e-8, 0.3, 0.9, 0.99, 0.998]),  # a = 6.1, past the largest a
    ])
    def test_outside_the_region_is_the_series_bit_for_bit(self, m, nu, xs):
        params, xs = FamilyParams(m, nu, Family.JACOBI), np.array(xs)
        for s, falling in _SERIES_CASES:
            ref = [thermal._moment_ratio(params, x, s, falling) for x in xs]
            assert [number_moment(params, x, s, falling=falling) for x in xs] == ref
            assert number_moment(params, xs, s, falling=falling).tolist() == ref

    def test_the_region_ends_are_the_closed_form(self):
        # x = 0.998 and a = 6 are inside; a mixed array splits element by element
        for m, nu in ((1, 0.5), (5, 1.0)):
            params = FamilyParams(m, nu, Family.JACOBI)
            xs = np.array([0.998, 0.9981, 0.5])
            for s, falling in _SERIES_CASES:
                closed = thermal._closed_moments(params, xs[[0, 2]], s, falling)
                got = number_moment(params, xs, s, falling=falling)
                assert got[[0, 2]].tolist() == closed.tolist()
                assert got[1] == thermal._moment_ratio(params, 0.9981, s, falling)
                assert number_moment(params, 0.998, s, falling=falling) == closed[0]

    def test_budget_error_past_the_cut(self, jacobi_params):
        # matched verbatim by the benchmark's known-defect rule
        for arg in (0.9995, np.array([0.3, 0.9995, 0.5])):
            for s, falling in _SERIES_CASES:
                with pytest.raises(ConvergenceError) as exc:
                    number_moment(jacobi_params, arg, s, falling=falling)
                assert str(exc.value) == "number_moment series did not converge"

    _EDGES = [1e-300, np.nextafter(families._EULER_CUT, 0.0), families._EULER_CUT,
              np.nextafter(families._EULER_CUT, 1.0), 0.9981]

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("m, nu", [(1, 0.5), (5, 1.0), (3, 3.1)])  # a = 1.5, 6, 6.1
    @pytest.mark.parametrize("convention", ["as_written", "conventional"])
    def test_in_state_stats_are_the_falling_moments_bit_for_bit(self, family, m, nu,
                                                                convention):
        # in_state_stats reads D1 and D2 from one evaluation where the closed
        # form holds; every value is that of the two falling moments, on
        # both sides of the cut and of the largest a, for both shapes
        params = FamilyParams(m, nu, family)
        xs = np.array(self._EDGES)
        for arg in [*xs.tolist(), xs]:
            mean = number_moment(params, arg, 1, falling=True)
            fact = number_moment(params, arg, 2, falling=True)
            n1 = arg * mean
            ref = (n1, *thermal._number_stats(n1, arg * fact / mean, fact / mean / mean,
                                              convention))
            got = thermal.in_state_stats(params, arg, convention)
            for g, r in zip(got, ref):
                assert type(g) is type(r)
                assert np.asarray(g).tobytes() == np.asarray(r).tobytes()

    @pytest.mark.parametrize("m, nu", [(1, 0.5), (0, 0.3), (5, 1.0)])
    def test_a_float_is_an_array_element_bit_for_bit(self, m, nu):
        # the closed form runs one expression on a float and on an array;
        # a float's (1-x)^2 through libm `pow` would differ from numpy's
        # square in the last bit for about one x in a thousand
        params = FamilyParams(m, nu, Family.JACOBI)
        xs = np.concatenate((self._EDGES[:3], np.linspace(1e-3, families._EULER_CUT, 3001)))
        for s, falling in _SERIES_CASES:
            array = thermal._closed_moments(params, xs, s, falling)
            floats = [float(thermal._closed_moments(params, x, s, falling)) for x in xs.tolist()]
            assert array.tolist() == floats
            assert [number_moment(params, x, s, falling=falling) for x in xs.tolist()] == floats
        ratios = families.JACOBI.derivative_ratios
        mean, fact = ratios(params, xs)
        assert mean.tolist() == [ratios(params, x)[0] for x in xs.tolist()]
        assert fact.tolist() == [ratios(params, x)[1] for x in xs.tolist()]

    def test_the_budget_governs_the_series_only(self, monkeypatch, jacobi_params):
        # a one-term budget cannot sum the series, but the closed form needs none
        ref = [number_moment(jacobi_params, x, 1) for x in (0.5, 0.998)]
        monkeypatch.setattr(specfun, "_MAX_TERMS", 1)
        assert [number_moment(jacobi_params, x, 1) for x in (0.5, 0.998)] == ref
        with pytest.raises(ConvergenceError):
            number_moment(jacobi_params, 0.9981, 1)


class TestPFunction:
    @pytest.mark.parametrize("family", [Family.JACOBI, Family.BESSEL])
    def test_moment_matched_candidate_passes(self, family):
        params = FamilyParams(1, 0.5, family)
        beta, mu = 0.02, params.mu
        cand = moment_matched_candidate(params, beta, mu, 12)
        reports = verify_p_function(params, beta, mu, cand, 12)
        assert p_function_passes(reports, 1e-8)

    def test_n0_row_is_exact_by_convention(self, jacobi_params):
        beta, mu = 0.02, 1.0
        cand = moment_matched_candidate(jacobi_params, beta, mu, 10)
        reports = verify_p_function(jacobi_params, beta, mu, cand, 10)
        assert reports[0].rel_error < 1e-14

    def test_candidate_verified_on_independent_rule(self, jacobi_params):
        # construction and verification use different node counts
        beta, mu = 0.02, 1.0
        cand = moment_matched_candidate(
            jacobi_params, beta, mu, 10, radial_rule(jacobi_params, 280)
        )
        reports = verify_p_function(
            jacobi_params, beta, mu, cand, 10, radial_rule(jacobi_params, 360)
        )
        assert p_function_passes(reports, 1e-8)

    def test_derivative_series_reported_not_asserted(self, bessel_params):
        # published truncated series: the error column is recorded per
        # truncation order; no equality is claimed
        beta, mu = 0.05, bessel_params.mu
        errs = {}
        for k_max in (1, 2, 4):
            cand = derivative_series_candidate(bessel_params, beta, mu, k_max)
            reports = verify_p_function(bessel_params, beta, mu, cand, 6)
            errs[k_max] = max(r.rel_error for r in reports)
        assert all(math.isfinite(v) for v in errs.values())

    @pytest.mark.parametrize("k_max", [0, 1, 2])
    def test_derivative_series_matches_per_point_fits(self, bessel_params, k_max):
        # past x of about 1.7e3, e^a omega(e^a x) / omega(x) spans too many
        # decades over the fit window for a degree-6 fit: there both the
        # per-point and the array fit are noise, and omega's weight is nil
        beta, mu = 0.05, bessel_params.mu
        nodes = radial_rule(bessel_params).nodes
        xs = np.concatenate([nodes[nodes < 1e3], [0.0, 1e-3, 1e6]])
        got = derivative_series_candidate(bessel_params, beta, mu, k_max).evaluate(xs)
        ref = [loop_derivative_series(bessel_params, beta, mu, k_max, x) for x in xs]
        assert got[-1] == 0.0 == ref[-1]  # omega underflows at x = 1e6
        assert np.allclose(got, ref, rtol=1e-9, atol=0.0)

    def test_flat_candidate_moments_stay_finite(self, bessel_params):
        # h_n^2 and x^n overflow from n = 98 and n = 61 here; the rows
        # int x^n omega dx / h_n^2 are all 1
        flat = PFunctionCandidate(evaluate=lambda x: np.ones_like(x), label="flat")
        reports = verify_p_function(bessel_params, 0.02, bessel_params.mu, flat, 150)
        assert len(reports) == 151
        assert max(abs(r.computed - 1.0) for r in reports) < 1e-12

    def test_failing_candidate_fails(self, jacobi_params):
        bad = PFunctionCandidate(evaluate=lambda x: np.ones_like(x), label="flat")
        reports = verify_p_function(jacobi_params, 0.5, 1.0, bad, 8)
        assert not p_function_passes(reports, 1e-8)
