"""The two coherent-state families' formulas, one object each.

`FamilyParams.formulas` is the params' family object, `BESSEL` or
`JACOBI`, through which every consumer reads them.  Both have RADIUS (of
the label domain), LITERAL_N (whether a literal weight curve's W reads its
n), the CLI's per-family defaults KERNEL_SCALE (of the kernel checks'
label mesh), N_CHECK (`verify`'s moment orders), VERIFY_X_MAX (the cap on
`verify`'s thermal x) and EXPECT_X_MAX (`expect`'s grid cap), and the
same methods: log_h_entries (log h_n for n = start..stop >= 1
and the carry for stop + 1), normalization (N), tail_ratio
(|c_{k+1} / c_k|), signed (the moduli |z|^n / h_n times the signs s_n),
density (omega on x >= 0), rule (the n-point nodes and weights), weights
(W = N omega, from the density omega(params) and normalization norm),
closed (where D1 = N'/N and D2 = N''/N are in closed form) and
derivative_ratios (D1 and D2 there, None for one not asked for where that
saves work), ladder (a ladder band from the bessel form), basis_map and
fit_radius (the P-representation's Chebyshev variable and fit width).
This module imports neither `states` nor `measure`, and `scipy.special`
(and its `cython_special`) only when a formula first calls it (`_special`,
`_cython_special`), so importing `ghcs.states` loads no scipy.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache

import numpy as np

from . import specfun

# tanh-sinh window |t| <= T with pi sinh T = -log(smallest normal float), so
# that x and 1 - x at the window's ends stay normal floats
_TANH_SINH_T = math.asinh(-math.log(np.finfo(float).tiny) / math.pi)
# scipy's hyp2f1 on the Euler form of the jacobi N and its first two
# derivatives (`_euler_gauss`) is trusted for x up to _EULER_CUT and
# a = m + nu up to _EULER_A_MAX.  Against mpmath at 40 digits:
# - F_k = 2F1(a-1, a-1; b+k; x), k = 0, 1, 2, hold 5.2e-14 at x = 0.998
#   over a = 0.1, 0.12, ..., 6, and F_0 holds 6.0e-14 at x = 0.9984; scipy
#   switches to another method near x = 0.99842, where F_0 errs 2.1e-3 (and
#   7.6e-4 at x = 0.999), so the cut keeps a margin of 4e-4 below it;
# - N holds 2.2e-14 up to x = 0.99 and 5.0e-14 on (0.99, 0.998] for m <= 3,
#   nu in [0.05, 2.5];
# - the moments D^k N / N, k <= 2, hold 3.5e-14 over x <= 0.99 up to a = 5.3
#   and 8.1e-14 up to a = 6, and 4.9e-14 on (0.99, 0.998] up to a = 6 (the
#   series errs up to 5.9e-13 there for m <= 3); they err 1.0e-13 at
#   a = 6.2, 1.9e-13 at a = 7, 6.2e-10 at m = 6, nu = 7.3 and 4.3e-4 at
#   m = 20, nu = 5.
# Above the cut the series take over, and the number-moment series runs out
# of its budget from x = 0.99814 (s = 2; 0.99827 for s = 1).
_EULER_CUT = 0.998
_EULER_A_MAX = 6.0
# the jacobi density's x-form near the origin (`_x_form_holds`): the
# largest b, and the distance from an integer b >= 3, where it is taken
_X_FORM_B_MAX = 12.0
_X_FORM_GAP = 1e-3
# scipy's `ive` is D. E. Amos, "Algorithm 644", ACM TOMS 12 (1986).  Its
# large-argument expansion needs t >= RL = 1.2 * 52 log10(2) + 3 (ZBESI's
# digit count: 53 mantissa bits less one), and it returns NaN for
# t > (2^31 - 1) / 2, its bound on |z| from the largest int
_AMOS_RL = 1.2 * (math.log10(2.0) * 52.0) + 3.0
_IVE_T_MAX = 0.5 * (2.0**31 - 1.0)


class Bessel:
    """h_n = sqrt(n! (b)_n) with b = 2m + 2nu, labels in all of C:
    N(x) = 0F1(; b; x), past the float range from x about 1.3e5, and the
    weight density 2 x^{(b-1)/2} K_{b-1}(2 sqrt x) / Gamma(b) on (0, inf)."""

    RADIUS = math.inf
    LITERAL_N = False  # W = 2 I K reads no N, so a literal curve is the canonical one
    KERNEL_SCALE = 1.5
    N_CHECK = 20
    VERIFY_X_MAX = math.inf
    EXPECT_X_MAX = math.inf

    def log_h_entries(self, params, start: int, stop: int, carry):
        # half the log-gamma sum, by `math.lgamma` elementwise (measured at
        # least as accurate as scipy's gammaln here; the two differ in the
        # last bits); the carry passes through
        n = np.arange(start, stop + 1, dtype=float)
        return 0.5 * (_lgamma(n + 1.0) + _lgamma(params.b + n) - math.lgamma(params.b)), carry

    def normalization(self, params, xs: np.ndarray) -> np.ndarray:
        return specfun.hyp_0f1(params.b, xs)

    def tail_ratio(self, params, mag, k: float):
        return mag / math.sqrt((k + 1.0) * (params.b + k))

    def signed(self, mods: np.ndarray, n_max: int) -> np.ndarray:
        return mods  # every s_n is +1

    def density(self, params, xs: np.ndarray) -> np.ndarray:
        kve = _special().kve
        b = params.b
        out = np.zeros_like(xs)
        pos = xs > 0.0
        xp = xs[pos]
        t = 2.0 * np.sqrt(xp)
        lc = math.log(2.0) - math.lgamma(b)
        out[pos] = np.exp(lc + 0.5 * (b - 1.0) * np.log(xp) - t) * kve(b - 1.0, t)
        # x = 0 endpoint: finite limit 1/(b-1) for b > 1, else singular
        if np.any(~pos):
            out[~pos] = 1.0 / (b - 1.0) if b > 1.0 else math.inf
        return out

    def rule(self, params, n: int):
        """Substitute x = t^2/4.  For b > 1.5, generalized Gauss-Laguerre in
        t with the linear weight t e^{-t} matching the small-t behaviour of
        t^b K_{b-1}(t); the remaining factor rides in the weights through the
        exponentially scaled K.  For b <= 1.5 the origin carries two
        branches, t and t^{2b-1} (a log at b = 1): tanh-sinh with n // 4
        nodes (made odd) on 0 < t < 1 and a shifted Gauss-Laguerre tail with
        the rest."""
        sp = _special()
        b = params.b
        logc = (1.0 - b) * math.log(2.0) - math.lgamma(b)
        if b > 1.5:
            # t^b K_{b-1}(t) ~ t x analytic(t^2) at the origin, so a single
            # generalized Gauss-Laguerre weight t e^{-t} absorbs it.
            t, w = _gauss_genlaguerre(n, 1.0)
            lv = logc + (b - 1.0) * np.log(t) + np.log(sp.kve(b - 1.0, t))
            v = np.where(lv > -700.0, w * np.exp(lv), 0.0)
            return 0.25 * t * t, v
        # b <= 1.5: the origin's t and t^{2b-1} branches on tanh-sinh, the tail on Laguerre
        n_de = (n // 4) | 1
        t_de, _, w = _tanh_sinh(n_de)
        keep = 0.25 * t_de * t_de > 0.0  # t^2/4 underflows at the smallest nodes
        t_de = t_de[keep]
        w_de = w[keep] * np.exp(logc + b * np.log(t_de)) * sp.kv(b - 1.0, t_de)
        un, uw = _gauss_genlaguerre(n - n_de, 0.0)
        t_tl = 1.0 + un
        w_tl = uw * np.exp(logc + b * np.log(t_tl) - 1.0) * sp.kve(b - 1.0, t_tl)
        t_all = np.concatenate([t_de, t_tl])
        return 0.25 * t_all * t_all, np.concatenate([w_de, w_tl])

    def weights(self, params, literal_n: int | None, xs: np.ndarray, omega, norm):
        """W = 0F1(b; x) omega(x) = 2 I_nu(t) K_nu(t), nu = b - 1, t = 2 sqrt x
        (DLMF 10.39.9), for every curve, from the exponentially scaled
        functions, whose factors e^{-t} and e^{t} cancel: neither N nor the
        density is formed, so W stays finite past x = 1.3e5, where N leaves
        the float range.  Where ive underflows (x near 1e-300 for b >= 3) W
        comes from the Wronskian of I and K instead.  Against mpmath W holds
        to 2e-13 for x from 1e-300 to 1e12.  The x = 0 limit is 1 / nu, or
        inf for nu <= 0."""
        sp = _special()
        nu = params.b - 1.0
        w = np.full(xs.shape, 1.0 / nu if nu > 0.0 else math.inf)
        pos = xs > 0.0
        x = xs[pos]
        t = 2.0 * np.sqrt(x)
        i = sp.ive(nu, t)
        # where I_nu leaves the normal floats, K_nu passes the float range and
        # the product is 0 inf or lost to subnormal rounding
        ok = i >= np.finfo(float).tiny
        wp = np.empty_like(t)
        wp[ok] = 2.0 * i[ok] * sp.kve(nu, t[ok])
        if not ok.all():
            wp[~ok] = self._weights_by_ratios(params, x[~ok], t[~ok])
        w[pos] = wp
        return w

    def closed(self, params, x) -> bool:
        return True  # at every x

    def derivative_ratios(self, params, x, first=True, second=True):
        """(D1, D2) = (N'/N, N''/N) for x >= 0 a float (floats out; None
        for one not asked for where that saves work) or a float array (two
        arrays of its shape out).

        By DLMF 10.39.9, D1 = I_b(t) / (sqrt x I_{b-1}(t)) and
        D2 = I_{b+1}(t) / (x I_{b-1}(t)) with t = 2 sqrt x.  Where
        `_ive_regime` holds, x >= max(118.64, (b+1)^4 / 16), scipy's `ive`
        takes Amos's large-argument expansion for all three orders, and the
        quotients of its values hold to 8.8e-16 (D1) and 5.3e-16 (D2) of
        mpmath at 40 digits over 300 draws with b in [0.02, 1000] and x up
        to 2.8e17.  There `cython_special.ive` is called for I_{b-1} and
        the I_b or I_{b+1} asked for.  Past `_IVE_T_MAX` (2 sqrt x >
        (2^31 - 1) / 2, x > 2.8823e17) `ive` returns NaN, and
        ConvergenceError names x and that edge.

        Below the regime (x < 118.64, and x < (b+1)^4 / 16 at large b) both
        come from the certified ratio recurrence `specfun._hyp_0f1_ratios`,
        with rho_c = 0F1(; c+1; x) / 0F1(; c; x), D1 = rho_b / b and
        D2 = rho_b rho_{b+1} / (b (b+1)): about 9 x^{1/4} levels deep,
        within 1.6e-15 of mpmath for b in [0.02, 200], x in [0, 1e8].  Its
        1600-level budget refuses x from about 1.2e9 on at b = 3 and from
        about 2.5e9 on at b = 400, naming x and the budget.  The regime
        starts before that for b up to about 430.  For larger b a gap is
        left below the regime's start (3.9e9 at b = 500), and refusal near
        the cap is not monotone in x: the brackets meet there by chance,
        so at b = 500 refused and taken x are mixed from 2.6e9 to 3.35e9.

        An array maps the float call over its elements in C order, so each
        element is the float call's value and the first failing element
        raises.
        """
        if not (isinstance(x, float) or np.ndim(x) == 0):
            xs = np.asarray(x, dtype=float)
            pairs = [self.derivative_ratios(params, v) for v in xs.ravel().tolist()]
            pairs = np.array(pairs).reshape(-1, 2)
            return pairs[:, 0].reshape(xs.shape), pairs[:, 1].reshape(xs.shape)
        b, x = params.b, float(x)
        t = 2.0 * math.sqrt(x)
        if not _ive_regime(b, t):
            r0, r1 = specfun._hyp_0f1_ratios(b, x)
            return r0 / b, r0 * r1 / (b * (b + 1.0))
        if t > _IVE_T_MAX:
            raise _past_ive_edge(b, x)
        ive = _cython_special().ive
        i0 = ive(b - 1.0, t)
        return (ive(b, t) / (math.sqrt(x) * i0) if first else None,
                ive(b + 1.0, t) / (x * i0) if second else None)

    def ladder(self, params, vals: np.ndarray, n: np.ndarray, offset: int, literature: bool):
        # the published c = 1 coefficients carry no Pochhammer factor either
        return vals

    def basis_map(self, params):
        scale = params.b  # mean of the radial measure
        return lambda x: 2.0 * x / (x + scale) - 1.0

    def fit_radius(self, r: np.ndarray, x: np.ndarray, a0: float) -> np.ndarray:
        return r  # the support is unbounded

    def _weights_by_ratios(self, params, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        # 2 I_nu K_nu from the Wronskian I_nu K_{nu+1} + I_{nu+1} K_nu = 1/t
        # (DLMF 10.28.2) as 2 / (t (s + r)), with the ratios s = K_{nu+1} / K_nu
        # and r = I_{nu+1} / I_nu, which stay in range where I_nu and K_nu do
        # not.  s is the forward recurrence s_mu = 2 mu / t + 1 / s_{mu-1}
        # (DLMF 10.29.1; all terms positive) from mu0 - 1 = nu - floor(nu) - 1,
        # where s = K_{mu0} / K_{1-mu0}; r = sqrt(x) D1 (`derivative_ratios`).
        kve = _special().kve
        nu = params.b - 1.0
        mu0 = nu - math.floor(nu)
        s = kve(mu0, t) / kve(1.0 - mu0, t)
        for k in range(math.floor(nu) + 1):
            s = 2.0 * (mu0 + k) / t + 1.0 / s
        r = np.sqrt(x) * self.derivative_ratios(params, x)[0]
        return 2.0 / (t * (s + r))


class Jacobi:
    """h_n = sqrt(n! (b)_n) / (a+1)_n with a = m + nu, b = 2a, labels
    |z| < 1: N(x) = 2F1(a+1, a+1; b; x) on [0, 1).  The amplitudes carry
    the sign s_n = (-1)^n of the defining coefficient
    (-m-n-nu)_n = (-1)^n (a+1)_n, the one the weight density, kernel and
    quantization are derived for; it cancels in every modulus.  The weight
    density lives on (0, 1): the paper writes it as the Meijer G-function
    G^{2,0}_{2,2}(x | a,a; 0,2a-1) scaled by Gamma(a+1)^2 / Gamma(b), and
    with parameter excess 1 that G-function is the Gauss function
    2F1(1-a, 1-a; 1; 1-x) there (Luke 1969, section 5; DLMF 16.17-16.18)
    and zero for x >= 1."""

    RADIUS = 1.0
    LITERAL_N = True  # a literal weight curve's N is the 2F1 of its own n
    KERNEL_SCALE = 0.6
    N_CHECK = 12
    VERIFY_X_MAX = 0.8
    EXPECT_X_MAX = _EULER_CUT  # the end of the closed-form moments

    def log_h_entries(self, params, start: int, stop: int, carry):
        """The squared ratio h_k^2 / h_{k-1}^2 = k (b+k-1) / (s+k-1)^2 is
        1 + delta_k with delta_k = (k (b+1-2s) - (s-1)^2) / (s+k-1)^2, s the
        coefficient shift, so log h_n is the running sum of log1p(delta_k) / 2.
        These steps are O(1/k); the log-gamma form would cancel terms of up
        to 3e5 to an O(10) result (1.4e-10 off at n = 32768).  The sum is
        compensated: `np.cumsum` continues from the carried sum, each
        addition's rounding error is recovered exactly (Knuth's TwoSum) and
        summed beside it from the carried compensation, so the table is
        about as accurate as its last entry's rounding (1e-14 at
        |log h| = 66, where a plain running sum drifts to 9e-13 by
        n = 32768).  Both sums are sequential, so growing in pieces changes
        no bit.
        """
        n = np.arange(start, stop + 1, dtype=float)
        s = params.coeff_shift
        c = s - 1.0
        d = c + n
        steps = 0.5 * np.log1p((n * (params.b + 1.0 - 2.0 * s) - c * c) / (d * d))
        total, comp = carry
        sums = np.cumsum(np.concatenate(([total], steps)))
        prev, sums = sums[:-1], sums[1:]
        back = sums - prev
        errs = np.cumsum(np.concatenate(([comp], (prev - (sums - back)) + (steps - back))))[1:]
        return sums + errs, (sums[-1], errs[-1])

    def normalization(self, params, xs: np.ndarray) -> np.ndarray:
        # summed through the h-ratio recurrence
        b = params.b
        shift = params.coeff_shift
        return specfun._sum_ratio_array(
            "jacobi normalization", xs,
            lambda k, w: w * np.square(shift + k) / ((k + 1.0) * (b + k)),
        )

    def tail_ratio(self, params, mag, k: float):
        return mag / math.sqrt((k + 1.0) * (params.b + k)) * (params.coeff_shift + k)

    def signed(self, mods: np.ndarray, n_max: int) -> np.ndarray:
        return _jacobi_sign_row(n_max) * mods

    def density(self, params, xs: np.ndarray) -> np.ndarray:
        """2F1(1-a, 1-a; 1; 1-x) inside (0, 1), except on x < 1/2 for b < 1
        and for non-integer b up to 12 (`_x_form_holds`), where it is the
        connection formula's two Gauss functions of x itself (DLMF 15.8.4):
        against mpmath it holds to 1.9e-14 relative down to x = 1e-300
        (m = 0, nu = 0.05) and to 1e-13 for b in (1, 12]; and at b = 1,
        where it is the complete elliptic integral (2/pi) K(1 - x) of x
        itself, within 2.2e-16 from x = 1e-15 to 1 - 1e-12.  The rest
        (integer b >= 2, b near an integer from 3 up, b > 12) has b >= 2,
        where the x^{b-1} branch is of order x, so rounding 1 - x costs
        little (9.7e-15 at b = 3.0005 and 7.8e-14 at b = 13.4, at
        x = 2.78e-14); the radial rule passes its exact 1 - x anyway."""
        out = np.zeros_like(xs)
        inside = (xs > 0.0) & (xs < 1.0)
        out[inside] = self._density(params, xs[inside], 1.0 - xs[inside])
        if np.any(xs == 0.0):
            # x -> 0 limit a^2/(b-1) for b > 1, integrably singular below
            lim = params.a**2 / (params.b - 1.0) if params.b > 1.0 else math.inf
            out[xs == 0.0] = lim
        return out

    def rule(self, params, n: int):
        # tanh-sinh on (0, 1) with the density as weight factor, for every b:
        # its nodes cluster at both ends as a double exponential, which
        # absorbs the x^{b-1} and x^0 branches at the origin alike
        x, y, w = _tanh_sinh(n)
        return x, w * self._density(params, x, y)

    def weights(self, params, literal_n: int | None, xs: np.ndarray, omega, norm):
        """N is 2F1(-c, -c; b; x), c = m + n + nu, for a literal n, and
        otherwise the canonical N: (1-x)^{-2} 2F1(a-1, a-1; b; x) (Euler's
        transformation) where `closed` holds (within 1e-13 of mpmath up to
        x = 0.998), and norm elsewhere, where scipy's Euler form errs."""
        om = omega(params)
        w = np.zeros(xs.shape)  # zero past the support x >= 1
        inside = xs < 1.0
        x = xs[inside]
        a, b = params.a, params.b
        if literal_n is None:
            euler = self.closed(params, x)
            nval = np.empty_like(x)
            nval[euler] = self._euler_gauss(params, x[euler]) / np.square(1.0 - x[euler])
            if not euler.all():
                nval[~euler] = norm(params, x[~euler])
        else:
            c = a + literal_n  # = m + n + nu
            nval = _special().hyp2f1(-c, -c, b, x)
        # N >= 1 is finite, so W is inf where omega is (x = 0 for b <= 1)
        w[inside] = nval * om[inside]
        return w

    def closed(self, params, x):
        # where scipy's Gauss functions are trusted; elsewhere the series
        return (x <= _EULER_CUT) & (params.a <= _EULER_A_MAX)

    def derivative_ratios(self, params, x, first=True, second=True):
        """From one F_0 and the F_k asked for."""
        f0 = self._euler_gauss(params, x)
        return (self._derivative_ratio(params, x, f0, 1) if first else None,
                self._derivative_ratio(params, x, f0, 2) if second else None)

    def ladder(self, params, vals: np.ndarray, n: np.ndarray, offset: int, literature: bool):
        """The coefficient-ratio form divides by h_{n+1}/h_n's factor
        (a + n + 1), and the diagonal by its square; the published form
        multiplies the root by -(m+nu+n+1), from the general construction."""
        if not literature:
            shift = params.coeff_shift + n
            return vals / shift if offset else vals / shift ** 2
        return -(params.a + n + 1.0) * vals if offset else vals

    def basis_map(self, params):
        return lambda x: 2.0 * x - 1.0

    def fit_radius(self, r: np.ndarray, x: np.ndarray, a0: float) -> np.ndarray:
        # keep the fit's scaled points e^{a0 + r} x inside the support
        return np.minimum(r, 0.5 * np.maximum(1e-3, -np.log(x) - a0))

    def _density(self, params, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Gamma(a+1)^2 / Gamma(b) G^{2,0}_{2,2}(x | a,a; 0,2a-1) on 0 < x < 1,
        # from x and y = 1 - x, each formed directly; the reflected constant is
        # finite for every nu > 0
        sp = _special()
        a, b = params.a, params.b
        const = math.exp(2.0 * math.lgamma(a + 1.0) - math.lgamma(b))
        if b == 1.0:
            # 2F1(1/2, 1/2; 1; 1 - x) = (2/pi) K(1 - x) (DLMF 19.5.1), which
            # ellipkm1 takes from x itself: finite down to x = 5e-324, where
            # scipy's hyp2f1 at 1 - x is inf for x <= 1e-14
            return const * (2.0 / math.pi) * sp.ellipkm1(x)
        near = (x < 0.5) & _x_form_holds(b)
        out = np.empty_like(x)
        out[~near] = sp.hyp2f1(1.0 - a, 1.0 - a, 1.0, y[~near])
        if near.any():
            # near the origin: the x^{b-1} and x^0 branches in x itself (DLMF
            # 15.8.4), so the digits of x below 1.1e-16 are not rounded away;
            # formed only where some x takes it, as no b > 12 does and its
            # Gamma product is inf from b = 173 and inf * 0 = NaN from 206
            xn = x[near]
            out[near] = (sp.gamma(b - 1.0) * sp.rgamma(a) ** 2
                         * sp.hyp2f1(1.0 - a, 1.0 - a, 2.0 - b, xn)
                         + sp.gamma(1.0 - b) * sp.rgamma(1.0 - a) ** 2 * xn ** (b - 1.0)
                         * sp.hyp2f1(a, a, b, xn))
        return const * out

    def _derivative_ratio(self, params, xs, f0, k: int):
        # D^k N / N = ((a+1)_k)^2 / (b)_k (1-x)^{-k} F_k / F_0 for k = 1, 2, with
        # F_k = 2F1(a-1, a-1; b+k; x) (`_euler_gauss`; b = 2a); (1-x)^2 is a
        # product, as numpy squares an array where a float's `**` is libm
        # `pow`, which differs in the last bit for about one value in a thousand
        a, b = params.a, params.b
        c = (a + 1.0) ** 2 / b if k == 1 else ((a + 1.0) * (a + 2.0)) ** 2 / (b * (b + 1.0))
        d = 1.0 - xs
        return c / (d if k == 1 else d * d) * self._euler_gauss(params, xs, k) / f0

    def _euler_gauss(self, params, x, k: int = 0):
        """2F1(a-1, a-1; b+k; x) by scipy's hyp2f1, with a = m + nu, b = 2a.
        As (d/dx)^k 2F1(a+1, a+1; b; x) = ((a+1)_k)^2 / (b)_k 2F1(a+1+k,
        a+1+k; b+k; x) (DLMF 15.5.2), Euler's transformation (DLMF 15.8.1)
        gives the k-th derivative of the jacobi N as ((a+1)_k)^2 / (b)_k
        (1-x)^{-2-k} times this, whose c - a - b is k + 2 (`Jacobi.closed`
        says where scipy holds it).  A float x takes the C-level
        `cython_special.hyp2f1`, a float out without the ufunc's dispatch
        (1.0 against 2.3 us a call); an array takes the ufunc.  The two
        are the same routine and give the same bits."""
        a1, c = params.a - 1.0, params.b + k
        if isinstance(x, float):
            return _cython_special().hyp2f1(a1, a1, c, x)
        return _special().hyp2f1(a1, a1, c, x)


BESSEL, JACOBI = Bessel(), Jacobi()


def _ive_regime(b: float, t):
    """Where scipy's `ive` takes Amos's large-argument expansion (DLMF
    10.40.1) for every order up to b + 1 at t = 2 sqrt x: t >= `_AMOS_RL`
    and 2 t >= (b+1)^2, the tests of Amos's ZBINU."""
    return t >= _AMOS_RL and t + t >= (b + 1.0) * (b + 1.0)


def _past_ive_edge(b: float, x: float) -> specfun.ConvergenceError:
    return specfun.ConvergenceError(
        f"0F1({b!r}; x) ratios need scipy's ive past its edge "
        f"2 sqrt x = {_IVE_T_MAX!r} at x = {x!r}")


def _x_form_holds(b: float) -> bool:
    """Whether the jacobi density takes the x-form of DLMF 15.8.4 on x < 1/2
    (`Jacobi._density`): for every b < 1, and for b in (1, _X_FORM_B_MAX]
    that is not an integer and not within _X_FORM_GAP of one from 3 up.

    At an integer b the form's Gamma factors have poles (b = 1 takes
    ellipkm1, b >= 2 scipy's y-form).  Near b = 3, 6, 8 and 12 its Gauss
    functions cancel: against mpmath at 60 digits over x in [1e-300, 1/2)
    it errs 1.4e-13 at b = 2.9999, 1.9e-14 at 5.9999 and 5.5e-13 at
    11.9999, but 1.0e-14 at 3.001 and 7.4e-16 at 12.001.  Near b = 2 it
    holds (5.6e-16 at 1.9999 and 2.0001, where scipy's y-form errs
    4.5e-13), and toward b = 1 it degrades far less than the y-form
    (3.6e-14, 3.0e-13 and 3.3e-12 at b = 1.01, 1.001 and 1.0001, where
    the y-form errs 2.5, 29 and 300).  Past b = 12 its error grows with b
    (2.9e-13 at 21.001, 2.9e-6 at 100.3)."""
    n = round(b)
    return b < 1.0 or (b != n and b <= _X_FORM_B_MAX and (n < 3 or abs(b - n) >= _X_FORM_GAP))


@cache
def _special():
    # scipy.special, imported at the first call; a formula called per op then
    # pays a cache lookup where `from scipy.special import` costs 0.4 us
    import scipy.special
    return scipy.special


@cache
def _cython_special():
    # scipy.special.cython_special, imported at the first float Gauss
    # function or bessel ive (3 ms and 1 MB past scipy.special), cached as
    # `_special`
    from scipy.special import cython_special
    return cython_special


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, x), dtype=float, count=len(x))


@lru_cache(maxsize=8)
def _gauss_genlaguerre(n: int, alpha: float):
    """Read-only (nodes, weights) of the n-point generalized Gauss-Laguerre
    rule for t^alpha e^{-t} on (0, inf), shared by every params; the 8
    most recent (n, alpha) are kept.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix (Golub-Welsch 1969), taken by numpy's dense `eigvalsh`, so no
    command loads `scipy.linalg`.  They equal scipy's `eigh_tridiagonal`
    bit for bit at both alpha the rules use (0 and 1) for every n from 2
    to 399 and at 480, 600, 1000 and 2000.  The dense solve costs more,
    once per (n, alpha) per process as the table is cached
    (eigensolve alone, 2-core Intel Xeon, best of 7):

        n                     240   392   600   1000
        eigvalsh (ms)           4    11    28     90
        eigh_tridiagonal (ms)   1.5   3.5   8     21

    240 nodes is the default rule.  A failed certificate is checked on a
    rule of int(1.6 n) + 8 nodes, n the nodes the first rule kept
    (`measure.verify_identity`): 392 for jacobi, and 374 or 385 for
    bessel, which keeps 229 or 236 of its 240.
    """
    # Weights from Christoffel sums w_i = 1 / sum_k p_k(t_i)^2 over the
    # orthonormal recurrence, which keeps relative accuracy even for the
    # far-tail nodes (eigenvector-based weights only carry absolute
    # accuracy, and the high moments are dominated by exactly those tail
    # nodes).
    k = np.arange(n, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = math.exp(math.lgamma(alpha + 1.0))
    t = nodes
    p_prev = np.zeros_like(t)
    p_cur = np.full_like(t, 1.0 / math.sqrt(mu0))
    log_scale = np.zeros_like(t)
    ssum = p_cur**2
    for j in range(n - 1):
        b_prev = off[j - 1] if j > 0 else 0.0
        p_new = ((t - diag[j]) * p_cur - b_prev * p_prev) / off[j]
        p_prev, p_cur = p_cur, p_new
        big = np.abs(p_cur) > 1e120
        if np.any(big):
            f = np.where(big, 1e-120, 1.0)
            p_prev = p_prev * f
            p_cur = p_cur * f
            ssum = ssum * f * f
            log_scale += np.where(big, math.log(1e120), 0.0)
        ssum += p_cur**2
    weights = np.exp(-(np.log(ssum) + 2.0 * log_scale))
    return _read_only(nodes, weights)


@lru_cache(maxsize=8)
def _tanh_sinh(n: int):
    """Read-only (x, 1 - x, weights) of the n-point tanh-sinh rule on (0, 1),
    shared by every params (the jacobi rule and the bessel b <= 1.5 origin):
    n equal steps t over |t| <= T, with x = 1 / (1 + e^{-pi sinh t}) and
    1 - x = 1 / (1 + e^{pi sinh t}) each formed directly, and weights
    h pi cosh t x (1 - x) (Takahasi-Mori 1974).  T is where x reaches the
    smallest normal float, so the rule reaches an integrable x^{b-1}
    endpoint as far as floats allow.  The 8 most recent n are kept."""
    t = np.linspace(-_TANH_SINH_T, _TANH_SINH_T, n)
    s = math.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-s))
    y = 1.0 / (1.0 + np.exp(s))
    w = (2.0 * _TANH_SINH_T / (n - 1)) * math.pi * np.cosh(t) * x * y
    return _read_only(x, y, w)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=16)
def _jacobi_sign_row(n_max: int) -> np.ndarray:
    # the jacobi amplitudes' (-1)^n as a row, shared read-only
    signs = np.ones((1, n_max + 1))
    signs[:, 1::2] = -1.0
    signs.flags.writeable = False
    return signs
