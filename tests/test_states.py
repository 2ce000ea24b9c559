"""State construction, normalization, overlaps, label continuity."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import iv

from ghcs import families, specfun, states
from ghcs.dynamics import Spectrum
from ghcs.kernel import gram_matrix
from ghcs.states import (
    Family,
    FamilyParams,
    FockVector,
    _build_rows,
    _pair_overlap,
    _log_h_array,
    _log_h_store,
    _log_h_table,
    log_coeff_h,
    normalization,
    overlap,
    state,
    state_matrix,
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

    @pytest.mark.parametrize("m, nu, message", [
        (math.inf, 0.5, "m must be a non-negative integer"),
        (math.nan, 0.5, "m must be a non-negative integer"),
        (1.5, 0.5, "m must be a non-negative integer"),
        (10**400, 0.5, "2m + 2nu must be finite"),  # an integer, but 2m leaves the floats
        (1, math.inf, "2m + 2nu must be finite"),
        (1, 1e308, "2m + 2nu must be finite"),
        (0, math.nan, "nu must be positive"),
    ])
    @pytest.mark.parametrize("family", list(Family))
    def test_non_finite_parameters_are_rejected(self, m, nu, message, family):
        with pytest.raises(ValueError) as exc:
            FamilyParams(m, nu, family)
        assert str(exc.value) == message

    def test_a_whole_float_m_is_taken(self):
        assert FamilyParams(2.0, 0.5).m == 2 and type(FamilyParams(2.0, 0.5).m) is int
        assert FamilyParams(np.int64(3), 0.5).b == 7.0

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
        assert math.exp(log_coeff_h(bessel_params, 0)) == 1.0
        assert math.exp(log_coeff_h(jacobi_params, 0)) == 1.0

    def test_bessel_example(self, bessel_params):
        # sqrt(2! (3)_2) = sqrt(24)
        assert rel_err(math.exp(log_coeff_h(bessel_params, 2)), math.sqrt(24.0)) < 1e-14

    def test_jacobi_example(self, jacobi_params):
        # divide by (2.5)_2 = 8.75
        assert rel_err(math.exp(log_coeff_h(jacobi_params, 2)), math.sqrt(24.0) / 8.75) < 1e-14

    def test_signs(self, bessel_params, jacobi_params):
        # the amplitudes at a positive real label carry the family sign s_n
        assert np.sign(state(bessel_params, 0.5).coeffs[:4].real).tolist() == [1, 1, 1, 1]
        assert np.sign(state(jacobi_params, 0.5).coeffs[:4].real).tolist() == [1, -1, 1, -1]

    def test_eigenvalue_bookkeeping(self, bessel_params):
        # e_n = n(2m + n + 2nu - 1); prod e_k = n! (2m+2nu)_n = h_n^2 (bessel)
        p = bessel_params
        lv = Spectrum(p).levels(8).tolist()
        assert lv[0] == 0.0
        for n in range(1, 9):
            assert lv[n] == n * (n + 2)  # b = 3
            product = math.prod(lv[1 : n + 1])
            assert product == math.factorial(n) * math.factorial(n + 2) / 2
            assert math.exp(log_coeff_h(p, n)) ** 2 == pytest.approx(product, rel=1e-14)

    def test_levels_increasing(self):
        p = FamilyParams(0, 0.6)  # 2m+2nu = 1.2 > 1
        lv = Spectrum(p).levels(19)
        assert np.all(np.diff(lv) > 0.0)


class TestNormalization:
    def test_at_zero(self, bessel_params, jacobi_params):
        assert normalization(bessel_params, 0.0) == 1.0
        assert normalization(jacobi_params, 0.0) == 1.0

    def test_bessel_closed_form(self, bessel_params):
        # Gamma(3) 4^{-1} I_2(4) 4^{1/2} ... i.e. Gamma(b) x^{(1-b)/2} I_{b-1}(2 sqrt x)
        x = 4.0
        ref = 2.0 * x ** (-1.0) * iv(2.0, 2.0 * math.sqrt(x))
        assert rel_err(normalization(bessel_params, x), ref) < 1e-10

    def test_jacobi_closed_form(self, jacobi_params):
        ref = float(mp.hyp2f1(2.5, 2.5, 3.0, 0.5))
        assert rel_err(normalization(jacobi_params, 0.5), ref) < 1e-10

    def test_identity_on_grid(self):
        for params, closed in (
            (FamilyParams(2, 0.7, Family.BESSEL),
             lambda x: specfun.hyp_0f1(5.4, x)),
            (FamilyParams(2, 0.7, Family.JACOBI),
             lambda x: float(mp.hyp2f1(3.7, 3.7, 5.4, x))),
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
                sign = -1.0 if params.family is Family.JACOBI else 1.0  # s_{n+1} / s_n
                ref = sign * z * math.exp(log_coeff_h(params, n) - log_coeff_h(params, n + 1))
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


# labels on several truncations (bessel 128, 256 and 512; jacobi 128 to
# 2048), the vacuum, and a signed-zero pair on the negative real axis
_OVERLAP_LABELS = {
    "bessel": (FamilyParams(1, 0.5, Family.BESSEL), [
        0.0, 0.3 - 0.2j, complex(-1.2, 0.0), complex(-1.2, -0.0),
        30.0 * np.exp(1.0j), 100.0 * np.exp(2.0j), 200.0j,
    ]),
    "jacobi": (FamilyParams(1, 0.5, Family.JACOBI), [
        0.0, complex(-0.5, 0.0), complex(-0.5, -0.0), 0.3j,
        0.9 * np.exp(1.0j), 0.95 * np.exp(-2.0j), 0.99 * np.exp(3.0j),
    ]),
}


def _vdot_overlap(params, z1, z2):
    """Reference: one pair's np.vdot over its common truncation."""
    v1, v2 = state(params, z1), state(params, z2)
    n = min(v1.n_max, v2.n_max) + 1
    return complex(np.vdot(v1.coeffs[:n], v2.coeffs[:n]))


class TestOverlapMatrix:
    """`overlap` on label lists against one call per pair."""

    @pytest.mark.parametrize("family", ["bessel", "jacobi"])
    def test_bit_identical_to_the_scalar_calls(self, family):
        params, labels = _OVERLAP_LABELS[family]
        assert len({state(params, z).n_max for z in labels}) >= 3
        others = labels[::-1] + labels[:2]
        got = overlap(params, labels, others)
        scalar = np.array([[overlap(params, a, b) for b in others] for a in labels])
        ref = np.array([[_vdot_overlap(params, a, b) for b in others] for a in labels])
        assert got.shape == (len(labels), len(others)) and got.dtype == complex
        assert got.tobytes() == scalar.tobytes() == ref.tobytes()
        # the signed-zero labels are built apart: their rows differ
        assert got[2].tobytes() != got[3].tobytes()
        assert type(overlap(params, labels[1], labels[3])) is complex

    @pytest.mark.parametrize("shapes", [((2, 3), (4,)), ((), (5,)), ((5,), ()), ((0,), (3,)),
                                        ((2, 0), (0, 2)), ((1, 1), (2, 1, 2))])
    def test_shape_is_both_label_shapes(self, jacobi_params, shapes):
        rng = np.random.default_rng(3)
        z1, z2 = (0.8 * (rng.uniform(-0.7, 0.7, s) + 1j * rng.uniform(-0.7, 0.7, s))
                  for s in shapes)
        got = overlap(jacobi_params, z1, z2)
        assert np.shape(got) == shapes[0] + shapes[1]
        ref = [[overlap(jacobi_params, a, b) for b in np.ravel(z2).tolist()]
               for a in np.ravel(z1).tolist()]
        assert np.array_equal(np.reshape(got, (np.size(z1), np.size(z2))),
                              np.reshape(ref, (np.size(z1), np.size(z2))))

    def test_errors_name_the_first_bad_label(self, jacobi_params):
        with pytest.raises(ValueError, match="1.2"):
            overlap(jacobi_params, [0.1, 1.2, 1.5], [0.2])


class TestStackedPairOverlap:
    """`_pair_overlap` on two stacks of rows against one `np.vdot` per pair."""

    @pytest.mark.parametrize("params, radii", [
        (FamilyParams(1, 0.5, Family.BESSEL), (0.0, 0.3, 2.0, 30.0, 100.0, 130.0)),
        (FamilyParams(1, 0.5, Family.JACOBI), (0.0, 0.2, 0.6, 0.85, 0.9, 0.95)),
    ], ids=["bessel", "jacobi"])
    def test_bit_identical_to_per_pair_vdot(self, params, radii):
        # short labels mixed with labels past the first doubling, so common
        # truncations of 128 and 256 meet in one stack, on both sides
        rng = np.random.default_rng(11)
        side = [r * complex(math.cos(t), math.sin(t))
                for r in radii for t in rng.uniform(-math.pi, math.pi, 3)]
        m1 = state_matrix(params, side)
        m2 = state_matrix(params, side[1:] + side[:1])
        assert {128, 256} <= set(np.minimum(m1.n_max, m2.n_max).tolist())
        weights = np.expm1(rng.uniform(-1e-3, 1e-3, m1.coeffs.shape[1]))
        for w in (None, weights):
            got = _pair_overlap(m1.coeffs, m1.n_max, m2.coeffs, m2.n_max, w)
            n = np.minimum(m1.n_max, m2.n_max) + 1
            vdot = np.array([
                np.vdot(c1[:k], c2[:k] if w is None else c2[:k] * w[:k])
                for c1, c2, k in zip(m1.coeffs, m2.coeffs, n.tolist())
            ])
            assert got.dtype == complex and got.shape == (len(side),)
            assert np.array_equal(got, vdot)

    def test_empty_stacks(self, jacobi_params):
        empty = state_matrix(jacobi_params, [])
        got = _pair_overlap(empty.coeffs, empty.n_max, empty.coeffs, empty.n_max)
        assert got.shape == (0,)


def _log_h_reference(params, n_max):
    """Uncached scalar evaluation, the same operations in the same order:
    bessel's log-gamma sum per order; jacobi's steps log1p(delta_k) / 2
    (numpy's log1p on the whole array, as the table takes it) summed one by
    one with each addition's TwoSum error summed beside them."""
    if params.family is Family.BESSEL:
        return np.array([0.0] + [
            0.5 * (math.lgamma(k + 1.0) + math.lgamma(params.b + k) - math.lgamma(params.b))
            for k in range(1, n_max + 1)
        ])
    s = params.coeff_shift
    c = s - 1.0
    deltas = [(k * (params.b + 1.0 - 2.0 * s) - c * c) / ((c + k) * (c + k))
              for k in range(1, n_max + 1)]
    out, total, comp = [0.0], 0.0, 0.0
    for step in (0.5 * np.log1p(np.array(deltas))).tolist():
        new = total + step
        back = new - total
        comp += (total - (new - back)) + (step - back)
        total = new
        out.append(total + comp)
    return np.array(out)


class TestLogHCache:
    @pytest.mark.parametrize("family", list(Family))
    def test_bit_identical_to_reference(self, family):
        params = FamilyParams(2, 0.7, family)
        for n in (0, 1, 127, 128, 129, 1000, 16384):
            got = _log_h_array(params, n)
            assert got.shape == (n + 1,)
            assert np.array_equal(got, _log_h_reference(params, n)), n

    def test_grown_equals_built_at_once(self):
        params = FamilyParams(3, 7.3, Family.JACOBI)
        _log_h_store.cache_clear()
        for n in (1, 3, 100, *(128 << k for k in range(9))):
            _log_h_array(params, n)
        grown = _log_h_table(params, 32768)
        _log_h_store.cache_clear()
        at_once = _log_h_table(params, 32768)
        assert len(grown) == 32769
        assert np.array_equal(grown, at_once)

    def test_jacobi_table_against_mpmath(self):
        # log h_n = [lgG(n+1) + lgG(b+n) - lgG(b)] / 2 - [lgG(s+n) - lgG(s)]
        # at the float b and s, to n = 32768, where that form in float64 cancels
        # terms of up to 3e5 and was off by 1.4e-10
        orders = sorted({*np.geomspace(1, 32768, 40).astype(int).tolist(), 32767})
        for m in (0, 1, 3, 6):
            for nu in (0.1, 0.5, 1.3, 7.3):
                params = FamilyParams(m, nu, Family.JACOBI)
                table = _log_h_array(params, 32768)
                b, s = mp.mpf(params.b), mp.mpf(params.coeff_shift)
                for n in orders:
                    ref = ((mp.loggamma(n + 1) + mp.loggamma(b + n) - mp.loggamma(b)) / 2
                           - (mp.loggamma(s + n) - mp.loggamma(s)))
                    assert abs(table[n] - float(ref)) <= 1e-12, (m, nu, n)

    def test_read_only(self, jacobi_params):
        lg = _log_h_array(jacobi_params, 100)
        with pytest.raises(ValueError):
            lg[1] = 0.0
        assert not _log_h_table(jacobi_params, 128).flags.writeable

    def test_tables_keyed_by_family(self):
        bessel = _log_h_array(FamilyParams(1, 0.5, Family.BESSEL), 64)
        jacobi = _log_h_array(FamilyParams(1, 0.5, Family.JACOBI), 64)
        assert not np.array_equal(bessel, jacobi)

    def test_gram_matrix_misses_once_per_table_size(self, monkeypatch):
        params = FamilyParams(1, 0.83, Family.JACOBI)
        radii = 1.0 - 10.0 ** -np.linspace(0.1, 2.0, 16)  # up to |z| = 0.99
        labels = [r * np.exp(1j * t) for r, t in zip(radii, np.linspace(0, 6, 16))]
        top = max(state(params, z).n_max for z in labels)
        assert top >= 1024  # the labels need several table sizes
        rows, entries = [], []
        monkeypatch.setattr(states, "_build_rows", lambda p, zs, n: (
            rows.append(len(zs)) or _build_rows(p, zs, n)))
        log_h_entries = families.JACOBI.log_h_entries
        monkeypatch.setattr(families.JACOBI, "log_h_entries", lambda p, a, b, carry: (
            entries.append((a, b)) or log_h_entries(p, a, b, carry)))
        _log_h_store.cache_clear()
        gram_matrix(params, labels)
        # one coefficient build per label, with no rebuild at a larger size
        assert rows == [1] * 16
        # one table for the params, grown to the largest size read, every
        # entry computed once
        assert _log_h_store.cache_info().misses == 1
        assert entries[-1][1] == top
        assert sum(b - a + 1 for a, b in entries) == top


def _reference_state(params, z, n_max=None):
    """Reference: the state built at n_max, or at 128, 256, ... until the
    tail is below 1e-12, one single-label `_build_rows` call per size."""
    z = complex(z)

    def build(n):
        coeffs, sizes, tails = _build_rows(params, [z], n)
        return FockVector(coeffs=coeffs[0], n_max=sizes[0], tail_bound=tails[0])

    if n_max is not None:
        return build(n_max)
    n = 128
    while True:
        vec = build(n)
        if vec.tail_bound < 1e-12:
            return vec
        n *= 2


_BESSEL = FamilyParams(1, 0.5, Family.BESSEL)
_JACOBI = FamilyParams(1, 0.5, Family.JACOBI)


class TestStateBuilds:
    @pytest.mark.parametrize("params", [_BESSEL, _JACOBI], ids=["bessel", "jacobi"])
    @pytest.mark.parametrize("z", [
        complex(-0.7, 0.0), complex(-0.7, -0.0), complex(0.0, -0.7),
        complex(-0.0, -0.7), 0.0, 0.9 * np.exp(2.0j), 0.99 * np.exp(-1.0j),
    ])
    def test_bit_identical_to_the_reference_build(self, params, z):
        ref = _reference_state(params, z)
        for _ in range(2):  # every call builds again, to the same bits
            got = state(params, z)
            assert got.n_max == ref.n_max
            assert got.tail_bound == ref.tail_bound
            assert np.array_equal(got.coeffs, ref.coeffs)

    @pytest.mark.parametrize("params", [_BESSEL, _JACOBI], ids=["bessel", "jacobi"])
    @pytest.mark.parametrize("pair", [
        (complex(-0.7, 0.0), complex(-0.7, -0.0)),
        (complex(0.0, -0.7), complex(-0.0, -0.7)),
    ], ids=["real-axis", "imaginary-axis"])
    def test_signed_zeros_are_separate_labels(self, params, pair, monkeypatch):
        # the labels compare equal, but atan2 gives them different phases;
        # an overlap builds each, whichever comes first
        built = []
        monkeypatch.setattr(states, "_build_rows", lambda p, zs, n: (
            built.append(len(zs)) or _build_rows(p, zs, n)))
        for order in (pair, pair[::-1]):
            built.clear()
            got = overlap(params, list(order), list(order))
            assert built == [1, 1]
            for z in order:
                assert np.array_equal(state(params, z).coeffs,
                                      _reference_state(params, z).coeffs)
            assert got.tolist() == [[overlap(params, a, b) for b in order] for a in order]

    def test_signed_zero_states_differ(self):
        # the case the bit-exact label key exists for
        a = state(_BESSEL, complex(-0.7, 0.0)).coeffs
        b = state(_BESSEL, complex(-0.7, -0.0)).coeffs
        assert not np.array_equal(a, b)

    def test_explicit_n_max(self):
        z = 0.8 + 0.1j
        for n_max in (60, 200):
            got = state(_JACOBI, z, n_max=n_max)
            assert got.n_max == n_max
            assert np.array_equal(got.coeffs, _reference_state(_JACOBI, z, n_max).coeffs)
        assert state(_JACOBI, z).n_max == _reference_state(_JACOBI, z).n_max

    def test_coeffs_are_read_only(self):
        for z in (0.0, 0.3 + 0.2j):
            v = state(_JACOBI, z)
            with pytest.raises(ValueError):
                v.coeffs[0] = 2.0

    def test_errors_raise_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="larger n_max"):
                state(_BESSEL, 3.0, n_max=4)
            with pytest.raises(ValueError):
                state(_JACOBI, 1.2)

    def test_gram_matrix_builds_each_label_once(self, monkeypatch):
        labels = [0.9 * r * np.exp(1j * t)
                  for r, t in zip(np.linspace(0.1, 1.0, 16), np.linspace(0, 6, 16))]
        built = []
        monkeypatch.setattr(states, "_build_rows", lambda p, zs, n: (
            built.append(list(zs)) or _build_rows(p, zs, n)))
        gram_matrix(_JACOBI, labels)
        # 16 single-label builds, in label order, none of a label twice
        assert built == [[complex(z)] for z in labels]


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


def _reference_rows(params, z, n_max=None):
    """Reference: the single-label build `state` made before `state_matrix`,
    with its own 1-d arithmetic, doubling n_max from 128 until the tail is
    below 1e-12.  Returns (coeffs, n_max, tail_bound)."""
    z = complex(z)
    n = 128 if n_max is None else n_max
    while True:
        mag = abs(z)
        if mag == 0.0:
            mods = np.zeros(n + 1)
            mods[0] = 1.0
            return mods.astype(complex), n, 0.0
        k = np.arange(n + 1, dtype=float)
        mods = np.exp(k * math.log(mag) - _log_h_array(params, n))
        phase = np.exp(1j * k * math.atan2(z.imag, z.real))
        signs = np.ones(n + 1)
        if params.family is Family.JACOBI:
            signs[1::2] = -1.0
        rho = mag / math.sqrt((n + 2.0) * (params.b + (n + 1)))
        if params.family is Family.JACOBI:
            rho *= params.coeff_shift + (n + 1)
        r2 = rho * rho
        tail = math.inf if rho >= 1.0 else mods[-1] ** 2 * r2 / (1.0 - r2)
        total = float(np.dot(mods, mods)) + tail
        if n_max is not None or tail / total < 1e-12:
            return signs * mods * phase / math.sqrt(total), n, tail / total
        n *= 2


def _labels(params, count, seed):
    """Random labels over the family's disc (bessel |z| <= 30, jacobi up to
    0.9999), plus z = 0 and the signed zeros."""
    rng = np.random.default_rng(seed)
    if params.family is Family.BESSEL:
        radii = 30.0 * rng.uniform(size=count) ** 0.5
    else:
        radii = np.concatenate([0.999 * rng.uniform(size=count - 8),
                                1.0 - 10.0 ** -rng.uniform(1.0, 4.0, 8)])
    angles = rng.uniform(-math.pi, math.pi, len(radii))
    return [complex(r * math.cos(t), r * math.sin(t)) for r, t in zip(radii, angles)] + [
        0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
        complex(-0.7, 0.0), complex(-0.7, -0.0), complex(0.0, -0.7), complex(-0.0, -0.7),
    ]


_ALL_PARAMS = [FamilyParams(m, nu, family)
               for family in Family for m, nu in ((0, 0.3), (2, 1.7))]


class TestStateMatrix:
    @pytest.mark.parametrize("params", _ALL_PARAMS, ids=str)
    def test_rows_are_the_single_label_states(self, params):
        labels = _labels(params, 60, 5)
        # near |z| = 0.9999 some jacobi labels need more than the 32768-term
        # cap: state and state_matrix both raise for them
        stalled = []
        for z in labels:
            try:
                state(params, z)
            except specfun.ConvergenceError:
                stalled.append(z)
        if stalled:
            with pytest.raises(specfun.ConvergenceError, match="n_max cap of 32768"):
                state_matrix(params, labels)
            labels = [z for z in labels if z not in stalled]
        mat = state_matrix(params, labels)
        assert mat.coeffs.shape == (len(labels), int(mat.n_max.max()) + 1)
        assert not mat.coeffs.flags.writeable
        for i, z in enumerate(labels):
            v = state(params, z)
            n = v.n_max
            assert mat.n_max[i] == n and mat.tail_bound[i] == v.tail_bound
            assert np.array_equal(mat.coeffs[i, : n + 1], v.coeffs)
            assert not mat.coeffs[i, n + 1:].any()
            # bit for bit, signed zeros included, against the 1-d arithmetic
            ref, ref_n, ref_tail = _reference_rows(params, z)
            assert (n, v.tail_bound) == (ref_n, ref_tail)
            assert v.coeffs.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("params", _ALL_PARAMS[::2], ids=str)
    def test_explicit_n_max(self, params):
        labels = [0j, 0.05 - 0.02j, complex(-0.1, -0.0)]
        mat = state_matrix(params, labels, n_max=40)
        assert mat.coeffs.shape == (3, 41) and (mat.n_max == 40).all()
        for i, z in enumerate(labels):
            ref, _, ref_tail = _reference_rows(params, z, 40)
            assert mat.coeffs[i].tobytes() == ref.tobytes()
            assert mat.tail_bound[i] == ref_tail
            assert np.array_equal(state(params, z, n_max=40).coeffs, mat.coeffs[i])
        with pytest.raises(ValueError, match="larger n_max required"):
            state_matrix(params, [0.01, 0.95], n_max=4)
        with pytest.raises(ValueError, match="non-negative integer"):
            state_matrix(params, labels, n_max=-1)

    @pytest.mark.parametrize("family, radii", [
        (Family.BESSEL, (0.5, 40.0, 150.0, 250.0, 340.0)),  # n_max 128 .. 512
        (Family.JACOBI, (0.3, 0.9, 0.97, 0.99, 0.997)),     # n_max 128 .. 8192
    ])
    def test_row_wise_sizes_equal_one_label_builds(self, family, radii):
        # the masses, tail bounds and norms of all open rows are judged
        # together; each row must still be its one-label build, whatever
        # size it stops at and whichever rows share the call
        params = FamilyParams(1, 0.5, family)
        angles = np.linspace(-3.0, 3.0, len(radii))
        labels = [complex(r * math.cos(t), r * math.sin(t)) for r, t in zip(radii, angles)]
        labels += [0j, complex(-0.0, 0.0), complex(-radii[1], -0.0), labels[2]]
        labels = labels[::2] + labels[1::2]
        mat = state_matrix(params, labels)
        assert len(set(mat.n_max.tolist())) >= 3
        for n_max in (None, 300, 1500):
            coeffs, sizes, tails = _build_rows(params, labels, n_max)
            for i, z in enumerate(labels):
                one, (n,), (tail,) = _build_rows(params, [z], n_max)
                assert (sizes[i], tails[i]) == (n, tail)
                assert coeffs[i, : n + 1].tobytes() == one[0].tobytes()
                assert not coeffs[i, n + 1:].any()
                if n_max is None:
                    assert (mat.n_max[i], mat.tail_bound[i]) == (n, tail)

    def test_errors_name_the_first_offending_label(self):
        # the first row, in label order, whose norm overflows at the size
        # where one first does, as a one-label build of it would say
        for labels, r in (([0.5, 1000.0, 2000.0], 1000.0), ([0.5, 2000.0, 1000.0], 2000.0)):
            with pytest.raises(OverflowError) as exc:
                state_matrix(_BESSEL, labels)
            with pytest.raises(OverflowError) as one:
                state(_BESSEL, r)
            assert str(exc.value) == str(one.value) and f"|z| = {r!r}" in str(exc.value)
        params = FamilyParams(0, 0.3, Family.JACOBI)
        for labels, r in (([0.5, 0.99999, 0.999995], 0.99999), ([0.999995, 0.5, 0.99999], 0.999995)):
            with pytest.raises(specfun.ConvergenceError, match=f"\\|z\\| = {r!r}$"):
                state_matrix(params, labels)

    def test_moduli_past_the_float_range_raise_only_the_overflow_error(self):
        # |z|^n / h_n itself overflows at |z| = 1000, n = 512: numpy must not
        # warn first, which -W error would turn into a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (lambda: state(_BESSEL, 1000.0, n_max=512),
                          lambda: state_matrix(_BESSEL, [0.5, 1000.0j], n_max=512)):
                with pytest.raises(OverflowError, match=r"\|z\| = 1000\.0"):
                    build()

    def test_explicit_n_max_below_a_diverging_tail_raises(self):
        # at |z| = 0.95 the jacobi ratio bound is above 1 at n = 5: the
        # tail is not certified at all, so n_max = 4 is rejected
        with pytest.raises(ValueError, match="truncation error 1.00e\\+00 exceeds"):
            state(_JACOBI, 0.95, n_max=4)
        assert _build_rows(_JACOBI, [0.95], 4)[2] == [1.0]

    def test_labels_outside_the_domain_raise(self):
        with pytest.raises(ValueError, match="outside the open domain"):
            state_matrix(_JACOBI, [0.5, 1.0])

    def test_no_labels(self):
        mat = state_matrix(_BESSEL, [])
        assert mat.coeffs.shape[0] == 0 and mat.n_max.size == 0

    def test_stalled_truncation_names_family_parameters_and_cap(self):
        params = FamilyParams(0, 0.3, Family.JACOBI)
        for build in (lambda: state(params, 0.99999),
                      lambda: state_matrix(params, [0.5, 0.99999])):
            with pytest.raises(specfun.ConvergenceError) as exc:
                build()
            msg = str(exc.value)
            assert msg.startswith("state truncation stalled")
            for part in ("jacobi", "m = 0", "nu = 0.3", "|z| = 0.99999", "32768"):
                assert part in msg, part

    @pytest.mark.parametrize("r", [362.7, 400.0, 1000.0])
    def test_norm_past_the_float_range_raises(self, r):
        # the unnormalized mass overflows: no state of norm 0 or NaN
        for build in (lambda: state(_BESSEL, r),
                      lambda: state(_BESSEL, -r * 1j, n_max=512 if r < 1000 else 128),
                      lambda: state_matrix(_BESSEL, [0.5, r])):
            with pytest.raises(OverflowError) as exc:
                build()
            msg = str(exc.value)
            assert msg.startswith("state norm leaves the float range")
            for part in ("bessel", "m = 1", "nu = 0.5", f"|z| = {r!r}"):
                assert part in msg, part

    def test_norm_just_inside_the_float_range(self):
        v = state(_BESSEL, 362.3)
        assert v.n_max == 512 and abs(v.norm_sq - 1.0) < 1e-12
