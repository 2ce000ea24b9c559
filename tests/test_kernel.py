"""Reproducing-kernel properties and the analytic representation."""

import math
import tracemalloc

import numpy as np
import pytest

from ghcs.kernel import (
    analytic_repr,
    check_idempotence,
    gram_matrix,
    inner_product_integral,
    kernel,
)
from ghcs.measure import QuadratureRule, radial_rule
from ghcs.states import (
    Family,
    FamilyParams,
    FockVector,
    normalization,
    state,
    _log_h_array,
)

from conftest import rel_err


def random_fock(rng, n_max):
    c = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    c /= np.linalg.norm(c)
    return FockVector(coeffs=c, n_max=n_max, tail_bound=0.0)


class TestKernelValues:
    def test_positive_on_diagonal(self, bessel_params):
        v = kernel(bessel_params, 0.4 + 0.1j, 0.4 + 0.1j)
        assert v.real > 0.0
        assert abs(v - 1.0) < 1e-12

    def test_hermiticity_random_pairs(self, rng):
        for params, scale in (
            (FamilyParams(1, 0.5, Family.BESSEL), 1.6),
            (FamilyParams(1, 0.5, Family.JACOBI), 0.65),
        ):
            worst = 0.0
            for _ in range(1000):
                z1 = complex(*rng.uniform(-scale / 2, scale / 2, 2))
                z2 = complex(*rng.uniform(-scale / 2, scale / 2, 2))
                worst = max(
                    worst,
                    abs(kernel(params, z1, z2).conjugate() - kernel(params, z2, z1)),
                )
            assert worst < 1e-13

    def test_kernel_at_origin(self, bessel_params):
        # only the n = 0 amplitude survives: K(0, z) = N(|z|^2)^{-1/2}
        z = 0.8 + 0.3j
        got = kernel(bessel_params, 0.0, z)
        ref = normalization(bessel_params, abs(z) ** 2) ** -0.5
        assert abs(got - ref) < 1e-12


class TestIdempotence:
    def test_trivial_at_origin(self, bessel_params, bessel_rule):
        assert check_idempotence(bessel_params, 0.0, 0.0, bessel_rule) <= 1e-10

    def test_example_point(self, bessel_params, bessel_rule):
        r = check_idempotence(bessel_params, 0.4, 0.2 + 0.3j, bessel_rule)
        assert r <= 1e-6

    def test_grid_both_families(self, bessel_rule, jacobi_rule):
        for params, rule, scale in (
            (FamilyParams(1, 0.5, Family.BESSEL), bessel_rule, 1.8),
            (FamilyParams(1, 0.5, Family.JACOBI), jacobi_rule, 0.8),
        ):
            pts = np.linspace(-scale / 2, scale / 2, 5)
            worst = 0.0
            for re in pts:
                for im in pts:
                    z1 = complex(re, im)
                    z2 = complex(-im / 2, re / 2)
                    worst = max(worst, check_idempotence(params, z1, z2, rule))
            assert worst <= 1e-6

    def test_residual_reads_the_rule_weights(self, bessel_rule, jacobi_rule):
        # every moment off by a factor 1 + eps: the residual is eps |K|
        eps = 1e-6
        for params, rule in (
            (FamilyParams(1, 0.5, Family.BESSEL), bessel_rule),
            (FamilyParams(1, 0.5, Family.JACOBI), jacobi_rule),
        ):
            scaled = QuadratureRule(nodes=rule.nodes, weights=rule.weights * (1.0 + eps))
            for z1, z2 in ((0.3, 0.2 + 0.4j), (-0.4j, 0.5), (0.0, 0.45 - 0.1j)):
                got = check_idempotence(params, z1, z2, scaled)
                ref = eps * abs(kernel(params, z1, z2))
                assert rel_err(got, ref) < 1e-7

    def test_label_arrays_match_scalar_calls(self, bessel_rule, jacobi_rule):
        for params, rule, scale in (
            (FamilyParams(0, 0.1, Family.BESSEL), radial_rule(FamilyParams(0, 0.1)), 1.5),
            (FamilyParams(1, 0.5, Family.BESSEL), bessel_rule, 3.0),
            (FamilyParams(1, 0.5, Family.JACOBI), jacobi_rule, 0.95),
        ):
            re = np.linspace(-scale / 2, scale / 2, 4)
            z1 = re[:, None] + 1j * re[None, ::-1]
            z2 = np.array([0.1 - 0.2j, -0.0 + 0.3j, 0.4, -0.3 - 0.0j])
            got = check_idempotence(params, z1, z2, rule)
            assert got.shape == (4, 4)
            ref = [[check_idempotence(params, a, b, rule) for a, b in zip(row, z2)]
                   for row in z1]
            assert np.array_equal(got, np.array(ref))
            one = check_idempotence(params, z1[1, 2], z2[2], rule)
            assert type(one) is float and one == got[1, 2]
            assert check_idempotence(params, np.array([]), 0.3, rule).shape == (0,)

    def test_pairs_near_the_jacobi_boundary(self, jacobi_params, jacobi_rule):
        # |z1 z2| >= 0.9: the states' own truncation, up to n_max = 4096
        z1 = np.array([0.95, 0.99, 0.995j, -0.97 + 0.2j])
        z2 = np.array([0.95, 0.99, -0.99j, 0.96])
        assert np.all(check_idempotence(jacobi_params, z1, z2, jacobi_rule) < 1e-10)

    def test_memory_does_not_grow_with_the_truncation(self, jacobi_params, jacobi_rule):
        # z1 = z2 = 0.995 needs n_max = 4096: 4097 moment orders x 240 nodes,
        # which a dense log-sum-exp holds in three 7.9 MB matrices
        tracemalloc.start()
        try:
            check_idempotence(jacobi_params, 0.995, 0.995, jacobi_rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state(jacobi_params, 0.995).n_max == 4096
        assert peak < 6e6

    def test_label_outside_domain_rejected(self, jacobi_params, jacobi_rule):
        with pytest.raises(ValueError, match="outside the open domain"):
            check_idempotence(jacobi_params, np.array([0.2, 1.0]), 0.1, jacobi_rule)

    def test_residual_shrinks_with_node_count(self, jacobi_params):
        # convergence study: more nodes, not larger residual
        z1, z2 = 0.3, 0.2 + 0.4j
        coarse = check_idempotence(
            jacobi_params, z1, z2, radial_rule(jacobi_params, 24)
        )
        fine = check_idempotence(
            jacobi_params, z1, z2, radial_rule(jacobi_params, 200)
        )
        assert fine <= coarse


def _per_pair_idempotence(params, z1, z2, rule):
    # the residual from two `state` reads, summed over the pair's common
    # truncation with the moments up to that order only
    v1, v2 = state(params, z1), state(params, z2)
    n = min(v1.n_max, v2.n_max) + 1
    log_ratio = rule.log_moments(np.arange(n, dtype=float)) - 2.0 * _log_h_array(params, n - 1)
    return abs(np.vdot(v1.coeffs[:n], v2.coeffs[:n] * np.expm1(log_ratio)))


class TestIdempotenceBatches:
    @pytest.mark.parametrize("family, z1, z2", [
        # n_max 128, 256 and 512, equal in the first two pairs only
        (Family.BESSEL, [0.0, 0.4 - 0.3j, 90.0, 6.0j, 200.0j],
         [0.1j, -0.0 - 0.2j, 0.3, 110.0, -150.0]),
        # one side past |z| = 0.85 (n_max 256 to 2048), the other below
        # (n_max 128): the two truncations differ in every pair
        (Family.JACOBI, [0.9, -0.9j, 0.6 + 0.7j, 0.95 * np.exp(2.0j), 0.99, 0.1],
         [0.2 - 0.1j, 0.3, -0.4j, 0.0, 0.5 + 0.1j, -0.97]),
    ])
    def test_residuals_equal_the_per_pair_reference(self, family, z1, z2):
        params = FamilyParams(1, 0.5, family)
        rule = radial_rule(params)
        got = check_idempotence(params, np.array(z1), np.array(z2), rule)
        ref = [_per_pair_idempotence(params, a, b, rule) for a, b in zip(z1, z2)]
        assert np.array_equal(got, np.array(ref))
        differ = [state(params, a).n_max != state(params, b).n_max for a, b in zip(z1, z2)]
        assert differ == [family is Family.JACOBI] * 2 + [True] * (len(z1) - 2)


def _gram_reference(params, labels):
    """The per-pair definition: K(labels[i], labels[j]) for j >= i, each a
    pair's own np.vdot, with its conjugate at (j, i)."""
    k = len(labels)
    g = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(i, k):
            v1, v2 = state(params, labels[i]), state(params, labels[j])
            n = min(v1.n_max, v2.n_max) + 1
            v = complex(np.vdot(v1.coeffs[:n], v2.coeffs[:n]))
            g[i, j] = v
            g[j, i] = v.conjugate()
    return g


# labels on several truncations, the vacuum and a signed-zero pair
_GRAM_LABELS = {
    Family.BESSEL: [0.0, 0.3 - 0.2j, complex(-1.2, 0.0), complex(-1.2, -0.0),
                    30.0 * np.exp(1.0j), 100.0 * np.exp(2.0j), 200.0j],
    Family.JACOBI: [0.0, complex(-0.5, 0.0), complex(-0.5, -0.0), 0.3j,
                    0.9 * np.exp(1.0j), 0.95 * np.exp(-2.0j), 0.99 * np.exp(3.0j)],
}


class TestGram:
    @pytest.mark.parametrize("family", list(Family))
    def test_bit_identical_to_the_per_pair_loop(self, family):
        params = FamilyParams(1, 0.5, family)
        labels = _GRAM_LABELS[family]
        for case in (labels, labels[::-1], labels[4:5], []):
            got = gram_matrix(params, case)
            ref = _gram_reference(params, case)
            assert got.shape == ref.shape == (len(case), len(case))
            assert got.dtype == complex and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("family", list(Family))
    def test_kernel_on_lists_is_the_pair_matrix(self, family):
        params = FamilyParams(1, 0.5, family)
        labels = _GRAM_LABELS[family]
        z1, z2 = np.reshape(labels[:6], (2, 3)), labels[3:]
        got = kernel(params, z1, z2)
        assert got.shape == (2, 3, len(z2))
        ref = np.array([[kernel(params, a, b) for b in z2] for a in z1.ravel().tolist()])
        assert got.reshape(6, len(z2)).tobytes() == ref.tobytes()
        assert type(kernel(params, labels[1], labels[2])) is complex

    def test_min_eigenvalue(self, rng):
        for params, scale in (
            (FamilyParams(1, 0.5, Family.BESSEL), 1.2),
            (FamilyParams(1, 0.5, Family.JACOBI), 0.6),
        ):
            labels = [complex(*rng.uniform(-scale / 2, scale / 2, 2)) for _ in range(6)]
            g = gram_matrix(params, labels)
            assert np.allclose(g, g.conj().T)
            assert np.linalg.eigvalsh(g).min() >= -1e-9


class TestAnalyticRepr:
    def test_vacuum_is_constant(self, bessel_params):
        f = FockVector(coeffs=np.array([0.7 + 0.1j]), n_max=0, tail_bound=0.0)
        for z in (0.0, 1.5, 2.0 - 1.0j):
            assert analytic_repr(bessel_params, f, z) == pytest.approx(0.7 + 0.1j)

    def test_single_excitation(self, bessel_params):
        # |1> for m=1, nu=0.5: f(z) = z / sqrt(3)
        c = np.zeros(3, dtype=complex)
        c[1] = 1.0
        f = FockVector(coeffs=c, n_max=2, tail_bound=0.0)
        z = 1.3 - 0.4j
        assert abs(analytic_repr(bessel_params, f, z) - z / math.sqrt(3.0)) < 1e-14

    def test_jacobi_sign_convention(self, jacobi_params):
        # coefficient (-m-1-nu)_1 = -(a+1) on the |1> term
        c = np.zeros(2, dtype=complex)
        c[1] = 1.0
        f = FockVector(coeffs=c, n_max=1, tail_bound=0.0)
        z = 0.4
        ref = -(jacobi_params.a + 1.0) * z / math.sqrt(3.0)
        assert abs(analytic_repr(jacobi_params, f, z) - ref) < 1e-14

    def test_divergence_flagged(self, jacobi_params):
        f = FockVector(coeffs=np.ones(4) / 2.0, n_max=3, tail_bound=0.0)
        with pytest.raises(ValueError, match="diverges"):
            analytic_repr(jacobi_params, f, 1.1)

    def test_coherent_state_representative(self):
        # f(z) = sum c_n(w) s_n z^n / h_n = N(w z) / sqrt(N(w^2)) for real w, z
        for params, pairs in (
            (FamilyParams(1, 0.5, Family.BESSEL), ((0.7, 1.3), (2.0, 0.4), (-1.1, -0.9))),
            (FamilyParams(0, 0.3, Family.BESSEL), ((1.5, 1.5), (0.2, 3.0))),
            (FamilyParams(1, 0.5, Family.JACOBI), ((0.6, 0.5), (0.9, 0.8), (-0.5, -0.7))),
            (FamilyParams(2, 1.3, Family.JACOBI), ((0.3, 0.95), (0.85, 0.85))),
        ):
            for w, z in pairs:
                got = analytic_repr(params, state(params, w), z)
                ref = normalization(params, w * z) / math.sqrt(normalization(params, w * w))
                assert abs(got.imag) < 1e-15 * ref
                assert rel_err(got.real, ref) < 1e-13

    def test_reproducing_property(self, rng):
        # reconstructing the coefficients through the weighted integral
        # multiplies C_n by s_n^2 mu_hat_n / h_n^2, which must be 1
        for params in (
            FamilyParams(1, 0.5, Family.BESSEL),
            FamilyParams(1, 0.5, Family.JACOBI),
        ):
            rule = radial_rule(params)
            from ghcs.states import _log_h_array

            n_max = 8
            fock = random_fock(rng, n_max)
            log_mu = rule.log_moments(np.arange(n_max + 1, dtype=float))
            factors = np.exp(log_mu - 2.0 * _log_h_array(params, n_max))
            reconstructed = FockVector(
                coeffs=fock.coeffs * factors, n_max=n_max, tail_bound=0.0
            )
            z = 0.3 + 0.2j
            got = analytic_repr(params, reconstructed, z)
            ref = analytic_repr(params, fock, z)
            assert abs(got - ref) <= 1e-6 * max(1.0, abs(ref))


class TestInnerProduct:
    def test_norm_one(self, bessel_params, bessel_rule):
        v = state(bessel_params, 0.4 + 0.5j)
        ip = inner_product_integral(bessel_params, v, v, bessel_rule)
        assert abs(ip - 1.0) < 1e-10

    def test_orthogonal_fock_states(self, bessel_params, bessel_rule):
        c1 = np.zeros(6, dtype=complex)
        c2 = np.zeros(6, dtype=complex)
        c1[2] = 1.0
        c2[4] = 1.0
        f1 = FockVector(coeffs=c1, n_max=5, tail_bound=0.0)
        f2 = FockVector(coeffs=c2, n_max=5, tail_bound=0.0)
        assert abs(inner_product_integral(bessel_params, f1, f2, bessel_rule)) < 1e-9

    def test_random_vectors_match_direct_sum(self, rng, bessel_rule, jacobi_rule):
        for params, rule in (
            (FamilyParams(1, 0.5, Family.BESSEL), bessel_rule),
            (FamilyParams(1, 0.5, Family.JACOBI), jacobi_rule),
        ):
            f1 = random_fock(rng, 7)
            f2 = random_fock(rng, 7)
            direct = complex(np.vdot(f1.coeffs, f2.coeffs))
            integ = inner_product_integral(params, f1, f2, rule)
            assert abs(direct - integ) < 1e-8
