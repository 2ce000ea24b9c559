"""Operator construction, closed forms, commutators, discrepancy report."""

import json
import math

import numpy as np
import pytest

from ghcs.measure import QuadratureRule, radial_rule
from ghcs.quantize import (
    LadderKind,
    OperatorMatrix,
    Provenance,
    Symbol,
    commutator,
    discrepancy_report,
    ladder_closed_form,
    quantize_symbol,
)
from ghcs.states import Family, FamilyParams, _log_h_array, log_coeff_h

from conftest import rel_err


class TestSymbols:
    def test_factories(self):
        assert Symbol.z().harmonic == 1 and Symbol.z().radial_power == 1.0
        assert Symbol.zbar().harmonic == -1
        assert Symbol.absz2().radial_power == 2.0
        assert Symbol.constant().tag == "one"

    def test_rejects_negative_radial_power(self):
        with pytest.raises(ValueError):
            Symbol(0, -1.0)


class TestQuantizeSymbol:
    def test_constant_gives_identity(self, bessel_rule, jacobi_rule):
        for params, rule in (
            (FamilyParams(1, 0.5, Family.BESSEL), bessel_rule),
            (FamilyParams(1, 0.5, Family.JACOBI), jacobi_rule),
        ):
            op = quantize_symbol(params, Symbol.constant(), 24, rule)
            assert np.max(np.abs(op.to_dense() - np.eye(25))) < 1e-8

    def test_absz2_diagonal_bessel(self, bessel_params, bessel_rule):
        # diagonal entries (n+1)(2m+2nu+n): n = 0 gives 3
        op = quantize_symbol(bessel_params, Symbol.absz2(), 12, bessel_rule)
        diag = op.band(0)
        assert rel_err(diag[0], 3.0) < 1e-8
        for n in range(13):
            assert rel_err(diag[n], (n + 1.0) * (3.0 + n)) < 1e-8

    def test_z_superdiagonal_is_h_ratio(self, bessel_params, bessel_rule):
        # moment-ratio oracle: mu_{n+1} / (h_n h_{n+1}) = h_{n+1} / h_n
        op = quantize_symbol(bessel_params, Symbol.z(), 10, bessel_rule)
        band = op.band(1)
        for n in range(10):
            ref = math.exp(log_coeff_h(bessel_params, n + 1) - log_coeff_h(bessel_params, n))
            assert rel_err(band[n], ref) < 1e-8

    def test_band_structure_exact_zeros(self, bessel_params, bessel_rule):
        op = quantize_symbol(bessel_params, Symbol.z(), 8, bessel_rule)
        dense = op.to_dense()
        off_band = dense - np.diag(np.diagonal(dense, 1), 1)
        assert np.all(off_band == 0.0)

    def test_angular_harmonic_general(self, jacobi_params, jacobi_rule):
        op = quantize_symbol(jacobi_params, Symbol.angular_harmonic(2, 3.0), 10,
                             jacobi_rule)
        assert op.offset == 2
        assert np.all(np.asarray(op.band(2)) > 0.0)

    def test_harmonic_exceeding_truncation(self, bessel_params, bessel_rule):
        with pytest.raises(ValueError):
            quantize_symbol(bessel_params, Symbol.angular_harmonic(5, 5.0), 3,
                            bessel_rule)

    def test_ladder_symbols_read_the_integer_moment_table(self, monkeypatch):
        # z, zbar and |z|^2 need the integer orders 1..n_max + 1 only: once
        # the rule's table holds them no log-moment is formed, and each band
        # is the one summed afresh bit for bit
        params = FamilyParams(2, 0.61, Family.JACOBI)
        rule = radial_rule(params, 97)
        n_max = 40
        rule._integer_log_moments(n_max + 1)
        log_h = _log_h_array(params, n_max + 1)
        fresh = {}
        for symbol in (Symbol.z(), Symbol.zbar(), Symbol.absz2()):
            p = symbol.harmonic
            rows = np.arange(max(0, -p), n_max + 1 - max(0, p))
            log_mu = rule.log_moments(rows + 0.5 * (p + symbol.radial_power))
            fresh[symbol.tag] = np.exp(log_mu - log_h[rows] - log_h[rows + p])
        calls = []
        monkeypatch.setattr(QuadratureRule, "log_moments",
                            lambda *a: calls.append(a) or pytest.fail("summed afresh"))
        for symbol in (Symbol.z(), Symbol.zbar(), Symbol.absz2()):
            op = quantize_symbol(params, symbol, n_max, rule)
            assert np.array_equal(op.band(symbol.harmonic), fresh[symbol.tag])
        assert calls == []

    def test_hermitian_for_real_symbol(self, jacobi_params, jacobi_rule):
        op = quantize_symbol(jacobi_params, Symbol.radial(3.0), 16, jacobi_rule)
        d = op.to_dense()
        assert np.max(np.abs(d - d.T)) < 1e-8


class TestClosedForms:
    def test_h_ratio_jacobi_example(self, jacobi_params):
        # h_1 / h_0 with h_1 = sqrt(3)/2.5
        op = ladder_closed_form(jacobi_params, "z", 8, Provenance.H_RATIO)
        assert rel_err(op.band(1)[0], math.sqrt(3.0) / 2.5) < 1e-14

    def test_h_ratio_bands_are_log_h_steps(self):
        # the up band is h_{n+1}/h_n and the |z|^2 diagonal its square, for
        # the family's own h_n
        for family in (Family.BESSEL, Family.JACOBI):
            p = FamilyParams(1, 0.5, family)
            n_max = 24
            step = np.exp(np.diff([log_coeff_h(p, n) for n in range(n_max + 2)]))
            up = ladder_closed_form(p, "z", n_max, Provenance.H_RATIO).band(1)
            down = ladder_closed_form(p, "zbar", n_max, Provenance.H_RATIO).band(-1)
            diag = ladder_closed_form(p, "absz2", n_max, Provenance.H_RATIO).band(0)
            assert np.allclose(up, step[:-1], rtol=1e-13, atol=0.0)
            assert np.array_equal(down, up)
            assert np.allclose(diag, step**2, rtol=1e-13, atol=0.0)

    def test_literature_jacobi_example(self, jacobi_params):
        # (-1 - 0 - 1 - 0.5) sqrt(1 * 3) = -2.5 sqrt(3) at n = 0
        op = ladder_closed_form(jacobi_params, "z", 8, Provenance.LITERATURE)
        assert rel_err(op.band(1)[0], -2.5 * math.sqrt(3.0)) < 1e-14

    def test_adjoint_pair(self, bessel_params):
        az = ladder_closed_form(bessel_params, "z", 12, Provenance.H_RATIO)
        azb = ladder_closed_form(bessel_params, "zbar", 12, Provenance.H_RATIO)
        assert np.max(np.abs(az.to_dense() - azb.to_dense().T)) == 0.0

    def test_quadrature_adjointness(self, jacobi_params, jacobi_rule):
        az = quantize_symbol(jacobi_params, Symbol.z(), 16, jacobi_rule)
        azb = quantize_symbol(jacobi_params, Symbol.zbar(), 16, jacobi_rule)
        assert np.max(np.abs(az.to_dense() - azb.to_dense().conj().T)) < 1e-8

    def test_invalid_source(self, bessel_params):
        with pytest.raises(ValueError):
            ladder_closed_form(bessel_params, "z", 8, Provenance.QUADRATURE)


class TestCommutator:
    def test_self_commutator_vanishes(self, bessel_params):
        az = ladder_closed_form(bessel_params, "z", 10, Provenance.H_RATIO)
        c = commutator(az, az)
        assert np.max(np.abs(c.to_dense())) == 0.0

    def test_bessel_ladder_commutator_diagonal(self, bessel_params):
        # (n+1)(b+n) - n(b+n-1) = b + 2n with b = 3
        az = ladder_closed_form(bessel_params, "z", 20, Provenance.H_RATIO)
        azb = ladder_closed_form(bessel_params, "zbar", 20, Provenance.H_RATIO)
        diag = commutator(az, azb).band(0)
        for n in range(20):  # the last diagonal entry is truncation-affected
            assert rel_err(diag[n], 3.0 + 2.0 * n) < 1e-13

    def test_truncation_flagged(self, bessel_params):
        az = ladder_closed_form(bessel_params, "z", 10, Provenance.H_RATIO)
        azb = ladder_closed_form(bessel_params, "zbar", 10, Provenance.H_RATIO)
        c = commutator(az, azb)
        assert c.boundary_flagged
        assert "truncation" in c.truncation_note

    def test_literature_absz2_commutator(self, jacobi_params):
        # published superdiagonal: -2 (m+nu+n+1)^2 sqrt((n+1)(2m+2nu+n))
        az = ladder_closed_form(jacobi_params, "z", 16, Provenance.LITERATURE)
        d2 = ladder_closed_form(jacobi_params, "absz2", 16, Provenance.LITERATURE)
        got = commutator(az, d2).band(1)
        n = np.arange(15, dtype=float)
        ref = -2.0 * (1.5 + n + 1.0) ** 2 * np.sqrt((n + 1.0) * (3.0 + n))
        assert np.max(np.abs(got[:15] - ref) / np.abs(ref)) < 1e-13

    def test_dimension_mismatch(self, bessel_params):
        a = ladder_closed_form(bessel_params, "z", 8, Provenance.H_RATIO)
        b = ladder_closed_form(bessel_params, "z", 9, Provenance.H_RATIO)
        with pytest.raises(ValueError):
            commutator(a, b)


class TestDiscrepancyReport:
    def test_bessel_all_three_agree(self, bessel_params, bessel_rule):
        rep = discrepancy_report(bessel_params, 16, bessel_rule)
        assert rep["all_provenances_agree"]
        for entry in rep["symbols"].values():
            assert entry["max_rel_quadrature_vs_h_ratio"] <= 1e-8
            assert entry["max_rel_quadrature_vs_literature"] <= 1e-8

    def test_jacobi_quantifies_literature_deviation(self, jacobi_params, jacobi_rule):
        rep = discrepancy_report(jacobi_params, 16, jacobi_rule)
        assert not rep["all_provenances_agree"]
        z_entry = rep["symbols"]["z"]
        assert z_entry["max_rel_quadrature_vs_h_ratio"] <= 1e-7
        # the published factors multiply where the measure divides:
        # ratio is -(m+nu+n+1)^2 entry by entry
        ratios = z_entry["literature_over_quadrature_leading"]
        for n, r in enumerate(ratios):
            assert rel_err(r, -((1.5 + n + 1.0) ** 2)) < 1e-9

    def test_report_nonempty_and_serializable(self, bessel_params, bessel_rule):
        rep = discrepancy_report(bessel_params, 8, bessel_rule)
        text = json.dumps(rep)
        assert "symbols" in rep and len(rep["symbols"]) == 3
        assert isinstance(text, str) and len(text) > 100


class TestJsonExport:
    def test_schema(self, bessel_params, bessel_rule):
        op = quantize_symbol(bessel_params, Symbol.z(), 6, bessel_rule)
        d = op.to_json_dict()
        assert set(d) == {"symbol", "family", "m", "nu", "n_max", "provenance", "bands"}
        assert d["provenance"] == "quadrature"
        assert d["bands"][0]["offset"] == 1
        assert len(d["bands"][0]["values"]) == 6
        json.dumps(d)

    def test_adjoint_flips_band(self, bessel_params, bessel_rule):
        op = quantize_symbol(bessel_params, Symbol.z(), 6, bessel_rule)
        assert op.adjoint().offset == -1


def _assert_one_band(op, offset):
    # to_dense() is nonzero only on `offset`, and band(o) is zeros elsewhere
    assert op.offset == offset
    size = op.n_max + 1
    assert len(op.values) == max(size - abs(offset), 0)
    expected = np.diag(op.values, offset) if abs(offset) < size else np.zeros((size, size))
    assert np.array_equal(op.to_dense(), expected)
    assert np.array_equal(op.band(offset), op.values)
    for o in range(-size - 1, size + 2):
        if o != offset:
            assert np.array_equal(op.band(o), np.zeros(max(size - abs(o), 0)))


class TestOneBand:
    N_MAX = 7

    @pytest.fixture(params=[Family.BESSEL, Family.JACOBI], ids=lambda f: f.value)
    def params_rule(self, request):
        params = FamilyParams(2, 0.61, request.param)
        return params, radial_rule(params)

    @pytest.mark.parametrize("symbol", [Symbol.z(), Symbol.zbar(), Symbol.absz2(),
                                        Symbol.radial(3.0), Symbol.angular_harmonic(2, 3.0),
                                        Symbol.angular_harmonic(-3, 4.0)],
                             ids=lambda s: s.tag)
    def test_quantize_symbol_and_its_adjoint(self, params_rule, symbol):
        params, rule = params_rule
        op = quantize_symbol(params, symbol, self.N_MAX, rule)
        _assert_one_band(op, symbol.harmonic)
        assert np.all(op.values > 0.0)
        adj = op.adjoint()
        _assert_one_band(adj, -symbol.harmonic)
        assert np.array_equal(adj.to_dense(), op.to_dense().T)

    @pytest.mark.parametrize("source", [Provenance.H_RATIO, Provenance.LITERATURE])
    @pytest.mark.parametrize("kind, offset", [("z", 1), ("zbar", -1), ("absz2", 0)])
    def test_ladder_closed_form_and_its_adjoint(self, params_rule, source, kind, offset):
        params, _ = params_rule
        op = ladder_closed_form(params, kind, self.N_MAX, source)
        _assert_one_band(op, offset)
        assert np.all(op.values != 0.0)
        _assert_one_band(op.adjoint(), -offset)

    @pytest.mark.parametrize("first, second, offset", [
        (Symbol.z(), Symbol.zbar(), 0),
        (Symbol.z(), Symbol.absz2(), 1),
        (Symbol.zbar(), Symbol.angular_harmonic(-2, 2.0), -3),
        (Symbol.angular_harmonic(5, 5.0), Symbol.angular_harmonic(4, 4.0), 9),
    ], ids=["diagonal", "up", "down", "past_n_max"])
    def test_commutator(self, params_rule, first, second, offset):
        params, rule = params_rule
        a = quantize_symbol(params, first, self.N_MAX, rule)
        b = quantize_symbol(params, second, self.N_MAX, rule)
        c = commutator(a, b)
        _assert_one_band(c, offset)
        if abs(offset) <= self.N_MAX:
            assert np.any(c.values != 0.0)
            ref = a.to_dense() @ b.to_dense() - b.to_dense() @ a.to_dense()
            assert np.array_equal(c.to_dense(), ref)
        else:
            assert len(c.values) == 0 and c.max_abs() == 0.0
        assert f"within {max(abs(first.harmonic), abs(second.harmonic))} " in c.truncation_note
