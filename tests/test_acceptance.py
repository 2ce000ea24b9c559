"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).
Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import iv

from ghcs import specfun
from ghcs.cli import main as cli_main
from ghcs.dynamics import (
    density_evolved,
    density_static,
    evolve,
    rotation_frequency,
    rotation_property,
)
from ghcs.kernel import check_idempotence, gram_matrix, kernel
from ghcs.measure import radial_rule, verify_identity
from ghcs.quantize import (
    Provenance,
    Symbol,
    discrepancy_report,
    ladder_closed_form,
    quantize_symbol,
)
from ghcs.pfunction import moment_matched_candidate, p_function_passes, verify_p_function
from ghcs.states import Family, FamilyParams, overlap, state
from ghcs.thermal import (
    boltzmann_moment,
    closed_form_thermal_stats,
    cs_thermal_expectation,
    number_moment,
    thermal_state,
)


def report(name, passed, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


def test_criterion_1_bessel_normalization_identity():
    """0F1-Bessel identity, rel err <= 1e-10 over the stated grid, < 1 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for m in (0, 1, 2, 5):
        for nu in (0.3, 0.5, 0.7, 1.5):
            b = 2.0 * m + 2.0 * nu
            for x in np.logspace(-3.0, math.log10(30.0), 20):
                x = float(x)
                lhs = specfun.hyp_0f1(b, x)
                rhs = (
                    math.exp(math.lgamma(b))
                    * x ** ((1.0 - b) / 2.0)
                    * iv(b - 1.0, 2.0 * math.sqrt(x))
                )
                worst = max(worst, abs(lhs - rhs) / abs(lhs))
    elapsed = time.perf_counter() - t0
    report(
        "1 normalization-identity",
        worst <= 1e-10 and elapsed < 1.0,
        f"worst={worst:.2e} time={elapsed:.2f}s",
    )


def test_criterion_2_identity_moment_certificate():
    """Moments: bessel n<=20 @1e-8 with <=400 nodes; jacobi n<=12 @1e-5."""
    t0 = time.perf_counter()
    worst_b = 0.0
    for m, nu in ((0, 0.3), (1, 0.5), (2, 0.7), (5, 1.5)):
        params = FamilyParams(m, nu, Family.BESSEL)
        rule = radial_rule(params)
        assert rule.n_nodes <= 400
        cert = verify_identity(params, 20, 1e-8, rule)
        worst_b = max(worst_b, cert.worst.rel_error)
        if not cert.passed:
            report("2 identity-moments", False, f"bessel m={m} nu={nu}")
    worst_j = 0.0
    for m, nu in ((1, 0.5), (2, 0.7)):
        params = FamilyParams(m, nu, Family.JACOBI)
        cert = verify_identity(params, 12, 1e-5)
        worst_j = max(worst_j, cert.worst.rel_error)
        if not cert.passed:
            report("2 identity-moments", False, f"jacobi m={m} nu={nu}")
    elapsed = time.perf_counter() - t0
    report(
        "2 identity-moments",
        worst_b <= 1e-8 and worst_j <= 1e-5 and elapsed < 10.0,
        f"bessel={worst_b:.2e} jacobi={worst_j:.2e} time={elapsed:.1f}s",
    )


def test_criterion_3_kernel_suite():
    """Hermiticity round-off on 1000 pairs; K(z,z)=1 +/- 1e-12;
    idempotence <= 1e-6 on 5x5 grids; Gram min eigenvalue >= -1e-9."""
    rng = np.random.default_rng(42)
    herm_worst = 0.0
    diag_worst = 0.0
    for family, scale in ((Family.BESSEL, 1.6), (Family.JACOBI, 0.66)):
        params = FamilyParams(1, 0.5, family)
        for _ in range(500):
            z1 = complex(*rng.uniform(-scale / 2, scale / 2, 2))
            z2 = complex(*rng.uniform(-scale / 2, scale / 2, 2))
            herm_worst = max(
                herm_worst,
                abs(kernel(params, z1, z2).conjugate() - kernel(params, z2, z1)),
            )
        diag_worst = max(
            diag_worst, abs(kernel(params, 0.33 * scale, 0.33 * scale) - 1.0)
        )
    idem_worst = 0.0
    gram_min = math.inf
    for family, scale in ((Family.BESSEL, 1.8), (Family.JACOBI, 0.8)):
        params = FamilyParams(1, 0.5, family)
        rule = radial_rule(params)
        pts = np.linspace(-scale / 2, scale / 2, 5)
        for re in pts:
            for im in pts:
                z1 = complex(re, im)
                z2 = complex(-im / 2, re / 2)
                idem_worst = max(
                    idem_worst, check_idempotence(params, z1, z2, rule)
                )
        labels = [
            complex(*rng.uniform(-0.4 * scale / 2, 0.4 * scale, 2))
            for _ in range(6)
        ]
        gram_min = min(gram_min, float(np.linalg.eigvalsh(
            gram_matrix(params, labels)).min()))
    ok = (
        herm_worst <= 1e-12
        and diag_worst <= 1e-12
        and idem_worst <= 1e-6
        and gram_min >= -1e-9
    )
    report(
        "3 kernel-suite",
        ok,
        f"herm={herm_worst:.1e} diag={diag_worst:.1e} "
        f"idem={idem_worst:.1e} gram_min={gram_min:.1e}",
    )


def test_criterion_4_quantization_equivalence():
    """Quadrature vs moment-ratio forms <= 1e-7 rel up to n_max = 32 both
    families; bessel |z|^2 diagonal equals (n+1)(2m+2nu+n); adjointness."""
    n_max = 32
    worst_rel = 0.0
    adj_worst = 0.0
    diag_worst = 0.0
    for family in (Family.BESSEL, Family.JACOBI):
        params = FamilyParams(1, 0.5, family)
        rule = radial_rule(params)
        for sym, ladder in (
            (Symbol.z(), "z"),
            (Symbol.zbar(), "zbar"),
            (Symbol.absz2(), "absz2"),
        ):
            quad = quantize_symbol(params, sym, n_max, rule)
            hr = ladder_closed_form(params, ladder, n_max, Provenance.H_RATIO)
            o = sym.harmonic
            vq, vh = quad.band(o), hr.band(o)
            n = min(len(vq), len(vh))
            worst_rel = max(
                worst_rel,
                float(np.max(np.abs(vq[:n] - vh[:n]) / np.abs(vh[:n]))),
            )
        az = quantize_symbol(params, Symbol.z(), n_max, rule)
        azb = quantize_symbol(params, Symbol.zbar(), n_max, rule)
        adj_worst = max(
            adj_worst,
            float(np.max(np.abs(az.to_dense() - azb.to_dense().conj().T))),
        )
    pb = FamilyParams(1, 0.5, Family.BESSEL)
    diag = quantize_symbol(pb, Symbol.absz2(), n_max, radial_rule(pb)).band(0)
    nn = np.arange(n_max + 1, dtype=float)
    expect = (nn + 1.0) * (pb.b + nn)
    diag_worst = float(np.max(np.abs(diag - expect) / expect))
    ok = worst_rel <= 1e-7 and diag_worst <= 1e-7 and adj_worst <= 1e-8
    report(
        "4 quantization-equivalence",
        ok,
        f"rel={worst_rel:.1e} absz2-diag={diag_worst:.1e} adj={adj_worst:.1e}",
    )


def test_criterion_5_discrepancy_ledger():
    """Report shows bessel agreement of all provenances, quantifies the
    jacobi deviation, and is nonempty machine-readable data."""
    rep_b = discrepancy_report(FamilyParams(1, 0.5, Family.BESSEL), 16)
    rep_j = discrepancy_report(FamilyParams(1, 0.5, Family.JACOBI), 16)
    text = json.dumps({"bessel": rep_b, "jacobi": rep_j})
    bessel_ok = rep_b["all_provenances_agree"]
    jacobi_quantified = (
        not rep_j["all_provenances_agree"]
        and rep_j["symbols"]["z"]["max_rel_quadrature_vs_literature"] > 1.0
        and rep_j["symbols"]["z"]["literature_over_quadrature_leading"] is not None
    )
    ratios = rep_j["symbols"]["z"]["literature_over_quadrature_leading"]
    factor_ok = all(
        abs(r + (1.5 + n + 1.0) ** 2) <= 1e-6 * (1.5 + n + 1.0) ** 2
        for n, r in enumerate(ratios)
    )
    ok = bessel_ok and jacobi_quantified and factor_ok and len(text) > 200
    report(
        "5 discrepancy-ledger",
        ok,
        f"bessel_agree={bessel_ok} jacobi_factor=-(m+nu+n+1)^2 verified",
    )


def test_criterion_6_dynamics():
    """Unitarity 1e-12; rotated-basis stability 1e-10 on a 4x4 grid;
    density equals |overlap|^2 to 1e-8; full-period recurrence."""
    params = FamilyParams(1, 0.5, Family.BESSEL)
    v = state(params, 0.6 + 0.4j)
    unit_worst = max(
        abs(evolve(params, v, t).norm_sq - v.norm_sq) for t in (0.3, 1.7, 9.2)
    )
    stab_worst = 0.0
    for z in (0.3, 0.5j, -0.4 + 0.2j, 0.8 - 0.6j):
        for t in (0.0, 0.7, 2.1, 5.5):
            stab_worst = max(stab_worst, rotation_property(params, z, t))
    dens_worst = 0.0
    for re in np.linspace(-0.6, 0.6, 4):
        for im in np.linspace(-0.6, 0.6, 4):
            z = complex(re, im)
            rho = density_static(params, 0.5, z)
            ref = abs(overlap(params, z, 0.5)) ** 2
            dens_worst = max(dens_worst, abs(rho - ref))
    period = 2.0 * math.pi / rotation_frequency(params)
    rho0, _ = density_evolved(params, 0.5, 0.3j, 0.0)
    rho1, _ = density_evolved(params, 0.5, 0.3j, period)
    recur = abs(rho0 - rho1)
    ok = (
        unit_worst <= 1e-12
        and stab_worst <= 1e-10
        and dens_worst <= 1e-8
        and recur <= 1e-8
    )
    report(
        "6 dynamics",
        ok,
        f"unit={unit_worst:.1e} stab={stab_worst:.1e} "
        f"dens={dens_worst:.1e} recur={recur:.1e}",
    )


def test_criterion_7_thermal_suite():
    """Z tail 1e-14; variance and beta-monotonicity on a 10-point grid;
    finite-difference extraction to 1e-5; synthetic P passes 1e-8 for
    n <= 12; closed forms tabulated alongside."""
    mu = 1.0
    ts = thermal_state(0.7, mu)
    tail_ok = ts.tail_bound <= 1e-14 * ts.partition
    betas = np.linspace(0.2, 2.0, 10)
    means = [boltzmann_moment(float(b), mu, 1) for b in betas]
    seconds = [boltzmann_moment(float(b), mu, 2) for b in betas]
    var_ok = all(s - m * m >= -1e-15 for s, m in zip(seconds, means))
    mono_ok = all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
    params = FamilyParams(1, 0.5, Family.BESSEL)
    x, h = 2.0, 1e-4
    fd1 = (
        cs_thermal_expectation(params, x, h) - cs_thermal_expectation(params, x, -h)
    ) / (2.0 * h)
    f0 = cs_thermal_expectation(params, x, 0.0)
    fd2 = (
        cs_thermal_expectation(params, x, 10 * h)
        - 2.0 * f0
        + cs_thermal_expectation(params, x, -10 * h)
    ) / (10 * h) ** 2
    fd_ok = (
        abs(fd1 - number_moment(params, x, 1)) / number_moment(params, x, 1) <= 1e-5
        and abs(fd2 - number_moment(params, x, 2)) / number_moment(params, x, 2) <= 1e-5
    )
    pj = FamilyParams(1, 0.5, Family.JACOBI)
    beta_p = 0.02
    cand = moment_matched_candidate(pj, beta_p, pj.mu, 12)
    p_ok = p_function_passes(verify_p_function(pj, beta_p, pj.mu, cand, 12), 1e-8)
    c = closed_form_thermal_stats(1.0, 2.0)
    table_ok = (
        c["N_mean"] == pytest.approx(3.0)
        and c["Q"] == pytest.approx(-7.0 / 3.0)
        and abs(boltzmann_moment(1.0, 2.0, 1) - c["N_mean"]) > 1.0
    )
    ok = tail_ok and var_ok and mono_ok and fd_ok and p_ok and table_ok
    report(
        "7 thermal-suite",
        ok,
        f"tail={tail_ok} var={var_ok} mono={mono_ok} fd={fd_ok} "
        f"p_function={p_ok} table={table_ok}",
    )


def test_criterion_8_figure_reproduction(tmp_path):
    """Weight command: caption regimes, W >= -1e-12, byte-identical reruns."""
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["weight"]
    code_a = cli_main(args + ["--out", str(a)])
    code_b = cli_main(args + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    rows = [
        ln.split(",") for ln in a.read_text().splitlines()
        if ln and not ln.startswith("#") and not ln.startswith("x,")
    ]
    w_ok = all(float(r[1]) >= -1e-12 for r in rows)
    ms = {r[2] for r in rows}
    nus = {r[3] for r in rows}
    tags = {r[4] for r in rows}
    regimes_ok = (
        {"0", "1", "2", "3"} <= ms
        and len(nus) >= 4
        and {"literal-n0", "literal-n1", "literal-n2", "literal-n3"} <= tags
    )
    ok = code_a == 0 and code_b == 0 and identical and w_ok and regimes_ok
    report(
        "8 figure-reproduction",
        ok,
        f"rows={len(rows)} identical={identical} nonneg={w_ok}",
    )
