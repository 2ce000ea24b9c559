"""Output checks made after the timed loop.

Values are compared against closed forms evaluated in mpmath, which shares
no code with the library: the jacobi density goes through the Gauss
reduction G^{2,0}_{2,2}(x | a,a; 0,2a-1) = 2F1(1-a, 1-a; 1; 1-x), kernels
and densities through mpmath's 0F1/2F1, and in-state number moments
through derivatives of the normalization, <N> = x N'/N and
<N^2> = (x N' + x^2 N'')/N.  JSON reports from verify, kernel and quantize
are held to the CLI's own thresholds.
"""

from __future__ import annotations

import hashlib
import json
import math

import mpmath as mp
import numpy as np

DPS = 20  # mpmath raises its working precision itself where a series cancels
WEIGHT_REL = 1e-8
MOMENT_REL = 1e-9
DENSITY_REL = 1e-8
THERMAL_REL = 1e-10
GRAM_ABS = 1e-10
EPS = 2.0 ** -52
# thresholds the CLI applies in `verify`
HERMITICITY_MAX = 1e-12
DIAGONAL_MAX = 1e-10
IDEMPOTENCE_MAX = 1e-6
GRAM_EIG_MIN = -1e-9
QUANT_REL_MAX = 1e-7
CLI_Z0 = 0.5  # the CLI's default evolve label z0_re + i z0_im

SAMPLES = {"weight": 4, "expect": 3, "evolve": 4, "thermal": 2, "gram": 4}
# `verify` check -> the group its failure is reported under on stderr
VERIFY_GROUPS = {
    "identity_moments": "identity_moments", "hermiticity": "kernel", "diagonal": "kernel",
    "idempotence": "kernel", "gram_positivity": "kernel", "quantization": "quantization",
    "thermal_checks": "thermal",
}


def _ab(m: int, nu: float):
    a = mp.mpf(m) + mp.mpf(nu)
    return a, 2 * a


def norm_fn(family: str, m: int, nu: float, w, der: int = 0):
    """d^der/dw^der of the family normalization N(w), in mpmath."""
    a, b = _ab(m, nu)
    if family == "bessel":
        return mp.hyp0f1(b + der, w) / mp.rf(b, der)
    p = a + 1
    return mp.rf(p, der) ** 2 / mp.rf(b, der) * mp.hyp2f1(p + der, p + der, b + der, w)


def number_moments(family: str, m: int, nu: float, x: float):
    """(<N>, <N^2>, g2 as written) in the state with |z|^2 = x."""
    with mp.workdps(DPS):
        f0, f1, f2 = (norm_fn(family, m, nu, mp.mpf(x), d) for d in range(3))
        n1 = x * f1 / f0
        n2 = (x * f1 + x * x * f2) / f0
        return float(n1), float(n2), float((n2 - n1) / n2)


def label_norm(family: str, m: int, nu: float, z: complex):
    """N(|z|^2), the squared norm of the unnormalized state at label z."""
    with mp.workdps(DPS):
        return norm_fn(family, m, nu, mp.mpf(abs(z)) ** 2)


def kernel_value(family: str, m: int, nu: float, z1: complex, z2: complex,
                 norm1=None, norm2=None) -> complex:
    """N(conj(z1) z2) / sqrt(N(|z1|^2) N(|z2|^2)); norm1 and norm2 are
    label_norm(z1) and label_norm(z2) when the caller already has them."""
    with mp.workdps(DPS):
        if norm1 is None:
            norm1 = label_norm(family, m, nu, z1)
        if norm2 is None:
            norm2 = label_norm(family, m, nu, z2)
        w = mp.mpc(z1).conjugate() * mp.mpc(z2)
        return complex(norm_fn(family, m, nu, w) / mp.sqrt(norm1 * norm2))


def _cross_label(m: int, nu: float, z0: complex, r: float, theta: float, t: float):
    """conj(z) z0(t), the argument of the density's numerator 0F1."""
    z = r * complex(math.cos(theta), math.sin(theta))
    _, b = _ab(m, nu)
    return mp.mpc(z).conjugate() * mp.mpc(z0) * mp.expj(-(b - 1) * t)


def rho_formula(m: int, nu: float, z0: complex, r: float, theta: float, t: float) -> float:
    """|0F1(b; conj(z) z0(t))|^2 / (0F1(b; |z|^2) 0F1(b; |z0|^2)), bessel family."""
    with mp.workdps(DPS):
        _, b = _ab(m, nu)
        num = abs(mp.hyp0f1(b, _cross_label(m, nu, z0, r, theta, t))) ** 2
        return float(num / (mp.hyp0f1(b, mp.mpf(r) ** 2)
                            * mp.hyp0f1(b, mp.mpf(abs(z0)) ** 2)))


def density_cancellation(m: int, nu: float, z0: complex, r: float, theta: float,
                         t: float) -> float:
    """0F1(b; |w|) / |0F1(b; w)| at w = conj(z) z0(t): the sum of the series'
    term moduli over the modulus of its value, i.e. the factor by which
    rounding in a direct summation is amplified."""
    with mp.workdps(DPS):
        _, b = _ab(m, nu)
        w = _cross_label(m, nu, z0, r, theta, t)
        return float(mp.hyp0f1(b, abs(w)) / abs(mp.hyp0f1(b, w)))


def weight_value(family: str, m: int, nu: float, variant: str, x: float) -> float:
    """W(x) = N(x) omega(x) for one figure curve."""
    with mp.workdps(DPS):
        a, b = _ab(m, nu)
        x = mp.mpf(x)
        if family == "bessel":
            omega = 2 * x ** ((b - 1) / 2) * mp.besselk(b - 1, 2 * mp.sqrt(x)) / mp.gamma(b)
            return float(mp.hyp0f1(b, x) * omega)
        omega = mp.gamma(a + 1) ** 2 / mp.gamma(b) * mp.hyp2f1(1 - a, 1 - a, 1, 1 - x)
        if variant.startswith("literal-n"):
            c = a + int(variant[len("literal-n"):])
            return float(mp.hyp2f1(-c, -c, b, x) * omega)
        return float(norm_fn(family, m, nu, x) * omega)


def thermal_sums(beta: float, mu: float):
    """(Z, <N>, <N^2>) by direct Boltzmann summation over E_n = n(n+mu+1)."""
    with mp.workdps(DPS):
        beta, mu = mp.mpf(beta), mp.mpf(mu)

        def moment(s):
            return mp.nsum(lambda n: n ** s * mp.exp(-beta * n * (n + mu + 1)), [0, mp.inf])

        z = moment(0)
        return float(z), float(moment(1) / z), float(moment(2) / z)


def _rel(got: float, ref: float) -> float:
    if got == ref:
        return 0.0
    return abs(got - ref) / max(abs(ref), 1e-300)


# ---------------------------------------------------------------------------
# Per-op checks: each returns a list of (check name, detail, values) failures,
# where values holds the sizes and inputs known.py bounds its defects by
# ---------------------------------------------------------------------------

def _sample(rng: np.random.Generator, n: int, k: int) -> list[int]:
    return sorted(rng.choice(n, size=min(n, k), replace=False).tolist())


def read_csv(path: str) -> list[list[str]]:
    """Data rows of a CLI CSV artifact (config preamble and header skipped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _json_checks(cmd: str, res: dict) -> list[tuple[str, str, dict]]:
    """The CLI's own thresholds applied to a verify, kernel or quantize report."""
    fails = []
    if cmd == "verify":
        ident = res["checks"]["identity_moments"]
        if not ident["passed"]:
            fails.append(("identity_moments",
                          f"worst rel error {ident['worst_rel_error']:.3e} > tol {ident['tol']:g} "
                          f"({ident['diagnosis']})",
                          {"rel_error": ident["worst_rel_error"], "tol": ident["tol"]}))
        k = res["checks"]["kernel"]
        herm, diag = k["hermiticity_worst"], k["diagonal_worst"]
        idem, gmin = k["idempotence_worst"], k["gram_min_eigenvalue"]
        quant = res["checks"]["quantization"]["report"]
        therm = res["checks"]["thermal"]
        if not therm["passed"]:
            fails.append(("thermal_checks",
                          f"finite-difference rel error {therm['finite_difference_rel_error']:.3e}",
                          {"rel_error": therm["finite_difference_rel_error"]}))
    else:
        herm, diag = res.get("hermiticity_worst", 0.0), 0.0
        gmin = res.get("gram_min_eigenvalue", 0.0)
        idem = max((s["idempotence_residual"] for s in res.get("idempotence", [])), default=0.0)
        quant = res.get("discrepancy")
    if herm > HERMITICITY_MAX:
        fails.append(("hermiticity", f"{herm:.3e} > {HERMITICITY_MAX:g}", {"residual": herm}))
    if diag > DIAGONAL_MAX:
        fails.append(("diagonal", f"{diag:.3e} > {DIAGONAL_MAX:g}", {"residual": diag}))
    if idem > IDEMPOTENCE_MAX:
        fails.append(("idempotence", f"{idem:.3e} > {IDEMPOTENCE_MAX:g}", {"residual": idem}))
    if gmin < GRAM_EIG_MIN:
        fails.append(("gram_positivity", f"{gmin:.3e} < {GRAM_EIG_MIN:g}", {"eigenvalue": gmin}))
    if quant is not None:
        q = max(s["max_rel_quadrature_vs_h_ratio"] for s in quant["symbols"].values())
        if q > QUANT_REL_MAX:
            fails.append(("quantization", f"{q:.3e} > {QUANT_REL_MAX:g}", {"rel_error": q}))
    return fails


def check_failed_verify(path: str, stderr: str) -> list[tuple[str, str, dict]]:
    """Failures of a verify call that exited 1, read from the report it still wrote.

    Each check group the CLI names on stderr must be explained by a failed
    threshold in the report; a group that is not, or a missing report, is
    an exit failure of its own.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            res = json.load(fh)["results"]
    except (OSError, ValueError, KeyError) as exc:
        return [("exit", f"{stderr}; no readable report ({exc})", {})]
    fails = _json_checks("verify", res)
    found = {VERIFY_GROUPS[name] for name, _, _ in fails}
    for group in res["failed_checks"]:
        group = group.split(" (")[0]
        if group not in found:
            fails.append(("exit", f"{stderr}; report reproduces no {group} failure", {}))
    if not res["failed_checks"]:
        fails.append(("exit", f"{stderr}; report says passed", {}))
    return fails


def check_report(op: dict, path: str, rng: np.random.Generator) -> list[tuple[str, str, dict]]:
    cmd, family, m, nu = op["cmd"], op["family"], op["m"], op["nu"]
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return _json_checks(cmd, json.load(fh)["results"])
    fails = []
    rows = read_csv(path)
    for i in _sample(rng, len(rows), SAMPLES[cmd]):
        row = rows[i]
        if cmd == "weight":
            x, got = float(row[0]), float(row[1])
            ref = weight_value(family, int(row[2]), float(row[3]), row[4], x)
            err = _rel(got, ref)
            if not err <= WEIGHT_REL:
                fails.append(("weight", f"row {i} x={x} {row[4]} rel {err:.2e}", {"rel_error": err}))
        elif cmd == "expect":
            got = [float(v) for v in row[1:4]]
            ref = number_moments(family, m, nu, float(row[0]))
            err = max(_rel(g, r) for g, r in zip(got, ref))
            if not err <= MOMENT_REL:
                fails.append(("expect", f"row {i} x={row[0]} rel {err:.2e}", {"rel_error": err}))
        elif cmd == "evolve":
            r, th, t, got = (float(v) for v in row[:4])
            ref = rho_formula(m, nu, CLI_Z0, r, th, t)
            err = _rel(got, ref)
            if not err <= DENSITY_REL:
                fails.append(("evolve", f"row {i} r={r:g} theta={th:g} t={t:g} rel {err:.2e}",
                              {"rel_error": err}))
        elif cmd == "thermal":
            got = [float(v) for v in row[2:5]]
            ref = thermal_sums(float(row[0]), float(row[1]))
            err = max(_rel(g, r) for g, r in zip(got, ref))
            if not err <= THERMAL_REL:
                fails.append(("thermal", f"row {i} beta={row[0]} rel {err:.2e}", {"rel_error": err}))
    return fails


def check_gram(op: dict, labels: list[complex], value, rng: np.random.Generator):
    """Every failed entry and density point of one label-batch op.

    Checks the row of the largest label, where truncation and cancellation
    are worst, seeded entries among the other labels, and every point of
    the evolve grid; a failure does not stop the checks that follow it.
    """
    gram, eig, rows = value
    family, m, nu = op["family"], op["m"], op["nu"]
    fails = []
    if eig.min() < GRAM_EIG_MIN:
        fails.append(("gram_positivity", f"{eig.min():.3e} < {GRAM_EIG_MIN:g}",
                      {"eigenvalue": float(eig.min())}))
    k = len(labels)
    top = max(range(k), key=lambda i: abs(labels[i]))
    rest = [(i, j) for i in range(k) for j in range(i + 1, k) if top not in (i, j)]
    pairs = [(min(top, j), max(top, j)) for j in range(k) if j != top]
    pairs += [rest[p] for p in _sample(rng, len(rest), SAMPLES["gram"])]
    norms: dict[int, object] = {}
    for i, j in pairs:
        for k in (i, j):
            if k not in norms:
                norms[k] = label_norm(family, m, nu, labels[k])
        ref = kernel_value(family, m, nu, labels[i], labels[j], norms[i], norms[j])
        err = abs(complex(gram[i, j]) - ref)
        if not err <= GRAM_ABS:
            ri, rj = abs(labels[i]), abs(labels[j])
            fails.append(("gram", f"entry ({i},{j}) |z|={ri:.4g},{rj:.4g} abs {err:.2e}",
                          {"abs_error": err, "radius_max": max(ri, rj)}))
    for r, th, t, got, _ in rows or ():
        ref = rho_formula(m, nu, labels[0], r, th, t)
        err = _rel(got, ref)
        if not err <= DENSITY_REL:
            c = density_cancellation(m, nu, labels[0], r, th, t)
            fails.append(("density_static", f"|z0|={abs(labels[0]):.4g} r={r:.4g} "
                                            f"theta={th:.4g} t={t:.4g} rel {err:.2e} "
                                            f"cancellation {c:.2e}",
                          {"rel_error": err, "cancellation": c}))
    return fails


def check_moment(op: dict, value) -> list[tuple[str, str, dict]]:
    ref = number_moments(op["family"], op["m"], op["nu"], op["x"])
    err = max(_rel(g, r) for g, r in zip(value, ref))
    if not err <= MOMENT_REL:
        return [("number_moment", f"rel {err:.2e}", {"rel_error": err})]
    return []


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
