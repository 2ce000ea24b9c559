"""Batch command-line surface emitting deterministic CSV/JSON reports.

Every artifact embeds the fully resolved configuration and the library
version; identical configurations produce byte-identical files (no
timestamps, fixed 17-significant-digit scientific notation, LF endings).

Exit codes separate failure classes: 0 when every oracle-level check
passes, 1 when one fails (the failing check is named), 2 for a rejected
configuration, 3 when a budget ran out (a series' terms, a recurrence's
depth or a state's truncation; the line names which) or a value left the
float range (the error is printed as one line).  Disagreement between the
weighted-integral results and the closed forms quoted in the literature
is reported as data, never as a failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from . import __version__, dynamics, kernel, measure, quantize, thermal
from .specfun import ConvergenceError
from .states import Family, FamilyParams, _pair_overlap, state_matrix

@dataclass(frozen=True)
class RunConfig:
    family: str = "bessel"
    m: int = 1
    nu: float = 0.5
    n_max: int = 32
    nodes: int = 0  # 0 = the rule's default
    tol: float = 0.0  # 0 = the identity certificate's default
    out: str = ""
    g2_convention: str = "as_written"
    n_check: int = 0  # 0 = family default
    x: float = 0.5
    x_min: float = 0.02
    x_max: float = 0.98
    x_count: int = 49
    beta_min: float = 0.2
    beta_max: float = 2.0
    beta_count: int = 10
    z0_re: float = 0.5
    z0_im: float = 0.0
    t_max: float = 0.0  # 0 = one rotation period
    t_count: int = 3
    r_max: float = 1.0
    r_count: int = 4
    theta_count: int = 4
    seed: int = 12345

    def validate(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.family not in ("bessel", "jacobi"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.m < 0:
            raise ValueError("m must be a non-negative integer")
        if self.nu <= 0.0:
            raise ValueError("nu must be positive")
        if self.n_max < 1:
            raise ValueError("nmax must be positive")
        if self.nodes < 0 or self.tol < 0.0:
            raise ValueError("nodes and tol must be positive when given")
        if self.g2_convention not in ("as_written", "conventional"):
            raise ValueError("g2-convention must be as_written or conventional")
        if not (self.beta_min > 0.0 and self.beta_max > 0.0):
            raise ValueError("beta_min and beta_max must be positive")
        for name in ("x_count", "beta_count", "t_count", "r_count", "theta_count", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.x_min > self.x_max:
            raise ValueError(f"x_min = {self.x_min!r} is above x_max = {self.x_max!r}")

    def params(self) -> FamilyParams:
        return FamilyParams(self.m, self.nu, Family(self.family))

    def as_echo(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d.pop("out")  # artifact location, not content
        d["ghcs_version"] = __version__
        return d


def _parse_config_file(path: str) -> dict:
    """key=value lines, each value converted to the type of its RunConfig
    field's default; an unknown key raises ValueError."""
    types = {f.name: type(f.default) for f in fields(RunConfig)}
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            out[key] = types[key](value.strip())
    return out


def resolve_config(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(ns, "config", None):
        cfg = replace(cfg, **_parse_config_file(ns.config))
    # every flag the parser defines overrides its field (--nmax sets n_max)
    cfg = replace(cfg, **{"n_max" if flag == "nmax" else flag: value
                          for flag, value in vars(ns).items()
                          if value is not None and flag not in ("cmd", "config")})
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Deterministic writers
# ---------------------------------------------------------------------------

# the one float cell format: 17 significant digits, scientific notation
_FLOAT = "%.16e"


def _row_template(row) -> str:
    """The %-template of every row of one CSV, picked from the cell types
    of its first row: floats through `_FLOAT`, integers in decimal ("%d"),
    anything else through str ("%s").  Each conversion writes what the
    str.format spec "{:.16e}", "{:d}" or "{}" writes, nan, +-inf, numpy
    scalars and an int in a float column included, at about two thirds of
    the cost.  An integer column must hold integers: "%d" would truncate a
    float where "{:d}" raised."""
    specs = []
    for value in row:
        if isinstance(value, (float, np.floating)):
            specs.append(_FLOAT)
        elif isinstance(value, (int, np.integer)):
            specs.append("%d")
        else:
            specs.append("%s")
    return ",".join(specs)


def _float_cells(values) -> list[str]:
    return [_FLOAT % value for value in values]


def _emit(path: str, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv_lines(path: str, cfg: RunConfig, header: str, lines: list[str]) -> None:
    """The configuration echo as "# key=value" lines, the header, then the
    formatted data lines."""
    echo = cfg.as_echo()
    preamble = [f"# {key}={echo[key]}" for key in sorted(echo)]
    _emit(path, "\n".join([*preamble, header, *lines]) + "\n")


def _write_csv(path: str, cfg: RunConfig, header: str, rows) -> None:
    template = _row_template(rows[0]) if rows else ""
    _write_csv_lines(path, cfg, header, [template % tuple(row) for row in rows])


def _write_json(path: str, cfg: RunConfig, payload: dict) -> None:
    """The configuration echo and the payload as one line of strict JSON,
    keys sorted.  With no indent, `json.dumps` runs its C encoder.  A
    float that is not finite writes nothing and raises OverflowError
    naming the first such key, so `main` reports a value that left the
    float range (exit 3), not a rejected configuration."""
    doc = {"config": cfg.as_echo(), "results": payload}
    try:
        text = json.dumps(doc, sort_keys=True, default=float, allow_nan=False)
    except ValueError:
        found = _non_finite(doc, "")
        if found is None:
            raise
        raise OverflowError("%s = %r is not a finite float" % found) from None
    _emit(path, text + "\n")


def _non_finite(node, path: str):
    # (key path, value) of the first float under node that is not finite,
    # in the order `_write_json` writes them, or None
    if isinstance(node, dict):
        items = [(f"{path}.{key}" if path else key, node[key]) for key in sorted(node)]
    elif isinstance(node, (list, tuple)):
        items = [(f"{path}[{i}]", value) for i, value in enumerate(node)]
    else:
        finite = not isinstance(node, (float, np.floating)) or math.isfinite(node)
        return None if finite else (path, float(node))
    for key, value in items:
        found = _non_finite(value, key)
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _weight_curves(family: Family) -> list[measure.WeightCurve]:
    """The published-parameter (literal-n) curves, where the regime that
    varies n actually varies, then the canonical (n-free) curve for each
    distinct (m, nu)."""
    curves = measure.default_figure_curves(family)
    canonical = {c.params: measure.WeightCurve(c.params) for c in curves}
    return curves + list(canonical.values())


def cmd_weight(cfg: RunConfig) -> int:
    """Weight-function curves for the three caption regimes, the columns of
    `measure.figure1_columns` as `_write_csv` writes their rows.  Each x
    cell is formatted once per grid point, each distinct W column once
    (bessel literal curves share their canonical curve's), and the m, nu,
    variant tail once per curve."""
    grid = np.linspace(cfg.x_min, cfg.x_max, cfg.x_count)
    x_list, columns = measure.figure1_columns(_weight_curves(cfg.params().family), grid)
    x_cells = [cell + "," for cell in _float_cells(x_list)]
    w_cells: dict[int, list[str]] = {}  # by id of the shared W list
    lines: list[str] = []
    for curve, w_list in columns:
        if id(w_list) not in w_cells:
            w_cells[id(w_list)] = _float_cells(w_list)
        tail = f",{curve.params.m:d},{_FLOAT % curve.params.nu},{curve.variant_tag}"
        lines.extend(x + w + tail for x, w in zip(x_cells, w_cells[id(w_list)]))
    _write_csv_lines(cfg.out, cfg, "x,W,m,nu,variant", lines)
    return 0


def _kernel_checks(params: FamilyParams, rule: measure.QuadratureRule, seed: int, grid: int):
    """The reproducing-kernel checks `verify` and `kernel` share, as
    (hermiticity worst, diagonal worst, z1, z2, idempotence residuals, Gram
    minimum eigenvalue), on labels scaled by the family's KERNEL_SCALE
    (bessel 1.5, jacobi 0.6).

    The pairs are z1 = re + i im on a grid x grid mesh of [-0.45 scale,
    0.45 scale]^2 and z2 = (im - i re) / 2.  Every check but the Gram
    matrix's (on the seed's first 6 draws on [-0.4 scale, 0.4 scale]^2)
    reads the rows of one `state_matrix` call per side: the idempotence
    residuals, |conj K(z1, z2) - K(z2, z1)| and |K(z, z) - 1|, the latter
    also on the Gram diagonal; each kernel value is `kernel.kernel`'s.
    """
    scale = params.formulas.KERNEL_SCALE
    mesh = np.linspace(-0.45 * scale, 0.45 * scale, grid).tolist()
    z1 = [complex(re, im) for re in mesh for im in mesh]
    z2 = [complex(im * 0.5, -re * 0.5) for re in mesh for im in mesh]
    m1, m2 = state_matrix(params, z1), state_matrix(params, z2)
    residuals = kernel._idempotence_residuals(params, m1, m2, rule)
    k12 = _pair_overlap(m1.coeffs, m1.n_max, m2.coeffs, m2.n_max).tolist()
    k21 = _pair_overlap(m2.coeffs, m2.n_max, m1.coeffs, m1.n_max).tolist()
    herm_worst = max([0.0] + [abs(a.conjugate() - b) for a, b in zip(k12, k21)])
    draws = np.random.default_rng(seed).uniform(-0.4 * scale, 0.4 * scale, (6, 2))
    gram = kernel.gram_matrix(params, [complex(re, im) for re, im in draws.tolist()])
    selves = [_pair_overlap(m.coeffs, m.n_max, m.coeffs, m.n_max) for m in (m1, m2)]
    diag_worst = max(abs(k - 1.0) for k in np.concatenate([gram.diagonal(), *selves]).tolist())
    gram_min = float(np.linalg.eigvalsh(gram).min())
    return herm_worst, diag_worst, z1, z2, residuals, gram_min


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.beta_count < 2:  # the thermal checks would compare nothing
        raise ValueError(f"beta_count must be at least 2 for verify, got {cfg.beta_count}")
    params = cfg.params()
    checks: dict = {}
    failed: list[str] = []

    n_check = cfg.n_check or params.formulas.N_CHECK
    tol = cfg.tol or measure.IDENTITY_TOL
    rule = measure.radial_rule(params, cfg.nodes)
    cert = measure.verify_identity(params, n_check, tol, rule)
    checks["identity_moments"] = cert.as_dict()
    if not cert.passed:
        failed.append(f"identity_moments ({cert.diagnosis})")

    herm_worst, diag_worst, _, _, residuals, gram_min = _kernel_checks(params, rule, cfg.seed, 3)
    idem_worst = float(np.max(residuals))
    kernel_pass = (herm_worst <= 1e-12 and diag_worst <= 1e-10 and idem_worst <= 1e-6
                   and gram_min >= -1e-9)
    checks["kernel"] = {
        "passed": kernel_pass,
        "hermiticity_worst": herm_worst,
        "diagonal_worst": diag_worst,
        "idempotence_worst": idem_worst,
        "gram_min_eigenvalue": gram_min,
    }
    if not kernel_pass:
        failed.append("kernel")

    report = quantize.discrepancy_report(params, cfg.n_max, rule)
    quant_rel = max(
        d["max_rel_quadrature_vs_h_ratio"] for d in report["symbols"].values()
    )
    quant_pass = quant_rel <= 1e-7
    checks["quantization"] = {"passed": quant_pass, "report": report}
    if not quant_pass:
        failed.append("quantization")

    mu = params.mu
    betas = np.linspace(cfg.beta_min, cfg.beta_max, cfg.beta_count)
    grid = thermal._oracle_columns(betas, mu)
    means, sq = grid["N_mean"], grid["N2_mean"]
    variance_ok = bool(np.all(sq - means * means >= -1e-12))
    rising = means[np.argsort(betas, kind="stable")]  # <N> in order of increasing beta
    monotone_ok = bool(np.all(rising[1:] <= rising[:-1] + 1e-12))
    x = min(cfg.x, params.formulas.VERIFY_X_MAX)
    h = 1e-4
    fd = (
        thermal.cs_thermal_expectation(params, x, h)
        - thermal.cs_thermal_expectation(params, x, -h)
    ) / (2.0 * h)
    n1 = thermal.number_moment(params, x, 1)
    fd_err = abs(fd - n1) / max(n1, 1e-300)
    thermal_pass = variance_ok and monotone_ok and fd_err <= 1e-5
    checks["thermal"] = {
        "passed": thermal_pass,
        "variance_nonnegative": variance_ok,
        "mean_monotone_in_beta": monotone_ok,
        "finite_difference_rel_error": fd_err,
        "closed_form_vs_oracle_at_beta1": {
            "oracle": thermal.oracle_thermal_stats(1.0, mu, cfg.g2_convention),
            "literature": thermal.closed_form_thermal_stats(1.0, mu),
        },
    }
    if not thermal_pass:
        failed.append("thermal")

    payload = {
        "passed": not failed,
        "failed_checks": failed,
        "checks": checks,
    }
    _write_json(cfg.out, cfg, payload)
    if failed:
        print("FAIL: " + "; ".join(failed), file=sys.stderr)
        return 1
    return 0


def cmd_kernel(cfg: RunConfig) -> int:
    params = cfg.params()
    rule = measure.radial_rule(params, cfg.nodes)
    herm_worst, _, z1s, z2s, residuals, gram_min = _kernel_checks(params, rule, cfg.seed, 5)
    samples = [
        {"z1": [z1.real, z1.imag], "z2": [z2.real, z2.imag], "idempotence_residual": r}
        for z1, z2, r in zip(z1s, z2s, residuals.tolist())
    ]
    payload = {
        "hermiticity_worst": herm_worst,
        "gram_min_eigenvalue": gram_min,
        "idempotence": samples,
    }
    _write_json(cfg.out, cfg, payload)
    return 0


def cmd_quantize(cfg: RunConfig) -> int:
    params = cfg.params()
    rule = measure.radial_rule(params, cfg.nodes)
    ops, report = quantize._ladder_report(params, cfg.n_max, rule)
    payload = {"matrices": [op.to_json_dict() for op in ops], "discrepancy": report}
    _write_json(cfg.out, cfg, payload)
    return 0


def cmd_expect(cfg: RunConfig) -> int:
    """In-state (<N>, <N^2>, g2, Q) over the x grid, all of it in one
    `thermal.in_state_stats` call.  The grid stops at the family's
    EXPECT_X_MAX: for jacobi x = 0.998, the end of the closed-form moments,
    short of the x -> 1 end where the moment series outgrow their budget
    (bessel has no cap); an x_max above it is clamped there, with one
    stderr line."""
    params = cfg.params()
    x_max, cap, name = cfg.x_max, params.formulas.EXPECT_X_MAX, params.family.value
    if cfg.x_min > cap:
        raise ValueError(f"x_min = {cfg.x_min!r} is above the {name} expect cap x <= {cap}")
    if x_max > cap:
        print(f"expect: {name} x_max = {x_max!r} clamped to the cap x <= {cap}", file=sys.stderr)
        x_max = cap
    grid = np.linspace(cfg.x_min, x_max, cfg.x_count)
    stats = thermal.in_state_stats(params, grid, cfg.g2_convention)
    rows = list(zip(grid.tolist(), *(column.tolist() for column in stats)))
    _write_csv(cfg.out, cfg, "x,N_mean,N2_mean,g2,mandel_q", rows)
    return 0


def cmd_evolve(cfg: RunConfig) -> int:
    params = cfg.params()
    if cfg.r_count < 1:
        raise ValueError("r_count must be positive")
    if cfg.r_max <= 0.0:
        raise ValueError("r_max must be positive")
    if not (cfg.t_max or dynamics.rotation_frequency(params)):
        raise ValueError("t_max must be set where 2m + 2nu - 1, the rotation frequency, is 0")
    z0 = complex(cfg.z0_re, cfg.z0_im)
    t_max = cfg.t_max or 2.0 * math.pi / dynamics.rotation_frequency(params)
    t_values = np.linspace(0.0, t_max, cfg.t_count)
    r_values = np.linspace(cfg.r_max / cfg.r_count, cfg.r_max, cfg.r_count)
    theta_values = np.linspace(0.0, 2.0 * math.pi, cfg.theta_count, endpoint=False)
    rows = dynamics.polar_density_rows(params, z0, t_values, r_values, theta_values)
    _write_csv(cfg.out, cfg, "r,theta,t,rho_formula,rho_raw", rows)
    return 0


def cmd_thermal(cfg: RunConfig) -> int:
    params = cfg.params()
    betas = np.linspace(cfg.beta_min, cfg.beta_max, cfg.beta_count)
    rows = thermal.thermal_scan_rows(betas, params.mu, cfg.g2_convention)
    header = (
        "beta,mu,Z,N_oracle,N2_oracle,g2_oracle,Q_oracle,"
        "N_paper,N2_paper,g2_paper,Q_paper"
    )
    _write_csv(cfg.out, cfg, header, rows)
    return 0


_COMMANDS = {
    "weight": cmd_weight,
    "verify": cmd_verify,
    "kernel": cmd_kernel,
    "quantize": cmd_quantize,
    "expect": cmd_expect,
    "evolve": cmd_evolve,
    "thermal": cmd_thermal,
}


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing never changes the parser, and building
    # it (7 subparsers) costs about 30 times as much as one parse
    parser = argparse.ArgumentParser(
        prog="ghcs",
        description=(
            "Verification and report emitter for generalized hypergeometric "
            "coherent states."
        ),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, help_text in [
        ("weight", "emit weight-function curves as CSV"),
        ("verify", "run the oracle-level verification suite, emit JSON"),
        ("kernel", "reproducing-kernel checks, emit JSON"),
        ("quantize", "operator matrices and discrepancy report, emit JSON"),
        ("expect", "in-state number moments over an |z|^2 grid, emit CSV"),
        ("evolve", "phase-space density over a polar grid in time, emit CSV"),
        ("thermal", "thermal scan: oracle sums vs closed forms, emit CSV"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--family", choices=["bessel", "jacobi"], default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--nu", type=float, default=None)
        p.add_argument("--nmax", type=int, default=None)
        p.add_argument("--nodes", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument(
            "--g2-convention",
            dest="g2_convention",
            choices=["as_written", "conventional"],
            default=None,
        )
        p.add_argument("--config", type=str, default=None,
                       help="key=value file; flags override file values")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = resolve_config(ns)
    except (ValueError, OSError) as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[ns.cmd](cfg)
    except ValueError as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"budget ran out: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"float range exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
