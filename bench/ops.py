"""Seeded op lists for the three workloads and the code that runs one op.

An op list is a pure function of (workload, seed, count): op i depends only
on the seed and on the block that holds i, so a longer list extends a
shorter one.  Draws are stratified inside each block (each (family, m)
pair equally often, nu and the radial draws one per equal-width stratum, in
a seeded order), which keeps the mix of cheap and expensive ops nearly the
same from seed to seed without narrowing any range.  No draw is retried or
filtered.

Parameters: m in {0, 1, 2, 3}, nu ~ U(0.1, 2.5) rounded to 3 decimals.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("report-sweep", "label-batch", "moment-scan")
FAMILIES = ("bessel", "jacobi")
NU_RANGE = (0.1, 2.5)
REPORT_COMMANDS = ("verify", "kernel", "quantize", "expect", "thermal", "evolve", "weight")
GRAM_LABELS = 16
MOMENT_BLOCK = 64
# ops per block; a run is whole blocks, so it sees whole strata
BLOCK = {"report-sweep": 4 * 7 + 4 * 6, "label-batch": 32, "moment-scan": MOMENT_BLOCK}
# ops per second of measuring.  A run is a fixed number of ops, the whole
# blocks nearest to --seconds at this rate, so one seed gives the same ops,
# and the same failed ops, however fast the host happens to be; a faster
# library ends sooner.  At the seed code's speed on a shared two-vCPU host a
# run's loop takes 1 to 1.3 times --seconds: the rates are set above the
# wall-clock rates so that op_p90_s and ok_ratio, which rest on the few
# slowest or failing ops, are steady from seed to seed.
NOMINAL_RATE = {"report-sweep": 12, "label-batch": 11, "moment-scan": 130}


def op_count(workload: str, seconds: float) -> int:
    """Ops in a run of `seconds`: whole blocks, at least one."""
    block = BLOCK[workload]
    return block * max(1, round(seconds * NOMINAL_RATE[workload] / block))


def _rng(seed: int, block: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, block, stream])


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw in each of n equal-width strata of (lo, hi), shuffled."""
    u = (rng.permutation(n) + rng.uniform(size=n)) / n
    return lo + (hi - lo) * u


def _param_block(rng: np.random.Generator) -> list[tuple[str, int, float]]:
    """Eight (family, m, nu): every (family, m) pair once, nu stratified."""
    pairs = [(f, m) for f in FAMILIES for m in range(4)]
    order = rng.permutation(len(pairs))
    nus = _strata(rng, len(pairs), *NU_RANGE)
    return [(pairs[k][0], pairs[k][1], round(float(nu), 3)) for k, nu in zip(order, nus)]


def _report_block(seed: int, block: int) -> list[dict]:
    rng = _rng(seed, block, 0)
    params = _param_block(rng)
    counts = _strata(rng, len(params), 33, 66).astype(int)
    ops = []
    for cfg, (family, m, nu) in enumerate(params):
        # weight ignores (m, nu), so its grid is drawn per config instead
        grid = {
            "x_min": round(float(rng.uniform(0.01, 0.1)), 3),
            "x_max": round(float(rng.uniform(0.9, 0.99)), 3),
            "x_count": int(counts[cfg]),
        }
        for cmd in REPORT_COMMANDS:
            if cmd == "evolve" and family == "jacobi":
                continue  # a rejected configuration, not an op
            op = {"cmd": cmd, "family": family, "m": m, "nu": nu,
                  "config": f"{block}-{cfg}"}
            if cmd == "weight":
                op["grid"] = grid
            ops.append(op)
    return ops


def _label_block(seed: int, block: int) -> list[dict]:
    """Thirty-two gram ops: 24 bessel, 8 jacobi, in a seeded order.

    A jacobi op costs about five bessel ops, so this keeps both families'
    costs in view while the median op lies inside the bessel cluster rather
    than in the gap between the two.  The first bessel label, the centre of
    the evolve grid, takes one of 24 radius strata in each op: whether the
    grid reaches the density_static cancellation region depends mostly on
    that radius, so the block's share of such ops barely varies.
    """
    rng = _rng(seed, block, 1)
    drawn = [p for _ in range(6) for p in _param_block(rng)]
    params = [p for p in drawn if p[0] == "bessel"] + [p for p in drawn[:16] if p[0] == "jacobi"]
    params = [params[k] for k in rng.permutation(len(params))]
    centres = iter(_strata(rng, sum(p[0] == "bessel" for p in params), 0.0, 20.0))
    ops = []
    for family, m, nu in params:
        if family == "jacobi":
            radii = np.sort(1.0 - 10.0 ** -_strata(rng, GRAM_LABELS, 0.1, 2.0))
        else:
            radii = np.concatenate(([next(centres)],
                                    np.sort(_strata(rng, GRAM_LABELS - 1, 0.0, 20.0))))
        angles = rng.uniform(0.0, 2.0 * math.pi, GRAM_LABELS)
        op = {
            "family": family, "m": m, "nu": nu,
            "labels": [[float(r * math.cos(a)), float(r * math.sin(a))]
                       for r, a in zip(radii, angles)],
        }
        if family == "bessel":
            op["t1"] = float(rng.uniform(0.0, 1.0))
        ops.append(op)
    return ops


def _moment_block(seed: int, block: int) -> list[dict]:
    rng = _rng(seed, block, 2)
    half = MOMENT_BLOCK // 2
    rows = {}
    for family in FAMILIES:
        ms = rng.permutation(np.repeat(np.arange(4), half // 4))
        nus = _strata(rng, half, *NU_RANGE)
        if family == "jacobi":
            xs = 1.0 - 10.0 ** -_strata(rng, half, 0.05, 3.3)
        else:
            xs = 10.0 ** _strata(rng, half, -2.0, 4.0)
        rows[family] = [
            {"family": family, "m": int(m), "nu": round(float(nu), 3), "x": float(x)}
            for m, nu, x in zip(ms, nus, xs)
        ]
    return [rows[FAMILIES[i % 2]][i // 2] for i in range(MOMENT_BLOCK)]


_BLOCKS = {
    "report-sweep": _report_block,
    "label-batch": _label_block,
    "moment-scan": _moment_block,
}


def make_ops(workload: str, seed: int, count: int) -> list[dict]:
    """The first `count` ops of the workload at this seed."""
    make = _BLOCKS[workload]
    ops: list[dict] = []
    block = 0
    while len(ops) < count:
        ops.extend(make(seed, block))
        block += 1
    return ops[:count]


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one op returned, kept for the checks made after the timed loop."""

    error: str | None = None  # exception text, or the CLI's stderr on a non-zero exit
    value: object = None


def prepare(workload: str, ops: list[dict], workdir: str) -> list:
    """Per-op arguments built before timing starts (CLI argv, labels)."""
    if workload == "report-sweep":
        return [_argv(op, i, workdir) for i, op in enumerate(ops)]
    if workload == "label-batch":
        return [[complex(re, im) for re, im in op["labels"]] for op in ops]
    return [None] * len(ops)


def artifact_path(workdir: str, i: int, op: dict) -> str:
    ext = "csv" if op["cmd"] in ("weight", "expect", "evolve", "thermal") else "json"
    return os.path.join(workdir, f"op{i:05d}-{op['cmd']}.{ext}")


def _argv(op: dict, i: int, workdir: str) -> list[str]:
    argv = [op["cmd"], "--family", op["family"], "--m", str(op["m"]),
            "--nu", repr(op["nu"]), "--out", artifact_path(workdir, i, op)]
    if "grid" in op:
        path = os.path.join(workdir, f"config-{op['config']}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k}={v}\n" for k, v in sorted(op["grid"].items()))
        argv += ["--config", path]
    return argv


def _params(op: dict):
    from ghcs.states import Family, FamilyParams

    return FamilyParams(op["m"], op["nu"], Family(op["family"]))


def evolve_grid(op: dict, z0: complex):
    """(t_values, r_values, theta_values): radii up to |z0|, angles from arg z0."""
    r0 = abs(z0)
    theta0 = math.atan2(z0.imag, z0.real)
    return ([0.0, op["t1"]], list(np.linspace(r0 / 4.0, r0, 4)),
            [theta0 + k * math.pi / 2.0 for k in range(4)])


def execute(workload: str, op: dict, arg) -> Outcome:
    """Run one op through the public API; exceptions become failed outcomes."""
    from ghcs import cli, dynamics, kernel, thermal

    try:
        if workload == "report-sweep":
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(arg)
            if code != 0:
                return Outcome(error=f"exit {code}: {err.getvalue().strip()}")
            return Outcome()
        params = _params(op)
        if workload == "label-batch":
            gram = kernel.gram_matrix(params, arg)
            eig = np.linalg.eigvalsh(gram)
            rows = None
            if op["family"] == "bessel":
                rows = dynamics.polar_density_rows(params, arg[0], *evolve_grid(op, arg[0]))
            return Outcome(value=(gram, eig, rows))
        x = op["x"]
        n1 = thermal.number_moment(params, x, 1)
        n2 = thermal.number_moment(params, x, 2)
        return Outcome(value=(n1, n2, thermal.g2_in_state(params, x)))
    except Exception as exc:  # every failure is an op outcome, never a crash
        return Outcome(error=f"{type(exc).__name__}: {exc}")
