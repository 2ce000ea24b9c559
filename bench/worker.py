"""One workload process: set up, run the closed op loop, check the outputs.

Started by run.py, never by hand.  Modes:

  probe   set up (imports and the first --count ops' inputs) and stop;
          reports the set-up time only
  run     run the first --count ops and check them (traced with --trace 1)
  replay  run the first --count ops untraced, without checks

The result goes to --result as JSON.  Timing covers only the op loop;
checks against the oracles run after it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import ops  # noqa: E402
from spans import OP_SPAN, Tracer, layer_metrics  # noqa: E402

MOMENT_CHECK_SHARE = 0.25

# On a shared host the CPU speed can drift by a third within seconds, which no
# run length averages away.  A fixed reference task runs every
# REF_INTERVAL_S inside the loop; each op's time is scaled by REF_S over the
# median reference time within REF_WINDOW_S of it, i.e. reported
# at the speed where the reference task takes REF_S.  Other tenants' load
# slows different kinds of work by different amounts, so each workload is
# scaled by the task whose drift tracked its own ops best when the same ops
# were rerun many times on a shared two-vCPU host: a bare float loop for
# report-sweep and label-batch, and a frozen coefficient-series summation
# for moment-scan, whose ops are nothing but such series (scaled by the
# bare loop, or by a task that also swept arrays, moment-scan's throughput
# still spread by 10-40% over reruns of the same ops).  Both tasks are
# fixed code in this directory, so a faster library never speeds them up,
# and they run with the garbage collector off, so collections of the
# library's objects are not charged to them and cannot cancel out of the
# scaled op times.  REF_WINDOW_S is short because the host's speed moves
# within a second.
REF_S = 0.0005
REF_INTERVAL_S = 0.02
REF_WINDOW_S = 0.2


def loop_task() -> float:
    """A ratio-series loop on local floats."""
    t, total = 1.0, 0.0
    for k in range(4000):
        t *= 0.999 / (1.0 + k * 1e-6)
        total += t
    return total


@dataclass(frozen=True)
class _SeriesParams:
    b: float = 1.7
    shift: float = 1.85
    family: str = "jacobi"


def series_task(params: _SeriesParams = _SeriesParams(), x: float = 0.99) -> float:
    """A fixed-length <N> coefficient series, written the way the library's
    in-state moments are: attribute reads, a family branch and a
    convergence test per term."""
    term = den = 1.0
    num = 0.0
    small = 0
    for n in range(700):
        ratio = x / ((n + 1.0) * (params.b + n))
        if params.family == "jacobi":
            ratio *= (params.shift + n) ** 2
        term *= ratio
        den += term
        contrib = float(n + 1) * term
        num += contrib
        if contrib <= 1e-300 * max(num, 1.0):
            small += 1
        else:
            small = 0
    return num / den + small


REFERENCE = {"report-sweep": loop_task, "label-batch": loop_task, "moment-scan": series_task}


def time_reference(task) -> float:
    """Seconds one run of the reference task takes, with the garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        task()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def reference_median(task, runs: int = 7) -> float:
    """Median reference-task time, after one warm-up run."""
    task()
    return float(np.median([time_reference(task) for _ in range(runs)]))


def speed_factors(starts, ref_at, ref_s) -> np.ndarray:
    """REF_S / (median reference time within REF_WINDOW_S of each op start)."""
    ref_at, ref_s = np.asarray(ref_at), np.asarray(ref_s)
    out = np.empty(len(starts))
    for i, t in enumerate(starts):
        near = np.abs(ref_at - t) <= REF_WINDOW_S
        if not near.any():
            near = np.abs(ref_at - t) == np.abs(ref_at - t).min()
        out[i] = REF_S / np.median(ref_s[near])
    return out


def import_library():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import ghcs
    import ghcs.cli  # noqa: F401

    where = os.path.dirname(os.path.abspath(ghcs.__file__))
    if os.path.dirname(where) != src:
        raise SystemExit(f"ghcs imported from {where}, not from {src}")


def check(workload: str, seed: int, i: int, op: dict, arg, outcome, workdir: str):
    """(check name, detail, values) failures of op i."""
    if outcome.error is not None:
        if workload == "report-sweep" and op["cmd"] == "verify" and \
                outcome.error.startswith("exit 1: FAIL: "):
            return oracle.check_failed_verify(ops.artifact_path(workdir, i, op), outcome.error)
        name = "exit" if outcome.error.startswith("exit ") else "exception"
        return [(name, outcome.error, {})]
    rng = np.random.default_rng([seed, i, 7])
    if workload == "report-sweep":
        return oracle.check_report(op, ops.artifact_path(workdir, i, op), rng)
    if workload == "label-batch":
        return oracle.check_gram(op, arg, outcome.value, rng)
    if rng.uniform() < MOMENT_CHECK_SHARE:
        return oracle.check_moment(op, outcome.value)
    return []


def timed_loop(workload: str, op_list: list[dict], args: list,
               tracer: Tracer | None = None, execute=ops.execute) -> dict:
    """Run all ops back to back.  Returns the outcomes, op durations, op
    times scaled to the reference speed, the reference times and the loop's
    wall time."""
    task = REFERENCE[workload]
    starts, durations, outcomes, ref_at, ref_s = [], [], [], [], []
    clock = time.perf_counter
    loop_start = next_ref = clock()
    for i, op in enumerate(op_list):
        now = clock()
        if now >= next_ref:
            ref_at.append(now)
            ref_s.append(time_reference(task))
            next_ref = clock() + REF_INTERVAL_S
        t0 = clock()
        if tracer:
            tracer.current_op = i
            out = tracer.call(OP_SPAN, execute, workload, op, args[i])
        else:
            out = execute(workload, op, args[i])
        durations.append(clock() - t0)
        starts.append(t0)
        outcomes.append(out)
    loop_s = clock() - loop_start
    return {
        "outcomes": outcomes,
        "loop_s": loop_s,
        "durations": durations,
        "scaled": (np.asarray(durations)
                   * speed_factors(starts, ref_at, ref_s)).tolist(),
        "reference_s": ref_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "run", "replay"))
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans (.npz)")
    a = ap.parse_args(argv)

    import_library()
    op_list = ops.make_ops(a.workload, a.seed, a.count)
    os.makedirs(a.workdir, exist_ok=True)
    args = ops.prepare(a.workload, op_list, a.workdir)
    # set-up is the same imports and input generation in every workload, so
    # it is scaled by the same task everywhere
    result = {"setup_s": time.monotonic() - a.spawned,
              "setup_reference_s": reference_median(loop_task, runs=41)}
    result["reference_target_s"] = REF_S
    if a.mode == "probe":
        with open(a.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    tracer = Tracer() if a.trace else None
    if tracer:
        tracer.install()
    loop = timed_loop(a.workload, op_list, args, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    outcomes = loop.pop("outcomes")

    # a replay only supplies the untraced time and the artifact hashes
    failures, manifest, artifact_bytes = [], [], 0
    for i, out in enumerate(outcomes):
        if a.mode == "run":
            for name, detail, values in check(a.workload, a.seed, i, op_list[i], args[i],
                                              out, a.workdir):
                failures.append({"op": i, "check": name, "detail": detail, "values": values})
        if a.workload == "report-sweep":
            path = ops.artifact_path(a.workdir, i, op_list[i])
            if os.path.exists(path):
                artifact_bytes += os.path.getsize(path)
                manifest.append(oracle.sha256(path))
            else:
                manifest.append(None)

    import mpmath
    import scipy

    result.update(
        versions={"numpy": np.__version__, "scipy": scipy.__version__,
                  "mpmath": mpmath.__version__},
        **loop,
        failures=failures,
        manifest=manifest,
        peak_rss_mb=rss_mb,
    )
    if tracer:
        layers = layer_metrics(tracer)
        layers["cli.artifact_bytes"] = artifact_bytes
        result["layers"] = layers
        tracer.save(a.spans)
    with open(a.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
