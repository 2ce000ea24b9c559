"""Benchmark for ghcs: three seeded closed-loop workloads, outputs checked.

    python3 bench/run.py --workload report-sweep --seed 1 --seconds 20 --trace 0

Workloads (one client, one process, the next op starts when the last one
returns; BLAS/OpenMP pools pinned to one thread):

  report-sweep  one `ghcs.cli.main` call per op over seeded (family, m, nu)
                configs: verify, kernel, quantize, expect, thermal, evolve
                (bessel only) and weight on a seeded grid
  label-batch   `kernel.gram_matrix` on 16 seeded labels plus eigvalsh; for
                bessel also a `dynamics.polar_density_rows` grid
  moment-scan   `thermal.number_moment` (s = 1, 2) and `g2_in_state` at one
                seeded (params, x)

--trace 0 reports the end-to-end metrics of BENCHMARK.json: set-up time
(median of several fresh processes), ops per second, latency percentiles,
the share of ops that passed every check, and peak RSS.  A run is a fixed
number of ops, the whole blocks (ops.BLOCK) nearest to --seconds at a nominal
rate per workload (ops.op_count), so one seed always gives the same ops and
the same failed ops.  Times are scaled to a
reference speed measured inside the same process (see worker.py), because
a shared host's speed can drift by a third within seconds; the unscaled
figures are kept in the report file.  --trace 1 runs the same ops with spans around
every public library function and reports the per-layer metrics, then
replays those ops untraced for the tracing overhead.

Every op is checked after the timed loop (see oracle.py).  A failed op is
written to the ledger with its inputs, the check that failed and the error
it measured, and is attributed to a known defect of the library (known.py)
or marked unexpected; an unexpected failure, or report-sweep artifacts that
differ between two runs of the same ops, makes the result incorrect.
Reports, ledgers and spans go to --out (default .bench_out/).  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from known import classify  # noqa: E402
from ops import BLOCK, WORKLOADS, make_ops, op_count  # noqa: E402

WORKER = os.path.join(BENCH, "worker.py")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 6  # extra fresh processes timed for setup_s
DEADLINE_S = 170.0
THREAD_PINS = {
    name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _environment(versions: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_pins": THREAD_PINS,
    }


class Runner:
    def __init__(self, workload: str, seed: int, out: str) -> None:
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = os.path.join(out, f"work-{workload}-{seed}-{os.getpid()}")
        self.env = {**os.environ, **THREAD_PINS}
        self.spans = os.path.join(out, f"{workload}-seed{seed}-trace1.spans.npz")
        self.n = 0

    def child(self, mode: str, trace: int = 0, count: int = 0) -> dict:
        """Run one worker process to completion and return its result."""
        self.n += 1
        workdir = os.path.join(self.work, f"p{self.n}")
        result = os.path.join(self.work, f"p{self.n}.json")
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode,
               "--count", str(count), "--trace", str(trace),
               "--workdir", workdir, "--result", result,
               "--spans", self.spans]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before starting a worker")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=self.env,
                                  stdout=sys.stderr, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker exceeded the {DEADLINE_S:g} s budget") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)


def tally(workload: str, seed: int, res: dict) -> tuple[list[dict], int, int]:
    """(ledger rows, failed ops, unexpected failures) of one worker result."""
    op_list = make_ops(workload, seed, len(res["durations"]))
    ledger = []
    for f in res["failures"]:
        op = op_list[f["op"]]
        ledger.append({"workload": workload, "op": f["op"], "inputs": op, "check": f["check"],
                       "error": f["detail"], "values": f["values"],
                       "known_defect": classify(workload, op, f["check"], f["values"],
                                                f["detail"]) or "unexpected"})
    failed = len({row["op"] for row in ledger})
    unexpected = sum(row["known_defect"] == "unexpected" for row in ledger)
    return ledger, failed, unexpected


def _determinism(first: dict, second: dict) -> dict:
    a, b = first["manifest"], second["manifest"]
    n = min(len(a), len(b))
    bad = [i for i in range(n) if a[i] != b[i]]
    return {"compared": n, "mismatched_ops": bad}


def _scaled_setup(res: dict) -> float:
    """Set-up time at reference speed, from the reference task run right after it."""
    return res["setup_s"] * res["reference_target_s"] / res["setup_reference_s"]


def _percentiles(d: list[float]) -> tuple[float, float]:
    if len(d) == 1:
        return d[0], d[0]
    dec = statistics.quantiles(d, n=10, method="inclusive")
    return statistics.median(d), dec[8]


def measure(workload: str, seed: int, seconds: float, trace: int, out: str):
    """(result line, report) for one benchmark run."""
    spec = _spec()
    runner = Runner(workload, seed, out)
    count = op_count(workload, seconds)
    os.makedirs(runner.work, exist_ok=True)
    try:
        if trace:
            main = runner.child("run", trace=1, count=count)
            base = runner.child("replay", count=count)
        else:
            setups = [_scaled_setup(runner.child("probe", count=count))
                      for _ in range(SETUP_PROBES)]
            main = runner.child("run", count=count)
            setups.append(_scaled_setup(main))
            base = None
            if workload == "report-sweep":
                # the first block's artifacts, made again in a fresh process
                base = runner.child("replay", count=BLOCK[workload])
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    durations = main["durations"]
    attempted = len(durations)
    if attempted == 0:
        raise BenchError("no op completed")
    ledger, failed, unexpected = tally(workload, seed, main)
    determinism = None
    if base is not None and workload == "report-sweep":
        determinism = _determinism(main, base)
    correct = not unexpected and not (determinism and determinism["mismatched_ops"])

    scaled = main["scaled"]
    p50, p90 = _percentiles(scaled)
    if trace:
        layers = dict(main["layers"])
        layers["trace.overhead_ratio"] = sum(scaled) / sum(base["scaled"])
        wanted = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": attempted / sum(scaled),
            "op_p50_s": p50,
            "op_p90_s": p90,
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": main["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": _environment(main["versions"]),
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "latency_samples": attempted, "beyond_p90": sum(d > p90 for d in scaled),
        "loop_s": main["loop_s"], "op_wall_s": sum(durations), "op_scaled_s": sum(scaled),
        "unscaled": {"ops_per_s": attempted / sum(durations),
                     "op_p50_s": _percentiles(durations)[0],
                     "op_p90_s": _percentiles(durations)[1]},
        "reference_s": main["reference_s"], "reference_target_s": main["reference_target_s"],
        "determinism": determinism,
        "replay_op_wall_s": sum(base["durations"]) if base else None,
        "replay_op_scaled_s": sum(base["scaled"]) if base else None,
        "setup_samples_s": None if trace else setups,
        "metrics": metrics, "ledger": ledger,
    }
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, report


def _print_report(report: dict) -> None:
    env = report["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"{report['attempted']} ops in {report['loop_s']:.2f} s  trace={report['trace']}")
    ref = statistics.median(report["reference_s"])
    print(f"  reference task median {ref * 1e3:.3f} ms; op times below are scaled to "
          f"{report['reference_target_s'] * 1e3:.3f} ms (unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, v in report["unscaled"].items()) + ")")
    n, beyond = report["latency_samples"], report["beyond_p90"]
    for name, m in report["metrics"].items():
        note = ""
        if name in ("op_p50_s", "op_p90_s"):
            note = f"  (n={n}, {beyond} beyond p90)"
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':44s} {report['fail_ratio']:.6g} 1  "
          f"({report['failed']}/{report['attempted']} ops; gated as ok_ratio)")
    classes: dict[str, int] = {}
    for row in report["ledger"]:
        classes[row["known_defect"]] = classes.get(row["known_defect"], 0) + 1
    for name, count in sorted(classes.items()):
        print(f"  failed check, {name}: {count}")
    if report["determinism"] is not None:
        d = report["determinism"]
        print(f"  determinism: {d['compared']} artifacts compared, "
              f"{len(d['mismatched_ops'])} differ")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=OUT, help="directory for reports, ledgers and spans")
    a = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ghcs", "__init__.py")):
        print(f"error: no ghcs sources under {ROOT}/src", file=sys.stderr)
        return 2
    if a.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(a.out, exist_ok=True)
    try:
        line, report = measure(a.workload, a.seed, a.seconds, a.trace, a.out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stem = os.path.join(a.out, f"{a.workload}-seed{a.seed}-trace{a.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    with open(stem + ".ledger.jsonl", "w", encoding="utf-8") as fh:
        for row in report["ledger"]:
            fh.write(json.dumps(row) + "\n")
    _print_report(report)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    # exit through Python so a running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
