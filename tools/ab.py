"""Compare two revisions on the benchmark: alternating runs, medians, wins.

    python3 tools/ab.py REV_A REV_B --seeds 2 3 4 5 6 --seconds 20

runs every workload that B's BENCHMARK.json declares (`--workloads`
picks some), as a change is judged on all of them.

Each revision is exported with `git archive` into a temporary directory,
so both run their own `bench/run.py` and `src/` from the committed files
(uncommitted edits are not measured), and nothing is registered in the
repository.  For every seed and workload the two revisions run
`bench/run.py --trace 0` back to back, A first in even-numbered pairs and
B first in odd ones, so a drift of the host's speed falls on both sides.

Per workload it prints, for every end-to-end metric of B's BENCHMARK.json,
each side's median and quartiles, the median of the per-pair ratios B/A,
the pairs B won (strictly better in the metric's direction; ties count for
neither side) and the spread of A's own runs (IQR/median), then each
seed's attempted and failed op counts and `correct` flags.  Last it runs
each revision's `tools/artifact_hashes.py` (at the defaults, and once more
with `--config FILE` for each --hash-config) and prints the artifacts
whose hashes differ.  The temporary directories are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, dest: str) -> str:
    """Write the files of `rev` under dest; the commit hash it resolved to."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha],
                         check=True, capture_output=True).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True)
    return sha


def bench(tree: str, workload: str, seed: int, seconds: float, out: str) -> dict:
    """The JSON result line of one `bench/run.py` run in `tree`."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0", "--out", out],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {tree} ({workload}, seed {seed}):\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload: str, spec: list[dict], pairs: list[tuple[int, dict, dict]]) -> None:
    print(f"\n{workload}: {len(pairs)} pairs, B/A")
    print(f"  {'metric':12s} {'A median [q1, q3]':>32s} {'B median [q1, q3]':>32s} "
          f"{'ratio':>7s} {'B wins':>7s} {'A IQR':>7s}")
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        a = [ra["metrics"][name]["value"] for _, ra, _ in pairs]
        b = [rb["metrics"][name]["value"] for _, _, rb in pairs]
        qa, qb = quartiles(a), quartiles(b)
        ratios = [y / x if x else float("nan") for x, y in zip(a, b)]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        spread = (qa[2] - qa[0]) / qa[1] if qa[1] else float("nan")
        print(f"  {name:12s} {qa[1]:11.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
              f" {qb[1]:11.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
              f" {statistics.median(ratios):7.4f} {wins:>3d}/{len(pairs):<3d} {spread:7.2%}")
    for seed, ra, rb in pairs:
        print(f"  seed {seed}: attempted {ra['attempted']}/{rb['attempted']}, "
              f"failed {ra['failed']}/{rb['failed']}, correct {ra['correct']}/{rb['correct']}")


def hashes(tree: str, outdir: str, extra: list[str]) -> dict[str, str]:
    """{'command family': sha256} from the tree's tools/artifact_hashes.py."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "tools", "artifact_hashes.py"), outdir, *extra],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")})
    lines = [ln.rsplit(" ", 1) for ln in proc.stdout.splitlines() if ln.strip()]
    return {key: digest for key, digest in lines}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    ap.add_argument("--workloads", nargs="+", default=None,
                    help="default: every workload of B's BENCHMARK.json")
    ap.add_argument("--seeds", nargs="+", type=int, default=[2, 3, 4, 5, 6])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--hash-config", action="append", default=[],
                    help="also compare the artifacts made with --config FILE")
    a = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ghcs-ab-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("A", "B")}
        for side, rev in (("A", a.rev_a), ("B", a.rev_b)):
            print(f"{side}: {rev} = {export(rev, trees[side])}")
        with open(os.path.join(trees["B"], "BENCHMARK.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        spec = doc["end_to_end"]
        workloads = a.workloads or [w["name"] for w in doc["workloads"]]
        out = os.path.join(tmp, "bench_out")
        results: dict[str, list] = {w: [] for w in workloads}
        k = 0
        for seed in a.seeds:
            for workload in workloads:
                order = ("A", "B") if k % 2 == 0 else ("B", "A")
                k += 1
                got = {}
                for side in order:
                    print(f"  {workload} seed {seed} {side}", file=sys.stderr, flush=True)
                    got[side] = bench(trees[side], workload, seed, a.seconds, out)
                results[workload].append((seed, got["A"], got["B"]))
        for workload, pairs in results.items():
            report(workload, spec, pairs)
        for extra in [[]] + [["--config", os.path.abspath(f)] for f in a.hash_config]:
            ha, hb = (hashes(trees[s], os.path.join(tmp, f"art-{s}"), extra) for s in "AB")
            differ = sorted(key for key in ha.keys() | hb.keys() if ha.get(key) != hb.get(key))
            label = " ".join(extra) or "defaults"
            print(f"\nartifacts ({label}): {len(ha)} A, {len(hb)} B, {len(differ)} differ")
            for key in differ:
                print(f"  {key}: {ha.get(key, '-')} -> {hb.get(key, '-')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
