"""Tests of the benchmark itself: inputs, tracing, checks and the result line.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import known  # noqa: E402
import oracle  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import OP_SPAN, Tracer, layer_metrics  # noqa: E402


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_op_list_is_a_pure_function_of_the_seed(workload):
    first = ops.make_ops(workload, 11, 150)
    assert first == ops.make_ops(workload, 11, 150)
    assert first[:40] == ops.make_ops(workload, 11, 40)
    assert first != ops.make_ops(workload, 12, 150)
    for op in first:
        assert op["m"] in (0, 1, 2, 3)
        assert 0.1 <= op["nu"] <= 2.5 and round(op["nu"], 3) == op["nu"]


def test_draws_reach_the_edges_of_their_ranges():
    xs = [op["x"] for op in ops.make_ops("moment-scan", 5, 64) if op["family"] == "jacobi"]
    assert max(xs) > 0.999 and min(xs) < 1 - 10 ** -0.2
    radii = {f: [] for f in ops.FAMILIES}
    for op in ops.make_ops("label-batch", 5, 32):
        radii[op["family"]] += [abs(complex(*z)) for z in op["labels"]]
    assert max(radii["jacobi"]) > 0.98 and min(radii["jacobi"]) < 0.3
    assert max(radii["bessel"]) > 19.0 and min(radii["bessel"]) < 1.0
    cmds = {(op["family"], op["cmd"]) for op in ops.make_ops("report-sweep", 5, 52)}
    assert ("jacobi", "evolve") not in cmds and ("bessel", "evolve") in cmds


def _traced_loop(workload, op_list, args):
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        for i, op in enumerate(op_list):
            tracer.current_op = i
            out = tracer.call(OP_SPAN, ops.execute, workload, op, args[i])
            assert out.error is None, out.error
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, wall


def test_self_times_sum_to_the_traced_op_wall_time(tmp_path):
    import ghcs.kernel
    import ghcs.states

    original = ghcs.kernel.overlap
    cases = [
        ("label-batch", [op for op in ops.make_ops("label-batch", 2, 32)
                         if op["family"] == "bessel"][:2]),
        ("moment-scan", ops.make_ops("moment-scan", 2, 6)),
        ("report-sweep", [op for op in ops.make_ops("report-sweep", 2, 13)
                          if op["cmd"] in ("thermal", "expect")]),
    ]
    for workload, op_list in cases:
        tracer, wall = _traced_loop(workload, op_list,
                                    ops.prepare(workload, op_list, str(tmp_path)))
        a = tracer.arrays()
        is_op = a["name"] == tracer.names.index(OP_SPAN)
        op_total = float((a["end"] - a["start"])[is_op].sum())
        assert tracer.self_times().sum() == pytest.approx(op_total, rel=1e-9)
        assert op_total <= wall
        assert (tracer.self_times() >= -1e-9).all()
    # spans nest: states.state runs under states.overlap, reached through the
    # name kernel imported directly; the wrappers come off afterwards
    assert ghcs.kernel.overlap is original is ghcs.states.overlap
    layers = layer_metrics(tracer)
    assert layers["cli.main.calls"] == len(cases[2][1])
    assert layers["thermal.number_moment.calls"] > 0


def test_nested_library_calls_become_child_spans():
    op_list = [op for op in ops.make_ops("label-batch", 3, 32) if op["family"] == "bessel"][:1]
    tracer, _ = _traced_loop("label-batch", op_list, ops.prepare("label-batch", op_list, ""))
    a = tracer.arrays()
    name = [tracer.names[i] for i in a["name"]]
    parents = {(name[p] if p >= 0 else None, name[i]) for i, p in enumerate(a["parent"])}
    assert (OP_SPAN, "kernel.gram_matrix") in parents
    assert ("kernel.kernel", "states.overlap") in parents
    assert ("states.overlap", "states.state") in parents
    assert ("dynamics.density_evolved", "dynamics.density_static") in parents
    assert ("dynamics.density_static", "specfun.hyp_0f1") in parents
    layers = layer_metrics(tracer)
    assert layers["kernel.gram_matrix.entries"] == 16 * 17 // 2
    assert 0 < layers["states.state.distinct_ratio"] < 1


def test_a_perturbed_artifact_value_is_caught_and_counted(tmp_path):
    seed = 4
    op_list = ops.make_ops("report-sweep", seed, 7)
    i = next(k for k, op in enumerate(op_list) if op["cmd"] == "expect")
    args = ops.prepare("report-sweep", op_list, str(tmp_path))
    out = ops.execute("report-sweep", op_list[i], args[i])
    assert out.error is None
    res = {"durations": [0.0] * len(op_list), "failures": []}
    assert worker.check("report-sweep", seed, i, op_list[i], args[i], out, str(tmp_path)) == []

    # scale one sampled <N> value by 1 + 1e-6
    path = ops.artifact_path(str(tmp_path), i, op_list[i])
    rows = oracle.read_csv(path)
    row = oracle._sample(np.random.default_rng([seed, i, 7]), len(rows), oracle.SAMPLES["expect"])[0]
    lines = open(path, encoding="utf-8").read().splitlines(keepends=True)
    first_data = next(k for k, ln in enumerate(lines) if not ln.startswith("#")) + 1
    fields = lines[first_data + row].split(",")
    fields[1] = f"{float(fields[1]) * (1 + 1e-6):.16e}"
    lines[first_data + row] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)

    fails = worker.check("report-sweep", seed, i, op_list[i], args[i], out, str(tmp_path))
    assert [name for name, _, _ in fails] == ["expect"]
    res["failures"] = [{"op": i, "check": n, "detail": d, "values": v} for n, d, v in fails]
    ledger, failed, unexpected = run.tally("report-sweep", seed, res)
    assert failed == 1 and unexpected == 1
    assert ledger[0]["inputs"] == op_list[i] and ledger[0]["known_defect"] == "unexpected"


def test_known_defects_are_attributed_not_hidden():
    op_list = ops.make_ops("moment-scan", 1, 64)
    near_one = next(k for k, op in enumerate(op_list)
                    if op["family"] == "jacobi" and op["x"] > 0.999)
    bessel = next(k for k, op in enumerate(op_list) if op["family"] == "bessel")
    detail = "ConvergenceError: number_moment series did not converge"
    res = {"durations": [0.0] * 64,
           "failures": [{"op": k, "check": "exception", "detail": detail, "values": {}}
                        for k in (near_one, bessel)]}
    ledger, failed, unexpected = run.tally("moment-scan", 1, res)
    assert failed == 2 and unexpected == 1
    kinds = {row["op"]: row["known_defect"] for row in ledger}
    assert kinds == {near_one: "jacobi-number-moment-budget", bessel: "unexpected"}


def _gram_op(seed=6):
    """The first jacobi label-batch op at this seed, its labels and its outcome."""
    op = next(op for op in ops.make_ops("label-batch", seed, 32) if op["family"] == "jacobi")
    labels = ops.prepare("label-batch", [op], "")[0]
    value = ops.execute("label-batch", op, labels).value
    return op, labels, value


def _classes(workload, op, fails):
    return [known.classify(workload, op, n, v, d) for n, d, v in fails]


def test_known_defects_are_bounded_by_size_and_region():
    op, labels, (gram, eig, rows) = _gram_op()
    top = max(range(len(labels)), key=lambda i: abs(labels[i]))
    assert abs(labels[top]) > known.JACOBI_LONG_RADIUS
    # the seed code's own errors in the top row are the truncation defect
    fails = oracle.check_gram(op, labels, (gram, eig, rows), np.random.default_rng(0))
    assert fails and set(_classes("label-batch", op, fails)) == {"overlap-shorter-truncation"}

    # the same entries wrong by more than the truncation can make them are not
    bad = gram.copy()
    j = (top + 1) % len(labels)
    bad[top, j] += 10 * known.TRUNCATION_BOUND
    bad[j, top] = np.conj(bad[top, j])
    fails = oracle.check_gram(op, labels, (bad, eig, rows), np.random.default_rng(0))
    assert None in _classes("label-batch", op, fails)

    # nor is any error between labels that both get the shortest truncation,
    # and checking goes on past the failures in the top row
    k = len(labels)
    rest = [(i, j) for i in range(k) for j in range(i + 1, k) if top not in (i, j)]
    short = {i for i in range(k) if abs(labels[i]) < known.JACOBI_LONG_RADIUS}
    for rng_seed in range(100):
        sampled = [rest[p] for p in oracle._sample(np.random.default_rng(rng_seed), len(rest),
                                                    oracle.SAMPLES["gram"])]
        clean = [(i, j) for i, j in sampled if {i, j} <= short]
        if clean:
            break
    i, j = clean[0]
    bad = gram.copy()
    bad[i, j] += 1e-9
    bad[j, i] = np.conj(bad[i, j])
    fails = oracle.check_gram(op, labels, (bad, eig, rows), np.random.default_rng(rng_seed))
    entry = [f for f in fails if f"entry ({i},{j})" in f[1]]
    assert len(entry) == 1 and len(fails) > 1
    assert _classes("label-batch", op, entry) == [None]

    # idempotence: only jacobi m = 0 near nu = 0.5, only up to 2e-6
    jac = {"family": "jacobi", "m": 0, "nu": 0.47}
    assert known.classify("report-sweep", jac, "idempotence", {"residual": 1.3e-6}, "")
    assert not known.classify("report-sweep", jac, "idempotence", {"residual": 1e-4}, "")
    assert not known.classify("report-sweep", {**jac, "m": 1}, "idempotence",
                              {"residual": 1.3e-6}, "")
    assert not known.classify("report-sweep", jac, "hermiticity", {"residual": 1e-11}, "")

    # density: only where the cancellation factor explains the error
    bes = {"family": "bessel", "m": 1, "nu": 1.0}
    assert known.classify("label-batch", bes, "density_static",
                          {"rel_error": 1e-7, "cancellation": 1e10}, "")
    assert not known.classify("label-batch", bes, "density_static",
                              {"rel_error": 1e-7, "cancellation": 1e3}, "")


def test_a_failed_verify_is_attributed_by_its_report(tmp_path):
    path = tmp_path / "verify.json"
    kernel = {"passed": False, "hermiticity_worst": 1e-14, "diagonal_worst": 0.0,
              "idempotence_worst": 1.3e-6, "gram_min_eigenvalue": 0.1}
    report = {"results": {
        "failed_checks": ["kernel"],
        "checks": {
            "identity_moments": {"passed": True, "worst_rel_error": 1e-12, "tol": 1e-8,
                                 "diagnosis": None},
            "kernel": kernel,
            "quantization": {"passed": True, "report": {"symbols": {
                "n": {"max_rel_quadrature_vs_h_ratio": 1e-12}}}},
            "thermal": {"passed": True, "finite_difference_rel_error": 1e-9},
        },
    }}
    path.write_text(json.dumps(report))
    op = {"cmd": "verify", "family": "jacobi", "m": 0, "nu": 0.47}
    fails = oracle.check_failed_verify(str(path), "exit 1: FAIL: kernel")
    assert [n for n, _, _ in fails] == ["idempotence"]
    assert _classes("report-sweep", op, fails) == ["jacobi-rule-idempotence"]

    # a failure the report does not reproduce is an unexpected exit
    kernel["idempotence_worst"] = 1e-9
    path.write_text(json.dumps(report))
    fails = oracle.check_failed_verify(str(path), "exit 1: FAIL: kernel")
    assert [n for n, _, _ in fails] == ["exit"]
    assert _classes("report-sweep", op, fails) == [None]


def test_scaling_keeps_a_real_slowdown():
    """Ops that do twice the work give half the scaled ops per second."""
    op_list = [op for op in ops.make_ops("label-batch", 8, 64) if op["family"] == "bessel"][:16]
    args = ops.prepare("label-batch", op_list, "")
    worker.timed_loop("label-batch", op_list, args, None)  # first calls fill caches

    def twice(workload, op, arg):
        ops.execute(workload, op, arg)
        return ops.execute(workload, op, arg)

    rates = {}
    for name, execute in (("once", ops.execute), ("twice", twice), ("again", ops.execute)):
        loop = worker.timed_loop("label-batch", op_list, args, None, execute=execute)
        rates[name] = len(op_list) / sum(loop["scaled"])
    base = (rates["once"] + rates["again"]) / 2
    assert rates["twice"] / base == pytest.approx(0.5, rel=0.3)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_a_run_is_a_fixed_number_of_whole_blocks(workload):
    block = ops.BLOCK[workload]
    for seconds in (0.01, 1, 20, 60):
        count = ops.op_count(workload, seconds)
        assert count >= block and count % block == 0
        assert abs(count - seconds * ops.NOMINAL_RATE[workload]) <= block / 2 or count == block


def test_the_command_prints_a_result_line_last(tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    argv = ["--workload", "moment-scan", "--seed", "3", "--seconds", "0.5", "--trace", "0",
            "--out", str(tmp_path)]
    lines = []
    for _ in range(2):
        assert run.main(argv) == 0
        lines.append(json.loads(capfd.readouterr().out.strip().splitlines()[-1]))
    line = lines[0]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == ops.op_count("moment-scan", 0.5)
    # the same seed runs the same ops and fails the same ones (near x = 1)
    assert line["failed"] > 0
    assert (lines[1]["attempted"], lines[1]["failed"]) == (line["attempted"], line["failed"])
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert (tmp_path / "moment-scan-seed3-trace0.ledger.jsonl").exists()
