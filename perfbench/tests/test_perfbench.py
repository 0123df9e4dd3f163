"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import radioleader  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _attributes():
    """Identity snapshot of every name the wrappers may replace."""
    snap = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "radioleader" or name.startswith("radioleader.")):
            for key, value in vars(mod).items():
                snap[(name, key)] = value
    for short, cls in workloads.program_classes():
        snap[(cls.__qualname__, "run")] = vars(cls)["run"]
    for attr in ("hash64", "serialize"):
        snap[("Transcript", attr)] = vars(radioleader.runtime.Transcript)[attr]
    return snap


def _digests(result):
    return result.outputs.hexdigest(), result.transcripts.hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_pass_is_stable_and_tracing_leaves_no_trace(workload, tmp_path):
    ops = workloads.build_ops(workload, seed=3, small=True)
    before = _attributes()
    first = workloads.run_pass(ops, str(tmp_path))
    second = workloads.run_pass(ops, str(tmp_path), repeats=2)
    tracer = spans.Tracer()
    traced = workloads.run_pass(ops, str(tmp_path), tracer)
    after = _attributes()

    assert first.failed == 0, first.failures
    assert first.attempted == workloads.planned_runs(ops)
    assert _digests(first) == _digests(second) == _digests(traced)
    assert second.attempted == 2 * first.attempted
    assert second.events == first.events == traced.events
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert tracer.summary()["runtime.run_programs"]["calls"] > 0


def test_inputs_follow_the_seed():
    assert workloads.build_ops("sparse_search", 1) == workloads.build_ops("sparse_search", 1)
    assert workloads.build_ops("sparse_search", 1) != workloads.build_ops("sparse_search", 2)
    argv = workloads.build_ops("cli_sweep", 7, small=True)[0].argv
    assert argv[-2:] == ("--seed", "7")


def test_every_copy_of_a_name_is_wrapped():
    original = radioleader.runtime.run_programs
    tracer = spans.Tracer()
    patches = spans.Patches()
    try:
        copies = patches.function(radioleader.runtime, "run_programs",
                                  spans.span_wrapper(tracer, "runtime.run_programs"))
        # runtime, protocols_core, dense, tradeoff and the package itself
        assert copies == 5
        assert radioleader.tradeoff.run_programs is radioleader.runtime.run_programs
        radioleader.census(1, 8, [2, 5, 7])  # dense's copy
    finally:
        patches.restore()
    for module in (radioleader, radioleader.protocols_core, radioleader.dense,
                   radioleader.tradeoff, radioleader.runtime):
        assert module.run_programs is original
    assert tracer.summary()["runtime.run_programs"]["calls"] == 1


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    root = tracer.open(tracer.name_id("root"))
    a = tracer.open(tracer.name_id("a"))
    c = tracer.open(tracer.name_id("c"))
    tracer.close(c)
    tracer.close(a)
    b = tracer.open(tracer.name_id("a"))
    tracer.close(b)
    tracer.close(root)

    assert list(tracer.parent) == [-1, root, a, root]
    assert spans.self_times(tracer.parent, tracer.start, tracer.end) == [3.0, 2.0, 1.0, 4.0]
    summary = tracer.summary()
    assert summary["a"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert summary["root"]["self_s"] + summary["a"]["total_s"] == 10.0
    assert spans.reconcile(tracer, "root") == (1, 0.0)
    tracer.end[b] = 11.0  # a child ending after its parent is reported
    assert spans.reconcile(tracer, "root") == (1, 1.0)


def test_step_proxy_times_each_resumption():
    def program():
        fb = yield 1
        yield fb + 1

    tracer = spans.Tracer()
    proxy = spans.StepProxy(program(), tracer, tracer.name_id("step"))
    assert next(proxy) == 1
    assert proxy.send(5) == 6
    with pytest.raises(StopIteration):
        proxy.send(None)
    assert tracer.summary()["step"]["calls"] == 3


def test_raising_run_counts_as_failed(monkeypatch, tmp_path):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(radioleader.protocols_core, "pairing_election", out_of_memory)
    result = workloads.run_pass(workloads.build_ops("full_density", 0, small=True),
                                str(tmp_path))
    assert (result.attempted, result.failed) == (3, 1)
    assert "MemoryError" in result.failures[0]


def test_guarantees_flag_an_energy_ceiling_miss():
    report = radioleader.pairing_election([1, 2, 3], 4)
    assert workloads.guarantee_failure("pairing", {}, report) is None
    report.ledger.counts[1] = 99
    assert "ceiling" in workloads.guarantee_failure("pairing", {}, report)


def test_metric_names_match_benchmark_json(spec, tmp_path):
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64
    names = tuple(w["name"] for w in spec["workloads"])
    assert names == run.WORKLOADS == workloads.WORKLOADS

    summary = {"setup_s": [0.2, 0.3], "wall_s": [1.0], "events": [10],
               "peak_rss_mb": 50.0}
    values, counts = run.end_to_end_values(summary)
    assert set(values) == set(counts) == set(end_to_end)

    tracer = spans.Tracer()
    ops = workloads.build_ops("cli_sweep", 0, small=True)
    result = workloads.run_pass(ops, str(tmp_path), tracer)
    layers = workloads.layer_metrics(tracer, result)
    assert set(layers) | {"trace.overhead_s"} == set(per_layer)
    for name in ("cli.rows", "partitions.verify_family.subsets",
                 "lowerbound.program_replays", "tradeoff.step.resumes"):
        assert layers[name] > 0, name


def test_printed_result_names(spec, capsys):
    args = run.parse_args(["--workload", "cli_sweep", "--seed", "4"])
    summary = {"passes": 1, "wall_s": [1.0], "host_wall_s": [1.2], "events": [10], "attempted": 2,
               "failed": 0, "failures": [], "latencies_ms": [1.0, 2.0],
               "outputs": "x", "transcripts": "y", "passes_agree": True,
               "peak_rss_mb": 50.0, "setup_s": [0.2]}
    result = run.report(args, summary, spec)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    printed = capsys.readouterr().out
    assert "failed_ratio 0/2" in printed


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
