"""Benchmark for the radioleader simulator.

    python3 perfbench/run.py --workload full_density --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is imported from
`src/`.  Each workload runs in its own child process under an address-space
limit, so a run that exhausts memory is counted as failed instead of taking
the machine down.  Set-up time is measured on several extra children that
only import the package and build the inputs.

With --trace 0 the child runs passes over the workload until --seconds have
been used (at least one pass) and the end-to-end metrics are reported.  With
--trace 1 it runs one untraced pass and one traced pass, each operation
once, reports the per-layer split of the traced one, and the difference of
the two wall times as the tracing overhead.

A table with every metric, its unit and sample count is printed first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from speed import burst_scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("full_density", "sparse_search", "cli_sweep")
UNSEEDED = ("full_density",)  # every id is present, so the seed changes nothing
MEMORY_CAP_MB = 3072   # per child; the sparse sender-side cells peak near 1.8 GB
SETUP_PROBES = 9       # set-up-only children, on top of the measured one
RUN_DEADLINE_S = 170   # a whole invocation ends within 180 s


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# child side


def _child_setup(args):
    """Cap memory, import the package and build the inputs."""
    cap = MEMORY_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    os.environ.pop("RADIOLEADER_SEED", None)  # the seed comes from --seed
    sys.path.insert(0, SRC)
    import workloads

    ops = workloads.build_ops(args.workload, args.seed)
    ready = time.monotonic()
    print(f"@ready {ready!r} {burst_scale()!r}", flush=True)
    return workloads, ops


def _emit(line):
    print(line, flush=True)


def _announced_pass(workloads, ops, scratch, repeats, tracer=None):
    _emit(f"@plan {workloads.planned_runs(ops, repeats)}")
    return workloads.run_pass(ops, scratch, tracer, repeats,
                              progress=lambda a, f: _emit(f"@op {a} {f}"))


def child_main(args):
    workloads, ops = _child_setup(args)
    if args.child == "setup":
        return 0
    if args.trace:
        out = _child_traced(workloads, ops, args.scratch, args)
    else:
        out = _child_measured(workloads, ops, args.scratch, args)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _emit("@result " + json.dumps(out, sort_keys=True))
    return 0


def _pass_summary(results):
    digests = {(r.outputs.hexdigest(), r.transcripts.hexdigest()) for r in results}
    outputs, transcripts = sorted(digests)[0]
    return {
        "passes": len(results),
        "wall_s": [r.wall_s for r in results],
        "host_wall_s": [r.host_wall_s for r in results],
        "events": [r.events for r in results],
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "failures": [f for r in results for f in r.failures][:20],
        "latencies_ms": [ms for r in results for ms in r.latencies_ms],
        "outputs": outputs,
        "transcripts": transcripts,
        "passes_agree": len(digests) == 1,
    }


def _child_measured(workloads, ops, scratch, args):
    results, elapsed = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(_announced_pass(workloads, ops, scratch,
                                       workloads.REPEATS[args.workload]))
        elapsed.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(elapsed) > args.seconds:
            break
    return _pass_summary(results)


def _child_traced(workloads, ops, scratch, args):
    import numpy as np
    from spans import Tracer, reconcile

    # One repeat each, so the per-layer counts describe one pass and the
    # overhead compares like with like.
    plain = _announced_pass(workloads, ops, scratch, 1)
    tracer = Tracer()
    traced = _announced_pass(workloads, ops, scratch, 1, tracer)
    out = _pass_summary([plain])
    out["attempted"] += traced.attempted
    out["failed"] += traced.failed
    out["traced_agrees"] = (traced.outputs.hexdigest() == out["outputs"]
                            and traced.transcripts.hexdigest() == out["transcripts"])
    out["layers"] = workloads.layer_metrics(tracer, traced)
    out["traced_wall_s"] = traced.wall_s
    checked, worst = reconcile(tracer, "runtime.run_programs")
    out["reconciled"] = {"run_programs_spans": checked, "worst_s": worst}
    out["spans"] = len(tracer.start)
    np.savez(os.path.join(OUT, f"spans-{args.workload}.npz"),
             names=np.array(tracer.names), name_of=np.frombuffer(tracer.name_of, np.int32),
             parent=np.frombuffer(tracer.parent, np.int32),
             start=np.frombuffer(tracer.start), end=np.frombuffer(tracer.end))
    return out


# ---------------------------------------------------------------------------
# parent side


def _spawn(args, mode, scratch=""):
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("RADIOLEADER_SEED", None)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    return proc, spawned


def _finish(proc, deadline):
    """Wait for the child until the deadline, then kill it; the child has
    always ended when this returns."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        return out, False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        return out, True
    finally:
        if proc.poll() is None:  # interrupted: do not leave the child behind
            proc.kill()
            proc.wait()


def _setup_time(out, spawned):
    """Seconds from spawn to ready, rescaled by the speed the child measured
    right after it was ready."""
    for line in out.splitlines():
        if line.startswith("@ready "):
            _, ready, scale = line.split()
            return (float(ready) - spawned) * float(scale)
    return None


def measure_workload(args):
    """Run the set-up probes and the measured child; returns a summary."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []
    for _ in range(SETUP_PROBES):
        proc, spawned = _spawn(args, "setup")
        out, _ = _finish(proc, deadline)
        setup = _setup_time(out, spawned)
        if setup is not None:
            setups.append(setup)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT)  # CLI output files
    try:
        proc, spawned = _spawn(args, "measure", scratch)
        child_t0 = time.monotonic()
        out, timed_out = _finish(proc, deadline)
        child_s = time.monotonic() - child_t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setup = _setup_time(out, spawned)
    if setup is not None:
        setups.append(setup)

    summary = None
    planned, done, done_failed = 0, 0, 0
    for line in out.splitlines():
        if line.startswith("@plan "):
            planned += int(line.split()[1])
        elif line.startswith("@op "):
            _, a, f = line.split()
            done += int(a)
            done_failed += int(f)
        elif line.startswith("@result "):
            summary = json.loads(line[len("@result "):])
    if summary is None:
        # The child died (memory limit, signal) or ran out of time: every
        # run it did not finish counts as failed.
        why = "timed out" if timed_out else f"exited with {proc.returncode}"
        attempted = max(planned, done, 1)
        summary = {
            "passes": 0, "wall_s": [child_s], "host_wall_s": [child_s], "events": [0],
            "attempted": attempted, "failed": done_failed + attempted - done,
            "failures": [f"child {why}"], "latencies_ms": [],
            "outputs": None, "transcripts": None, "passes_agree": False,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
    summary["setup_s"] = setups
    return summary


def _recorded(workload, seed):
    try:
        with open(DIGESTS) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get("*" if workload in UNSEEDED else str(seed))


def _load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end_values(summary):
    """(value, sample count) of every end-to-end metric."""
    walls = summary["wall_s"]
    rates = [e / w if w else 0.0 for e, w in zip(summary["events"], walls)]
    values = {
        "setup_s": statistics.median(summary["setup_s"]) if summary["setup_s"] else 0.0,
        "wall_s": statistics.median(walls),
        "events_per_s": statistics.median(rates),
        "peak_rss_mb": summary["peak_rss_mb"],
    }
    counts = {"setup_s": len(summary["setup_s"]), "wall_s": len(walls),
              "events_per_s": len(rates), "peak_rss_mb": 1}
    return values, counts


def report(args, summary, bench):
    """Print the table and return the result object for the JSON line."""
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"passes {summary['passes']}"]
    correct = summary["failed"] == 0 and summary["passes_agree"]

    record = _recorded(args.workload, args.seed)
    outputs, transcripts = summary["outputs"], summary["transcripts"]
    if outputs is None:
        lines.append("output digest: none (child did not finish)")
    elif record is None:
        lines.append(f"output digest {outputs}  (no recorded digest for this seed)")
        lines.append(f"transcript-hash digest {transcripts}")
    else:
        same = record["outputs"] == outputs
        correct = correct and same
        lines.append(f"output digest {outputs}  "
                     + ("matches the record" if same else "MISMATCH with the record"))
        drift = record["transcripts"] != transcripts
        lines.append(f"transcript-hash digest {transcripts}  "
                     + ("DRIFT from the record (not a failure)" if drift
                        else "matches the record"))
    if not summary["passes_agree"]:
        lines.append("passes produced different digests")
    attempted, failed = summary["attempted"], summary["failed"]
    lines.append(f"failed_ratio {failed}/{attempted} = {failed / attempted:.6f}")
    for why in summary["failures"]:
        lines.append(f"  failed: {why}")

    if args.trace:
        specs = bench["per_layer"]
        values = dict(summary.get("layers", {}))
        traced = summary.get("traced_wall_s", 0.0)
        values["trace.overhead_s"] = traced - summary["wall_s"][0]
        correct = correct and summary.get("traced_agrees", False)
        lines.append(f"traced wall_s {traced:.4f}  untraced wall_s "
                     f"{summary['wall_s'][0]:.4f}  tracing overhead "
                     f"{values['trace.overhead_s']:.4f} s over {summary.get('spans', 0)} spans")
        rec = summary.get("reconciled", {})
        lines.append(f"run_programs spans reconciled: {rec.get('run_programs_spans', 0)}, "
                     f"worst child-outside-parent {rec.get('worst_s', 0.0):.2e} s")
        lines.append("traced digest " + ("equals" if summary.get("traced_agrees")
                                          else "DIFFERS FROM") + " the untraced one")
        counts = {m["name"]: 1 for m in specs}
    else:
        specs = bench["end_to_end"]
        values, counts = end_to_end_values(summary)
        lines.append("host seconds of the timed operations, unscaled: "
                     + ", ".join(f"{w:.4f}" for w in summary["host_wall_s"]))
        lat = summary["latencies_ms"]
        if len(lat) >= 1000:
            lines.append(f"run_p50_ms {percentile(lat, 50):.4f} ms  "
                         f"run_p99_ms {percentile(lat, 99):.4f} ms  (n={len(lat)} runs)")
        else:
            lines.append(f"run latency percentiles not reported: {len(lat)} runs < 1000")

    lines.append(f"{'metric':44s} {'value':>16s} {'unit':>8s} {'samples':>8s}")
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        value = values.get(name, 0.0)  # absent only when the child died
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:44s} {value:16.6f} {unit:>8s} {counts.get(name, 1):8d}")
    print("\n".join(lines), flush=True)
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "measure"), default=None,
                   help=argparse.SUPPRESS)
    p.add_argument("--scratch", default="", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    # turn SIGTERM into SystemExit so a running child is killed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "radioleader", "__init__.py")):
        print(f"error: no radioleader sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    try:
        bench = _load_benchmark()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        results[name] = report(args, measure_workload(args), bench)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
