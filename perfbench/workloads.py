"""The benchmark's workloads: inputs from a seed, one measured pass, output
checks and digests, and the traced per-layer split.

Each workload is a fixed list of operations run back to back in one
single-threaded process (a closed loop: an operation starts when the
previous one ends).  An operation is one protocol-driver call for
`full_density` and `sparse_search`, and one in-process `radioleader.cli.main`
invocation for `cli_sweep`.  Only those calls are timed; checking outputs
and digesting them happens between calls, outside the timed region.

The package is driven from outside through its public calls.  Per-run host
latency comes from wrappers installed on every copy of each protocol driver,
so runs made inside `cli.main` are timed and checked too.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from radioleader import channel, cli, dense, lowerbound, partitions
from radioleader import protocols_core, runtime, tradeoff
from radioleader.channel import CdModel
from radioleader.protocols_core import ceil_div, ceil_log2

from speed import SpeedSampler
from spans import (
    Patches,
    Tracer,
    counting_wrapper,
    span_wrapper,
    step_wrapper,
)

WORKLOADS = ("full_density", "sparse_search", "cli_sweep")

# protocol name -> (module, driver function), as the CLI names protocols
DRIVERS = {
    "pairing": (protocols_core, "pairing_election"),
    "binary_search": (protocols_core, "binary_search_election"),
    "halving": (protocols_core, "halving_tradeoff_election"),
    "tradeoff": (tradeoff, "partition_tradeoff_election"),
    "dense_simple": (dense, "dense_simple_election"),
    "dense_improved": (dense, "dense_improved_election"),
    "exponential": (dense, "exponential_search_election"),
}


@dataclass(frozen=True)
class Run:
    """One protocol-driver call on a fixed device set."""

    protocol: str
    model: CdModel
    N: int
    ids: Tuple[int, ...]

    def __call__(self):
        module, name = DRIVERS[self.protocol]
        return getattr(module, name)(self.ids, self.N, model=self.model)


@dataclass(frozen=True)
class CliCall:
    """One in-process `radioleader.cli.main` invocation; `runs` is the number
    of elections it makes (a checker battery counts as one operation)."""

    argv: Tuple[str, ...]
    runs: int


def full_density_ops(seed: int, small: bool = False) -> List[Run]:
    # Every id is present, so the seed does not change the inputs.
    N = 1 << 8 if small else 1 << 16
    ids = tuple(range(1, N + 1))
    return [
        Run("exponential", CdModel.NO_CD, N, ids),
        Run("pairing", CdModel.NO_CD, N, ids),
        Run("binary_search", CdModel.RECEIVER_CD, N, ids),
    ]


def sparse_search_ops(seed: int, small: bool = False) -> List[Run]:
    """Exponential search at densities 2^-4 and 2^-8 on seeded device sets.

    The sender-side models (strong_cd, sender_cd) run only at 2^-8.  At
    2^-4 their first attempt (b = 16, N/16 blocks for N/16 devices) fails
    unless block 1 is empty, and the second attempt uses b = the whole id
    space, where every device holds its own O(b) census merge list: about
    13 GB at N = 2^16.  See README.md, known defects."""
    rng = random.Random(seed)
    ops = []
    for N in ((1 << 10, 1 << 12) if small else (1 << 14, 1 << 16)):
        for shift in (4, 8):
            ids = tuple(sorted(rng.sample(range(1, N + 1), N >> shift)))
            for model in CdModel:
                if model.sender_side and shift == 4:
                    continue
                ops.append(Run("exponential", model, N, ids))
    return ops


def cli_sweep_ops(seed: int, small: bool = False) -> List[CliCall]:
    if small:
        lines = [
            "--protocol pairing --N 5 --subsets all",
            "--protocol binary_search --N 5 --subsets all",
            "--protocol halving --N 5 --k 2 --subsets all",
            "--protocol exponential --N 5 --subsets all",
            "--protocol exponential --N 5 --subsets all --model sender_cd",
            "--protocol dense_improved --N 64 --n 16 --trials 10",
            "--protocol dense_simple --N 64 --n 16 --trials 10",
            "--protocol tradeoff --N 64 --n 2 --k 4 --epsilon 0.5 --trials 20",
            "--protocol pairing --N 16 --checks",
        ]
    else:
        lines = [
            "--protocol pairing --N 11 --subsets all",
            "--protocol binary_search --N 11 --subsets all",
            "--protocol halving --N 11 --k 2 --subsets all",
            "--protocol exponential --N 11 --subsets all",
            "--protocol exponential --N 11 --subsets all --model sender_cd",
            "--protocol dense_improved --N 256 --n 64 --trials 200",
            "--protocol dense_simple --N 256 --n 64 --trials 200",
            "--protocol tradeoff --N 4096 --n 8 --k 4 --epsilon 0.5 --trials 500",
            "--protocol pairing --N 4096 --checks",
        ]
    parser = cli.build_parser()
    ops = []
    for line in lines:
        argv = tuple(line.split()) + ("--seed", str(seed))
        args = parser.parse_args(argv)
        runs = 1 if args.checks else len(cli.generate_subsets(args))
        ops.append(CliCall(argv, runs))
    return ops


OPS_BY_WORKLOAD = {
    "full_density": full_density_ops,
    "sparse_search": sparse_search_ops,
    "cli_sweep": cli_sweep_ops,
}


def build_ops(workload: str, seed: int, small: bool = False):
    return OPS_BY_WORKLOAD[workload](seed, small)


# How often each operation runs back to back in a pass; the fastest repeat
# counts.  The CLI operations are short (0.4-4 s) and allocate heavily, and
# host jitter that the speed sampler misses slowed one cli_sweep run in five
# by 20%; a second repeat removes most of it.  The other workloads' single
# runs stayed within 2% of each other.
REPEATS = {"full_density": 1, "sparse_search": 1, "cli_sweep": 2}


def planned_runs(ops, repeats: int = 1) -> int:
    return repeats * sum(op.runs if isinstance(op, CliCall) else 1 for op in ops)


# ---------------------------------------------------------------------------
# per-run guarantees


_SIGNATURES = {p: inspect.signature(getattr(m, n)) for p, (m, n) in DRIVERS.items()}


def _bound_args(protocol: str, args, kwargs) -> Dict[str, object]:
    bound = _SIGNATURES[protocol].bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def guarantee_failure(protocol: str, arguments: Dict[str, object],
                      report) -> Optional[str]:
    """Strict success plus the README's energy ceilings and round budget;
    returns a description of the first miss, or None."""
    if not report.strict_success:
        return "no strict success"
    energy = report.ledger.max_energy
    N = report.N
    if protocol == "pairing":
        limit = 2 * ceil_log2(N) + 3
        if report.leader != min(report.device_ids):
            return f"leader {report.leader} is not the minimum id"
    elif protocol == "binary_search":
        limit = ceil_log2(N) + 2
        if report.rounds != ceil_log2(N) + 1:
            return f"{report.rounds} rounds, budget {ceil_log2(N) + 1}"
    elif protocol == "halving":
        k = arguments["k"]
        limit = k + ceil_log2(max(1, ceil_div(N, 1 << k))) + 3
    elif protocol == "dense_improved":
        limit = 2 * ceil_log2(arguments["b"]) + 9
    else:
        return None
    if energy > limit:
        return f"energy {energy} above ceiling {limit}"
    return None


def run_record(protocol: str, report) -> bytes:
    """What the output digest covers for one run: protocol, model, N, ids,
    leader, rank map, per-device energy and rounds."""
    ranks = tuple(sorted((dev, v.rank) for dev, v in report.verdicts.items()
                         if v.rank is not None))
    energy = tuple(report.ledger.counts[dev] for dev in report.device_ids)
    rec = (protocol, report.model.value, report.N, report.device_ids,
           report.leader, ranks, energy, report.rounds)
    return repr(rec).encode()


@dataclass
class PassResult:
    """Outcome of one pass over a workload's operations.  `host_wall_s` is
    the host seconds of the timed operations; `wall_s` is the same time at
    the reference CPU speed (see speed.py)."""

    host_wall_s: float = 0.0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    events: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    outputs: object = field(default_factory=hashlib.sha256)
    transcripts: object = field(default_factory=hashlib.sha256)
    hash_bytes: int = 0

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(why)


class Recorder:
    """Wraps every copy of every protocol driver: times each call and keeps
    (protocol, args, kwargs, report or exception, ms) for checking after the
    timed operation returns.  With a tracer, each call is also a root span."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.calls: List[tuple] = []

    def install(self, patches: Patches) -> None:
        for protocol, (module, name) in DRIVERS.items():
            patches.function(module, name, self._make(protocol))

    def _make(self, protocol: str):
        calls = self.calls
        tracer = self.tracer
        nid = tracer.name_id("run") if tracer is not None else None
        clock = time.perf_counter

        def make(fn):
            def call(*args, **kwargs):
                idx = tracer.open(nid) if tracer is not None else None
                t0 = clock()
                try:
                    report = fn(*args, **kwargs)
                except Exception as exc:
                    calls.append((protocol, args, kwargs, exc, (clock() - t0) * 1e3))
                    raise
                finally:
                    if idx is not None:
                        tracer.close(idx)
                calls.append((protocol, args, kwargs, report, (clock() - t0) * 1e3))
                return report
            call.__wrapped__ = fn
            return call
        return make

    def drain(self, result: PassResult, first: bool, digest_runs: bool) -> int:
        """Check every recorded call; returns how many were recorded.  Only
        the first repeat of an operation is counted in events and bytes,
        and, with digest_runs, digested run by run."""
        n = len(self.calls)
        for protocol, args, kwargs, outcome, ms in self.calls:
            result.attempted += 1
            result.latencies_ms.append(ms)
            if isinstance(outcome, Exception):
                report = getattr(outcome, "report", None)
                result.fail(f"{protocol}: {type(outcome).__name__}: {outcome}")
            else:
                report = outcome
                miss = guarantee_failure(
                    protocol, _bound_args(protocol, args, kwargs), report)
                if miss is not None:
                    result.fail(f"{protocol} N={report.N} n={report.n}: {miss}")
                if first and digest_runs:
                    result.outputs.update(run_record(protocol, report))
                    result.transcripts.update(b"%016x" % report.transcript_hash)
            if report is not None and first:
                result.events += len(report.transcript.events)
                if self.tracer is not None:
                    result.hash_bytes += transcript_bytes(report.transcript)
        self.calls.clear()
        return n


_ORIGINAL_SERIALIZE = runtime.Transcript.serialize


def transcript_bytes(transcript) -> int:
    """Bytes Transcript.hash64 absorbs: the header line plus the serialized
    events (same line format).  Uses the unwrapped serialize."""
    ids = ",".join(str(i) for i in transcript.device_ids)
    header = f"{transcript.model.value} {transcript.N} {transcript.rounds} {ids}\n"
    return len(header) + len(_ORIGINAL_SERIALIZE(transcript))


def _digest_cli_outputs(result: PassResult, op: CliCall, out: str) -> None:
    """Digest the CSV files of one invocation, with the transcript_hash
    column moved to the drift digest; checker rows must all read ok."""
    result.outputs.update(repr(op.argv).encode())
    for suffix in ("", ".agg.csv", ".attempts.csv"):
        path = out + suffix
        if not os.path.exists(path):
            continue
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        drop = header.index("transcript_hash") if "transcript_hash" in header else None
        for row in rows:
            if drop is not None:
                result.transcripts.update(row[drop].encode() + b"\n")
                row = row[:drop] + row[drop + 1:]
            result.outputs.update(",".join(row).encode() + b"\n")
        if header[0] == "check":
            bad = [r for r in rows[1:] if r[5] != "ok"]
            if bad:
                result.fail(f"checker rows not ok: {bad[:3]}")


def _timed(call):
    """Run call() under a fresh SpeedSampler; returns (value or exception,
    host seconds, seconds at the reference speed)."""
    sampler = SpeedSampler()
    with sampler:
        t0 = time.perf_counter()
        try:
            value = call()
        except Exception as exc:
            value = exc
        host = time.perf_counter() - t0
    return value, host, host * sampler.scale()


def run_pass(ops, scratch: str, tracer: Optional[Tracer] = None,
             repeats: int = 1, progress=None) -> PassResult:
    """Run every operation `repeats` times back to back; the fastest repeat
    (at the reference speed) counts towards wall_s.  Every repeat is
    checked, and the first one is digested.  `scratch` is a directory for
    CLI output files; `progress(attempted, failed)` is called after each
    operation."""
    result = PassResult()
    patches = Patches()
    recorder = Recorder(tracer)
    recorder.install(patches)
    if tracer is not None:
        install_layers(tracer, patches)
    try:
        for i, op in enumerate(ops):
            before = (result.attempted, result.failed)
            times = []
            for rep in range(repeats):
                if isinstance(op, Run):
                    # a raising run is recorded as failed by the driver wrapper
                    _, host, scaled = _timed(op)
                    recorder.drain(result, first=rep == 0, digest_runs=True)
                else:
                    host, scaled = _run_cli(op, os.path.join(scratch, f"op{i}.csv"),
                                            recorder, result, first=rep == 0)
                times.append((scaled, host))
            scaled, host = min(times)
            result.wall_s += scaled
            result.host_wall_s += host
            if progress is not None:
                progress(result.attempted - before[0], result.failed - before[1])
    finally:
        patches.restore()
    return result


def _run_cli(op: CliCall, out: str, recorder: Recorder, result: PassResult,
             first: bool) -> Tuple[float, float]:
    argv = list(op.argv) + ["--out", out, "--json-out", out + ".json"]
    rc, host, scaled = _timed(lambda: cli.main(argv))
    seen = recorder.drain(result, first, digest_runs=False)
    if "--checks" in op.argv:
        result.attempted += 1
        seen += 1
    if rc != 0:
        result.fail(f"cli {' '.join(op.argv)} returned {rc}")
    if seen < op.runs:  # elections lost to an abort
        result.attempted += op.runs - seen
        result.fail(f"cli {' '.join(op.argv)}: {op.runs - seen} runs lost",
                    op.runs - seen)
    if rc == 0 and first:
        _digest_cli_outputs(result, op, out)
    return host, scaled


# ---------------------------------------------------------------------------
# traced per-layer split

LAYER_MODULES = {"protocols_core": protocols_core, "dense": dense, "tradeoff": tradeoff}


def program_classes():
    """(short module name, class) for every program class defining run()."""
    out = []
    for short, module in LAYER_MODULES.items():
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, runtime.DeviceProgram)
                    and obj.__module__ == module.__name__ and "run" in vars(obj)):
                out.append((short, obj))
    return out


def install_layers(tracer: Tracer, patches: Patches) -> None:
    """Spans around each layer's public calls, on every copy of each name."""
    c = tracer.counters

    def after_run_programs(args, result):
        report = result[0]
        c["runtime.events"] += len(report.transcript.events)
        c["runtime.rounds"] += report.rounds

    def after_resolve(args, result):
        c["channel.resolve_slot.batch"] += len(args[1])

    def after_merges(args, result):
        c["dense.census_merges.entries"] += len(result)

    def after_experiment(args, result):
        c["cli.rows"] += len(result[0])

    def after_checks(args, result):
        c["cli.rows"] += len(result)

    spans = [
        (runtime, "run_programs", "runtime.run_programs", after_run_programs),
        (channel, "resolve_slot", "channel.resolve_slot", after_resolve),
        (dense, "exponential_plan", "dense.exponential_plan", None),
        (dense, "census_merges", "dense.census_merges", after_merges),
        (dense, "_attempt_summaries", "dense.attempt_summaries", None),
        (partitions, "generate_family", "partitions.generate_family", None),
        (partitions, "_draw_partitions", "partitions.draw_partitions", None),
        (partitions, "verify_family", "partitions.verify_family", None),
        (tradeoff, "choose_params", "tradeoff.choose_params", None),
        (lowerbound, "uniqueness_check", "lowerbound.uniqueness_check", None),
        (lowerbound, "potential_active_slots", "lowerbound.potential_active_slots", None),
        (cli, "main", "cli.main", None),
        (cli, "run_experiment", "cli.run_experiment", after_experiment),
        (cli, "run_checks", "cli.run_checks", after_checks),
    ]
    for module, attr, name, after in spans:
        patches.function(module, attr, span_wrapper(tracer, name, after))
    patches.function(partitions, "subset_hits_family",
                     counting_wrapper(tracer, "partitions.verify_family.subsets"))
    patches.method(runtime.Transcript, "hash64", span_wrapper(tracer, "runtime.hash64"))
    patches.method(runtime.Transcript, "serialize",
                   span_wrapper(tracer, "runtime.serialize"))
    replay_scopes = frozenset(tracer.name_id(n) for n in (
        "lowerbound.uniqueness_check", "lowerbound.potential_active_slots"))
    for short, cls in program_classes():
        patches.method(cls, "run", step_wrapper(tracer, f"{short}.step", replay_scopes))


def layer_metrics(tracer: Tracer, result: PassResult) -> Dict[str, float]:
    """The per-layer metrics of a traced pass.  Every `.s` / `.self_s` is a
    self time (time in that call minus the spans nested inside it), rescaled
    to the reference speed like the pass's wall_s."""
    summ = tracer.summary()
    c = tracer.counters
    scale = result.wall_s / result.host_wall_s if result.host_wall_s else 1.0

    def calls(name):
        return summ.get(name, {}).get("calls", 0)

    def self_s(name):
        return summ.get(name, {}).get("self_s", 0.0) * scale

    events = c["runtime.events"]
    m = {
        "dense.exponential_plan.calls": calls("dense.exponential_plan"),
        "dense.exponential_plan.s": self_s("dense.exponential_plan"),
        "dense.census_merges.calls": calls("dense.census_merges"),
        "dense.census_merges.s": self_s("dense.census_merges"),
        "dense.census_merges.entries": c["dense.census_merges.entries"],
        "dense.census_merges.entries_per_event":
            c["dense.census_merges.entries"] / events if events else 0.0,
        "runtime.hash64.s": self_s("runtime.hash64"),
        "runtime.hash64.bytes": result.hash_bytes,
        "dense.attempt_summaries.s": self_s("dense.attempt_summaries"),
        "runtime.run_programs.calls": calls("runtime.run_programs"),
        "runtime.run_programs.self_s": self_s("runtime.run_programs"),
        "runtime.events": events,
        "runtime.events_per_round":
            events / c["runtime.rounds"] if c["runtime.rounds"] else 0.0,
        "channel.resolve_slot.calls": calls("channel.resolve_slot"),
        "channel.resolve_slot.s": self_s("channel.resolve_slot"),
        "channel.resolve_slot.mean_batch":
            c["channel.resolve_slot.batch"] / calls("channel.resolve_slot")
            if calls("channel.resolve_slot") else 0.0,
        "runtime.serialize.calls": calls("runtime.serialize"),
        "runtime.serialize.s": self_s("runtime.serialize"),
        "cli.run_experiment.s": self_s("cli.run_experiment"),
        "cli.output.s": self_s("cli.main"),
        "cli.rows": c["cli.rows"],
        "tradeoff.choose_params.s": self_s("tradeoff.choose_params"),
        "partitions.generate_family.s": self_s("partitions.generate_family"),
        "partitions.generate_family.retries":
            calls("partitions.draw_partitions") - calls("partitions.generate_family"),
        "partitions.draw_partitions.s": self_s("partitions.draw_partitions"),
        "partitions.verify_family.s": self_s("partitions.verify_family"),
        "partitions.verify_family.subsets": c["partitions.verify_family.subsets"],
        "lowerbound.uniqueness_check.s": self_s("lowerbound.uniqueness_check"),
        "lowerbound.potential_active_slots.s": self_s("lowerbound.potential_active_slots"),
        "lowerbound.program_replays": c["lowerbound.program_replays"],
    }
    for short in LAYER_MODULES:
        m[f"{short}.step.s"] = self_s(f"{short}.step")
        m[f"{short}.step.resumes"] = calls(f"{short}.step")
    return m
