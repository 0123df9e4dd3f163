"""Batch experiment runner.

    radioleader --protocol pairing --N 8 --subsets all --out runs.csv

Each execution becomes one CSV row; aggregates per (protocol, model, N) go
to a sibling <out>.agg.csv.  Rows are sorted by a canonical key and floats
are formatted with a fixed precision, so identical invocations produce
byte-identical files.  `--checks` switches to the fixed lower-bound
checker battery, which needs no `--protocol`, and emits
`check,protocol,N,k,t,result,witness` rows instead.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .channel import CdModel
from .dense import (
    DenseImprovedProgram,
    DenseSimpleProgram,
    ExponentialSearchProgram,
    choose_dense_b,
    dense_improved_election,
    dense_simple_election,
    exponential_search_election,
)
from .lowerbound import (
    STRONG_STYLE,
    canonical_sequences,
    first_duplicate,
    matching_count,
    potential_active_slots,
    sequence_budget,
)
from .partitions import load_family
from .protocols_core import (
    BinarySearchElectionProgram,
    HalvingTradeoffProgram,
    PairingElectionProgram,
    binary_search_election,
    ceil_log2,
    halving_tradeoff_election,
    pairing_election,
)
from .runtime import (
    ProtocolConfig,
    RunReport,
    collector_paused,
    transcript_hashes,
)
from .tradeoff import (
    NoLeader,
    PartitionTradeoffProgram,
    choose_params,
    partition_tradeoff_election,
)

# --protocol name -> the program class that declares the protocol
PROGRAMS = {
    "pairing": PairingElectionProgram,
    "binary_search": BinarySearchElectionProgram,
    "halving": HalvingTradeoffProgram,
    "tradeoff": PartitionTradeoffProgram,
    "dense_simple": DenseSimpleProgram,
    "dense_improved": DenseImprovedProgram,
    "exponential": ExponentialSearchProgram,
}

# the protocols that take a block width (--b)
DENSE_WALKS = ("dense_simple", "dense_improved")

# run option -> (what it is, the protocols that read it); of these,
# --checks reads only --k
OPTION_READERS = {
    "b": ("the block width of the dense walks (dense_simple, dense_improved)",
          DENSE_WALKS),
    "k": ("the energy budget knob of halving and tradeoff",
          ("halving", "tradeoff")),
    "epsilon": ("the slack exponent of tradeoff", ("tradeoff",)),
    "family": ("the partition family file of tradeoff", ("tradeoff",)),
    "model": ("the collision-detection model of the runs", PROGRAMS),
    "assert-success": ("the strict-success gate of the runs", PROGRAMS),
    "emit-transcripts": ("the transcript directory of the runs", PROGRAMS),
}

CSV_HEADER = (
    "protocol,model,N,n,b,k,rounds,max_energy,strict,easy,transcript_hash"
)
AGG_HEADER = (
    "protocol,model,N,runs,rounds_max,rounds_mean,"
    "energy_max,energy_mean,all_strict,all_easy"
)
CHECK_HEADER = "check,protocol,N,k,t,result,witness"
ATTEMPT_HEADER = "run,attempt,b,space,success,energy_max,rounds"

# Every output table is a list of records: dicts from the columns of its
# header to string cells, written as CSV lines and as JSON objects.
Record = Dict[str, str]


def _record(header: str, *cells: str) -> Record:
    return dict(zip(header.split(","), cells, strict=True))


@functools.cache  # parsing never mutates the parser, so every call shares one
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="radioleader",
        description="run leader-election experiments on a simulated "
        "single-hop radio channel",
    )
    p.add_argument("--protocol", choices=PROGRAMS, default=None,
                   help="the protocol to run; required except with --checks, "
                        "which ignores it")
    p.add_argument("--model", default=None,
                   help="strong_cd | sender_cd | receiver_cd | no_cd "
                        "(default depends on the protocol)")
    p.add_argument("--N", type=int, required=True, help="id space size")
    p.add_argument("--n", type=int, default=None,
                   help="device count for random subsets / known bound "
                        "for the trade-off")
    p.add_argument("--k", type=int, default=None, help="energy budget knob")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--b", type=int, default=None,
                   help="block width of the dense walks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--subsets", choices=("all", "random", "file", "density"),
                   default="random")
    p.add_argument("--subsets-file", default=None,
                   help="one subset per line, ids separated by spaces or commas")
    p.add_argument("--ids", default=None,
                   help="run one explicit subset, e.g. --ids 3,11,12")
    p.add_argument("--density", default=None,
                   help="comma list of fractions for --subsets density, "
                        "e.g. 1,1/2,1/4 or 2^-3")
    p.add_argument("--trials", type=int, default=20,
                   help="subset count for --subsets random")
    p.add_argument("--assert-success", action="store_true",
                   help="exit nonzero if any run misses strict success")
    p.add_argument("--emit-transcripts", metavar="DIR", default=None)
    p.add_argument("--family", metavar="FILE", default=None,
                   help="partition family file for --protocol tradeoff")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="CSV output path (default stdout)")
    p.add_argument("--json-out", metavar="FILE", default=None)
    p.add_argument("--checks", action="store_true",
                   help="run the lower-bound checker battery instead; the "
                        "battery is fixed (binary_search, halving, pairing), "
                        "so it needs no --protocol")
    return p


def _parse_density(text: str) -> List[Fraction]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "^" in piece:
            base, _, expo = piece.partition("^")
            out.append(Fraction(int(base)) ** int(expo))
        else:
            out.append(Fraction(piece))
    if not out:
        raise ValueError("empty density list")
    for c in out:
        if not (0 < c <= 1):
            raise ValueError(f"density {c} outside (0, 1]")
    return out


def _parse_ids(text: str) -> List[int]:
    ids = sorted({int(tok) for tok in text.replace(",", " ").split()})
    if not ids:
        raise ValueError("empty id list")
    return ids


def _read_subsets_file(path: str) -> List[List[int]]:
    subsets = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            subsets.append(_parse_ids(line))
    if not subsets:
        raise ValueError(f"no subsets in {path}")
    return subsets


def generate_subsets(args) -> List[List[int]]:
    N = args.N
    if args.ids is not None:
        return [_parse_ids(args.ids)]
    if args.subsets == "all":
        if N > 20:
            raise ValueError("--subsets all refuses N > 20 (2^N executions)")
        return [
            [i + 1 for i in range(N) if mask >> i & 1]
            for mask in range(1, 1 << N)
        ]
    if args.subsets == "file":
        if not args.subsets_file:
            raise ValueError("--subsets file needs --subsets-file")
        return _read_subsets_file(args.subsets_file)
    if args.subsets == "density":
        if not args.density:
            raise ValueError("--subsets density needs --density")
        sizes = [max(1, round(c * N)) for c in _parse_density(args.density)]
    else:  # random
        if args.n is None:
            raise ValueError("--subsets random needs --n (subset size)")
        if not (1 <= args.n <= N):
            raise ValueError("need 1 <= n <= N")
        if args.trials < 1:
            raise ValueError("--subsets random needs --trials >= 1")
        sizes = [args.n] * args.trials
    rng = random.Random(args.seed)
    return [sorted(rng.sample(range(1, N + 1), n)) for n in sizes]


def _model_for(args) -> CdModel:
    """--model, or the protocol's weakest: its last, in CdModel order."""
    if args.model is None:
        return PROGRAMS[args.protocol].models[-1]
    return CdModel.parse(args.model)


def _run_one(args, model: CdModel, devices: List[int],
             family=None) -> Tuple[RunReport, str, str]:
    """Returns (report, b column, k column)."""
    N, proto = args.N, args.protocol
    if proto == "pairing":
        return pairing_election(devices, N, model=model), "", ""
    if proto == "binary_search":
        return binary_search_election(devices, N, model=model), "", ""
    if proto == "halving":
        k = args.k if args.k is not None else ceil_log2(max(N, 2))
        report = halving_tradeoff_election(devices, N, k, model=model)
        return report, "", str(k)
    if proto == "tradeoff":
        try:
            report = partition_tradeoff_election(devices, family, model=model)
        except NoLeader as exc:
            report = exc.report
        return report, str(family.b), str(family.K)
    if proto in DENSE_WALKS:
        b = args.b if args.b is not None else choose_dense_b(N, len(devices))
        run = (dense_simple_election if proto == "dense_simple"
               else dense_improved_election)
        return run(devices, N, b, model=model), str(b), ""
    if proto == "exponential":
        return exponential_search_election(devices, N, model=model), "", ""
    raise ValueError(f"unhandled protocol {proto}")


def _tradeoff_params(args, subsets: Sequence[Sequence[int]]):
    """The partition family of a trade-off experiment."""
    if args.epsilon is None or args.k is None:
        raise ValueError("--protocol tradeoff needs --k and --epsilon")
    n = args.n if args.n is not None else max(len(s) for s in subsets)
    family = load_family(args.family) if args.family else None
    return choose_params(args.N, n, args.k, args.epsilon,
                         seed=args.seed, family=family)


def _refuse_unread_options(args) -> None:
    """Raise ValueError naming the first run option that was given but
    that the chosen protocol, or --checks, never reads."""
    for option, (what, readers) in OPTION_READERS.items():
        value = getattr(args, option.replace("-", "_"))
        if value is None or value is False:
            continue
        if args.checks:
            if option != "k":
                raise ValueError(f"--{option} is {what}; --checks reads "
                                 "only --N and --k")
        elif args.protocol not in readers:
            raise ValueError(f"--{option} is {what}, not of {args.protocol}")


def run_experiment(args):
    """Execute the experiment described by parsed args.

    Returns (csv records, aggregate records, [(transcript name, text)],
    attempt records); all four deterministic functions of the arguments.
    Transcripts are serialized only for --emit-transcripts."""
    model = _model_for(args)
    _refuse_unread_options(args)
    dense = args.protocol in DENSE_WALKS
    subsets = generate_subsets(args)
    if dense and args.b is None:
        for devices in subsets:
            if len(devices) < 2:
                raise ValueError(f"device set {devices}: without --b the "
                                 f"{args.protocol} walk needs n >= 2 devices")
    family = _tradeoff_params(args, subsets) if args.protocol == "tradeoff" \
        else None

    # every report stays alive until the bulk hash, and they form no
    # cycles, so one pause spares the collector re-walking them all; its
    # end promotes them to the oldest generation, so building the rows
    # starts no young collection over them either
    with collector_paused():
        runs = [_run_one(args, model, devices, family) for devices in subsets]
        hashes = transcript_hashes(report.transcript for report, _, _ in runs)
    entries = []
    for devices, (report, b_col, k_col), h in zip(subsets, runs, hashes):
        row = _record(
            CSV_HEADER,
            args.protocol,
            model.value,
            str(args.N),
            str(len(devices)),
            b_col,
            k_col,
            str(report.rounds),
            str(report.ledger.max_energy),
            str(report.strict_success).lower(),
            str(report.easy_success).lower(),
            f"{h:016x}",
        )
        entries.append((row, report))

    entries.sort(key=lambda e: tuple(e[0].values()))
    rows = [row for row, _ in entries]
    reports = [report for _, report in entries]

    transcripts = []
    if args.emit_transcripts:
        for idx, report in enumerate(reports):
            name = f"{args.protocol}_{model.value}_N{args.N}_run{idx:05d}.txt"
            transcripts.append((name, report.transcript.serialize()))

    attempt_rows = [
        _record(
            ATTEMPT_HEADER, str(idx), str(a.index), str(a.b), str(a.space),
            str(a.success).lower(), str(a.energy_max), str(a.rounds),
        )
        for idx, report in enumerate(reports)
        for a in report.attempts or ()
    ]

    agg = _record(
        AGG_HEADER,
        args.protocol,
        model.value,
        str(args.N),
        str(len(reports)),
        str(max(r.rounds for r in reports)),
        f"{sum(r.rounds for r in reports) / len(reports):.4f}",
        str(max(r.ledger.max_energy for r in reports)),
        f"{sum(r.ledger.max_energy for r in reports) / len(reports):.4f}",
        str(all(r.strict_success for r in reports)).lower(),
        str(all(r.easy_success for r in reports)).lower(),
    )
    return rows, [agg], transcripts, attempt_rows


def _checker_factories(args):
    N = args.N
    k = args.k if args.k is not None else ceil_log2(max(N, 2))
    return [
        ("binary_search", BinarySearchElectionProgram,
         ProtocolConfig(model=CdModel.STRONG_CD, N=N)),
        ("halving", HalvingTradeoffProgram,
         ProtocolConfig(model=CdModel.STRONG_CD, N=N, k=k)),
        ("pairing", PairingElectionProgram,
         ProtocolConfig(model=CdModel.STRONG_CD, N=N)),
    ]


def run_checks(args) -> List[Record]:
    _refuse_unread_options(args)
    if args.N > 1 << 14:
        # pairing alone holds N canonical sequences of about N slots each
        raise ValueError("--checks refuses N > 2^14 (N^2 memory)")
    rows = []
    for name, factory, config in _checker_factories(args):
        t = factory.schedule_length(config)
        seqs = list(canonical_sequences(factory, config, STRONG_STYLE))
        pair = first_duplicate(seqs)
        rows.append(_record(
            CHECK_HEADER, "uniqueness", name, str(config.N), "", str(t),
            "ok" if pair is None else "violation",
            "" if pair is None else f"{pair.id_a}|{pair.id_b}",
        ))
        k_meas = max(len(s) - s.count("I") for s in seqs)
        budget = sequence_budget(t, k_meas)
        rows.append(_record(
            CHECK_HEADER, "counting", name, str(config.N), str(k_meas), str(t),
            "ok" if config.N <= budget else "violation", str(budget),
        ))
        if t <= 20:
            m = matching_count(seqs, k_meas)
            need = -(-config.N // (1 << min(k_meas, t)))
            rows.append(_record(
                CHECK_HEADER, "matching", name, str(config.N), str(k_meas),
                str(t), "ok" if m >= need else "violation", str(m),
            ))
    # feedback-tree exploration on the binary search election only: the
    # other programs branch on message payloads, not just collision/silence
    factory = BinarySearchElectionProgram
    config = ProtocolConfig(model=CdModel.STRONG_CD, N=args.N)
    budget = factory.schedule_length(config)
    count = potential_active_slots(factory, 1, config, budget)
    rows.append(_record(
        CHECK_HEADER, "potential_active_slots", "binary_search", str(args.N),
        str(budget), str(budget),
        "ok" if count <= 1 << budget else "violation",
        str(count),
    ))
    return rows


def _write_table(path: Optional[str], header: str,
                 records: Iterable[Record]) -> None:
    """Header plus one CSV line per record, to `path` or stdout (None)."""
    columns = header.split(",")
    lines = [header] + [",".join(r[c] for c in columns) for r in records]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.protocol is None and not args.checks:
        parser.error("--protocol is required unless --checks is given")

    if args.N < 1:
        print("--N must be at least 1", file=sys.stderr)
        return 2
    if args.epsilon is not None and not (0.0 < args.epsilon < 1.0):
        print(f"--epsilon {args.epsilon} outside (0, 1)", file=sys.stderr)
        return 2

    try:
        if args.checks:
            rows = run_checks(args)
            _write_table(args.out, CHECK_HEADER, rows)
            if args.json_out:
                _write_json(args.json_out, rows)
            return 0

        rows, aggs, transcripts, attempt_rows = run_experiment(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def sibling(suffix: str) -> Optional[str]:
        return None if args.out is None else args.out + suffix

    _write_table(args.out, CSV_HEADER, rows)
    _write_table(sibling(".agg.csv"), AGG_HEADER, aggs)
    if attempt_rows:
        _write_table(sibling(".attempts.csv"), ATTEMPT_HEADER, attempt_rows)
    if args.emit_transcripts:
        os.makedirs(args.emit_transcripts, exist_ok=True)
        for name, text in transcripts:
            with open(os.path.join(args.emit_transcripts, name), "w") as fh:
                fh.write(text)
    if args.json_out:
        _write_json(args.json_out, {"runs": rows, "aggregates": aggs})

    if args.assert_success:
        bad = sum(1 for r in rows if r["strict"] == "false")
        if bad:
            print(f"{bad} run(s) missed strict success", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
