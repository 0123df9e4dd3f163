"""Batch experiment runner.

    radioleader --protocol pairing --N 8 --subsets all --out runs.csv

Each execution becomes one CSV row; aggregates per (protocol, model, N) go
to a sibling <out>.agg.csv.  Rows are sorted by a canonical key and floats
are formatted with a fixed precision, so identical invocations produce
byte-identical files.  `--checks` switches to the fixed lower-bound
checker battery, which needs no `--protocol`, and emits
`check,protocol,N,k,t,result,witness` rows instead.  `--json-out` writes
the same records as one line of `json.dumps(..., sort_keys=True)`: no
indent, so the stdlib's C encoder runs, which leaves no reference cycles.

Exit codes: 0 on success; 1 only when `--assert-success` finds a run that
missed strict success (a failed election is a row, not an error); 2 when
the invocation is refused, by argparse or afterwards by a bad parameter or
an output that cannot be written, which prints one `error: ...` line and
writes nothing: every output is written to a temporary name next to the
file its path resolves to, and only once all of them are written are
they renamed onto those files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import re
import shutil
import stat
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

SUBSET_KINDS = ("all", "random", "file", "density")

# option -> (what it is, what reads it, what needs it, its argparse
# keywords), of protocol names, subset kinds ("ids" when --ids is given)
# and "checks"; build_parser adds each option from its row, and --help
# prints the row.  --N, --seed, --out, --json-out, --protocol and --checks
# are always read, so they have no row
OPTIONS = {
    "b": ("the block width of the dense walks", DENSE_WALKS, (),
          {"type": int}),
    "k": ("the energy budget knob", ("halving", "tradeoff", "checks"),
          ("tradeoff",), {"type": int}),
    "epsilon": ("the slack exponent", ("tradeoff",), ("tradeoff",),
                {"type": float}),
    "family": ("the partition family file", ("tradeoff",), (),
               {"metavar": "FILE"}),
    "model": ("the collision-detection model of the runs (by default the "
              "protocol's weakest)", PROGRAMS, (),
              {"choices": [m.value for m in CdModel]}),
    "assert-success": ("the strict-success gate of the runs", PROGRAMS, (),
                       {"action": "store_true"}),
    "emit-transcripts": ("the transcript directory of the runs", PROGRAMS,
                         (), {"metavar": "DIR"}),
    "ids": ("the one explicit device set (ids such as 3,11,12)", ("ids",),
            (), {}),
    "subsets": ("the kind of device sets (by default random)", SUBSET_KINDS,
                (), {"choices": SUBSET_KINDS}),
    "n": ("the set size or its known bound", ("random", "tradeoff"),
          ("random",), {"type": int}),
    "trials": ("the set count (by default 20)", ("random",), (),
               {"type": int}),
    "density": ("the density list, each piece p, p/q, a decimal or b^e in "
                "digits of at most 4300 characters (such as 1,1/2,.25,2^-3)",
                ("density",), ("density",), {}),
    "subsets-file": ("the set file (one set per line, ids separated by "
                     "spaces or commas)", ("file",), ("file",), {}),
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


def _mean(total: int, count: int) -> str:
    """total / count to 4 decimals, rounded half to even and exact at any size."""
    q = round(Fraction(total * 10**4, count))
    return f"{q // 10**4}.{q % 10**4:04d}"


@functools.cache  # parsing never mutates the parser, so every call shares one
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="radioleader",
        description="run leader-election experiments on a simulated "
        "single-hop radio channel",
        epilog="Readers and needers are protocols, --subsets kinds, ids "
        "(--ids) and checks (--checks).",
    )
    p.add_argument("--protocol", choices=PROGRAMS, default=None,
                   help="the protocol to run; required except with --checks, "
                        "which ignores it")
    p.add_argument("--N", type=int, required=True, help="id space size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="FILE", default=None,
                   help="CSV output path (default stdout)")
    p.add_argument("--json-out", metavar="FILE", default=None)
    p.add_argument("--checks", action="store_true",
                   help="run the lower-bound checker battery instead; the "
                        "battery is fixed (binary_search, halving, pairing), "
                        "so it needs no --protocol")
    for option, (what, readers, needers, keywords) in OPTIONS.items():
        text = f"{what}; read by {', '.join(readers)}"
        if needers:
            text += f"; needed by {', '.join(needers)}"
        p.add_argument(f"--{option}", **keywords, help=text)
    return p


_MAX_LEN = 4300  # int() refuses a longer decimal string

# a density piece: p, p/q, a decimal (0.25, .25, 1.) or b^e, in digits
_DENSITY = re.compile(r"(\d+)\^(-?\d+)|\d+(?:/\d+|\.\d*)?|\.\d+", re.ASCII)


def _parse_density(text: str, N: int) -> List[Fraction]:
    # b^e with b >= 2 is above 1 for every e >= 1, and at most 1/(4N^2) for
    # every e <= -cap, a one-device set: clamping e to [-cap, 1] keeps each
    # size and refusal without taking a power that could run for minutes
    cap = 2 * N.bit_length() + 2
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        match = len(piece) <= _MAX_LEN and _DENSITY.fullmatch(piece)
        if not match:
            raise ValueError(f"density {piece} is not p, p/q, a decimal or "
                             f"b^e in digits, within {_MAX_LEN} characters")
        try:
            if match[1]:
                base, expo = int(match[1]), int(match[2])
                if base >= 2:
                    expo = max(-cap, min(expo, 1))
                c = Fraction(base) ** expo
            else:
                c = Fraction(piece)
        except ZeroDivisionError:
            raise ValueError(f"density {piece} divides by zero") from None
        if not 0 < c <= 1:
            raise ValueError(f"density {piece} outside (0, 1]")
        out.append(c)
    if not out:
        raise ValueError("empty density list")
    return out


def _parse_ids(text: str, N: int) -> List[int]:
    # a token of anything but ASCII digits (a sign, an underscore, another
    # script's digits), or longer than int() reads, is no id in 1..N
    ids = sorted({int(tok) if len(tok) <= _MAX_LEN and tok.isascii()
                  and tok.isdigit() else 0
                  for tok in text.replace(",", " ").split()})
    if not ids:
        raise ValueError("empty id list")
    if ids[0] < 1 or ids[-1] > N:  # before any run, as run_programs words it
        raise ValueError(f"device ids must lie in 1..{N}")
    return ids


def _read_subsets_file(path: str, N: int) -> List[List[int]]:
    subsets = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            subsets.append(_parse_ids(line, N))
    if not subsets:
        raise ValueError(f"no subsets in {path}")
    return subsets


def _subset_kind(args) -> str:
    return "ids" if args.ids is not None else args.subsets or "random"


def _refuse_options(args) -> None:
    """Raise ValueError naming the first option of OPTIONS that is given but
    read by nothing of this invocation, or missing but needed by some of it."""
    kind = _subset_kind(args)
    used = {"checks"} if args.checks else {args.protocol, kind}
    run = f"{args.protocol} with " + (
        "--ids" if kind == "ids" else f"--subsets {kind}")
    for option, (what, readers, needers, _) in OPTIONS.items():
        value = getattr(args, option.replace("-", "_"))
        if value is None or value is False:
            if not used.isdisjoint(needers):
                raise ValueError(f"--{option} is {what}, needed by {run}")
        elif used.isdisjoint(readers):
            raise ValueError(f"--{option} is {what}" + (
                "; --checks reads only --N and --k" if args.checks
                else f", not of {run}"))


def generate_subsets(args) -> List[List[int]]:
    N, kind = args.N, _subset_kind(args)
    if kind == "ids":
        return [_parse_ids(args.ids, N)]
    if kind == "all":
        if N > 20:
            raise ValueError("--subsets all refuses N > 20 (2^N executions)")
        return [[i + 1 for i in range(N) if mask >> i & 1]
                for mask in range(1, 1 << N)]
    if kind == "file":
        return _read_subsets_file(args.subsets_file, N)
    if kind == "density":
        sizes = [max(1, round(c * N))
                 for c in _parse_density(args.density, N)]
    else:  # random
        if not (1 <= args.n <= N):
            raise ValueError("need 1 <= n <= N")
        trials = 20 if args.trials is None else args.trials
        if trials < 1:
            raise ValueError("--subsets random needs --trials >= 1")
        sizes = [args.n] * trials
    rng = random.Random(args.seed)
    return [sorted(rng.sample(range(1, N + 1), n)) for n in sizes]


def _model_for(args) -> CdModel:
    """--model, or the protocol's weakest: its last, in CdModel order."""
    if args.model is None:
        return PROGRAMS[args.protocol].models[-1]
    return CdModel(args.model)


def _halving_k(args) -> int:
    """--k, or halving's default of ceil(log2 N) probes."""
    return args.k if args.k is not None else ceil_log2(max(args.N, 2))


def _run_one(args, model: CdModel, devices: List[int],
             family=None) -> Tuple[RunReport, str, str]:
    """Returns (report, b column, k column)."""
    N, proto = args.N, args.protocol
    if proto == "pairing":
        return pairing_election(devices, N, model=model), "", ""
    if proto == "binary_search":
        return binary_search_election(devices, N, model=model), "", ""
    if proto == "halving":
        k = _halving_k(args)
        report = halving_tradeoff_election(devices, N, k, model=model)
        return report, "", str(k)
    if proto == "tradeoff":
        report = partition_tradeoff_election(devices, family, model=model)
        return report, str(family.b), str(family.K)
    if proto in DENSE_WALKS:
        b = args.b if args.b is not None else choose_dense_b(N, len(devices))
        run = (dense_simple_election if proto == "dense_simple"
               else dense_improved_election)
        return run(devices, N, b, model=model), str(b), ""
    return exponential_search_election(devices, N, model=model), "", ""


def run_experiment(args):
    """Execute the experiment described by parsed args.

    Returns (csv records, aggregate records, [(transcript name, text)],
    attempt records); all four deterministic functions of the arguments.
    Transcripts are serialized only for --emit-transcripts."""
    model = _model_for(args)
    subsets = generate_subsets(args)
    if args.protocol in DENSE_WALKS and args.b is None:
        for devices in subsets:
            if len(devices) < 2:
                raise ValueError(f"device set {devices}: without --b the "
                                 f"{args.protocol} walk needs n >= 2 devices")
    family = load_family(args.family) if args.family else None
    if args.protocol == "tradeoff":
        n = args.n if args.n is not None else max(map(len, subsets))
        family = choose_params(args.N, n, args.k, args.epsilon,
                               seed=args.seed, family=family)

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
        _mean(sum(r.rounds for r in reports), len(reports)),
        str(max(r.ledger.max_energy for r in reports)),
        _mean(sum(r.ledger.max_energy for r in reports), len(reports)),
        str(all(r.strict_success for r in reports)).lower(),
        str(all(r.easy_success for r in reports)).lower(),
    )
    return rows, [agg], transcripts, attempt_rows


def run_checks(args) -> List[Record]:
    if args.N > 1 << 14:
        # pairing alone holds N canonical sequences of about N slots each
        raise ValueError("--checks refuses N > 2^14 (N^2 memory)")
    strong = ProtocolConfig(model=CdModel.STRONG_CD, N=args.N)
    rows = []
    for name, factory, config in (
            ("binary_search", BinarySearchElectionProgram, strong),
            ("halving", HalvingTradeoffProgram,
             ProtocolConfig(model=CdModel.STRONG_CD, N=args.N,
                            k=_halving_k(args))),
            ("pairing", PairingElectionProgram, strong)):
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
    budget = factory.schedule_length(strong)
    count = potential_active_slots(factory, 1, strong, budget)
    rows.append(_record(
        CHECK_HEADER, "potential_active_slots", "binary_search", str(args.N),
        str(budget), str(budget),
        "ok" if count <= 1 << budget else "violation",
        str(count),
    ))
    return rows


def _table(header: str, records: Iterable[Record]) -> str:
    """Header plus one CSV line per record."""
    columns = header.split(",")
    lines = [header] + [",".join(r[c] for c in columns) for r in records]
    return "\n".join(lines) + "\n"


def _make_dirs(path: str) -> List[str]:
    """`os.makedirs(path, exist_ok=True)`; returns the directories it
    made, deepest first."""
    made = []
    d = os.path.abspath(path)
    while not os.path.exists(d):
        made.append(d)
        d = os.path.dirname(d)
    os.makedirs(path, exist_ok=True)
    return made


def _targets(paths: Iterable[str]) -> List[str]:
    """The file each path resolves to, following symlinks, dangling ones
    too.  Refused when two paths resolve to one file, or when renaming a
    file onto a target would change more than its bytes: it must be new,
    or a plain file with one link that this user owns and may write, of
    the group a new file next to it would get, in a directory this user
    may write; not a directory, a device, a FIFO or a shared file."""
    reals: Dict[str, None] = {}  # a dict, to keep the order of the paths
    for path in paths:
        real = os.path.realpath(path)
        if real in reals:
            raise ValueError(f"{path} and another output name one file")
        reals[real] = None
        try:
            st = os.stat(path)
        except FileNotFoundError:
            continue
        head = os.path.dirname(real)
        dir_st = os.stat(head)
        group = (dir_st.st_gid if dir_st.st_mode & stat.S_ISGID
                 else os.getegid())
        if not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                and st.st_uid == os.geteuid() and st.st_gid == group
                and os.access(path, os.W_OK)
                and os.access(head, os.W_OK | os.X_OK)):
            raise ValueError(f"{path} must be new or a plain file with one "
                             f"link that this user owns and may replace")
    return list(reals)


def _write_all(files: Sequence[Tuple[str, str]]) -> None:
    """Write each (path, text), all or nothing as far as writing goes:
    each text goes to a temporary name next to the `_targets` file of its
    path, and once all are written each is renamed onto its target, with
    the target's mode if it has one.  An error names the path.  One raised
    before the renames leaves no temporary file and no target changed; a
    failed rename can leave the targets renamed before it changed."""
    staged: List[Tuple[str, str]] = []
    try:
        for i, ((path, text), real) in enumerate(
                zip(files, _targets(path for path, _ in files))):
            head, tail = os.path.split(real)
            tmp = os.path.join(head, f".{tail}.{os.getpid()}.{i}.tmp")
            try:
                with open(tmp, "w") as fh:
                    staged.append((tmp, real))
                    fh.write(text)
                if os.path.exists(real):
                    shutil.copymode(real, tmp)
            except OSError as exc:
                exc.filename = path
                raise
        for tmp, real in staged:
            os.replace(tmp, real)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.protocol is None and not args.checks:
        parser.error("--protocol is required unless --checks is given")

    # every output is built first and written by one _write_all, so a
    # refused invocation writes nothing, stdout included
    files: List[Tuple[str, str]] = []
    printed: List[str] = []

    def table(path: Optional[str], header: str, records) -> None:
        text = _table(header, records)
        if path is None:
            printed.append(text)
        else:
            files.append((path, text))

    def sibling(suffix: str) -> Optional[str]:
        return None if args.out is None else args.out + suffix

    made: List[str] = []
    try:
        if args.N < 1:
            raise ValueError("--N must be at least 1")
        _refuse_options(args)
        for option in ("out", "json_out", "emit_transcripts", "family",
                       "subsets_file"):
            if getattr(args, option) == "":
                raise ValueError(f"--{option.replace('_', '-')} must name a "
                                 f"path, not ''")
        siblings = () if args.checks else (".agg.csv", ".attempts.csv")
        _targets(filter(None, [args.out, args.json_out,
                               *map(sibling, siblings)]))
        real = args.out and os.path.realpath(args.out)
        if real and os.path.dirname(real) != os.path.realpath(
                os.path.dirname(os.path.abspath(args.out))):
            raise ValueError(f"--out names the other tables next to it, so "
                             f"it may link only within its directory, not "
                             f"{args.out} -> {real}")
        if args.emit_transcripts:
            made = _make_dirs(args.emit_transcripts)
        if args.checks:
            rows = run_checks(args)
            table(args.out, CHECK_HEADER, rows)
            payload = rows
        else:
            rows, aggs, transcripts, attempt_rows = run_experiment(args)
            table(args.out, CSV_HEADER, rows)
            table(sibling(".agg.csv"), AGG_HEADER, aggs)
            if attempt_rows:
                table(sibling(".attempts.csv"), ATTEMPT_HEADER, attempt_rows)
            if args.emit_transcripts:
                files += [(os.path.join(args.emit_transcripts, name), text)
                          for name, text in transcripts]
            payload = {"runs": rows, "aggregates": aggs}
        if args.json_out:
            files.append((args.json_out, json.dumps(payload, sort_keys=True) + "\n"))
        _write_all(files)
    except BaseException as exc:
        for d in made:
            with contextlib.suppress(OSError):
                os.rmdir(d)
        if not isinstance(exc, (ValueError, OSError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write("".join(printed))

    if args.assert_success:
        bad = sum(1 for r in rows if r["strict"] == "false")
        if bad:
            print(f"{bad} run(s) missed strict success", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
