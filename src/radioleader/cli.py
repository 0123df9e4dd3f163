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
an output that cannot be opened or written, which prints one `error: ...`
line and writes nothing: a new or plain output file is written to a
temporary name next to its path, any other output (a symlink, a device)
is opened without truncating it, and only once all of that succeeded are
the temporary files renamed onto their paths and the others written.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
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
    "density": ("the density list (fractions such as 1,1/2,1/4 or 2^-3)",
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


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")
_INTEGER = re.compile(r"\s*([-+]?)(\d+(?:_\d+)*)\s*")


_MAX_DIGITS = 4300  # int() refuses a longer decimal string


def _bounded_int(text: str, bound: int) -> int:
    """int(text), but one of more digits than `bound` is read as bound + 1
    or + 2 with its sign and parity: past `bound` an exponent needs only
    those, and an id is out of range anyway (int() refuses over 4,300
    digits)."""
    match = _INTEGER.fullmatch(text)
    if match is None:
        return int(text)  # not an integer: int() names the fault
    digits = match[2].replace("_", "").lstrip("0") or "0"
    if len(digits) > len(str(bound)):
        digits = str(bound + 2 - (bound + int(digits[-1])) % 2)
    return int(match[1] + digits)


def _digits_fit(text: str, piece: str) -> str:
    """`text`, the part of density `piece` that int() or Fraction() reads
    next, refused when it has more digits than int() reads (an exponent
    past the cap is read by `_bounded_int` instead)."""
    if sum(map(str.isdecimal, text)) > _MAX_DIGITS:
        raise ValueError(f"density {piece} has more than {_MAX_DIGITS} digits")
    return text


def _parse_density(text: str, N: int) -> List[Fraction]:
    # base^expo with |base| >= 2 and |expo| > cap is above 1 or negative
    # (refused), or at most 1/(2N): a one-device set, like base^-cap (cap
    # is even, so that is positive).  Taking such a power exactly could
    # run for minutes.  So could a decimal m·10^expo: its mantissa m has
    # fewer than len(piece) digits on either side of the point, so past
    # |expo| > cap + len(piece) it is outside (0, 1] or below 10^-cap
    cap = 2 * N.bit_length() + 2
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            if "^" in piece:
                base, _, expo = piece.partition("^")
                base = int(_digits_fit(base, piece))
                expo = _bounded_int(expo, cap)
                if abs(base) >= 2 and abs(expo) > cap:
                    if expo > 0 or (base < 0 and expo % 2):
                        raise ValueError(f"density {piece} outside (0, 1]")
                    expo = -cap
                out.append(Fraction(base) ** expo)
            else:
                decimal = _EXPONENT.search(piece)
                limit = cap + len(piece)
                expo = (_bounded_int(decimal[1], limit)
                        if decimal and "/" not in piece else 0)
                if abs(expo) > limit:
                    c = Fraction(_digits_fit(piece[:decimal.start()], piece))
                    if c <= 0 or expo > 0:
                        raise ValueError(f"density {piece} outside (0, 1]")
                    out.append(c / 10 ** limit)
                else:
                    out.append(Fraction(_digits_fit(piece, piece)))
        except ZeroDivisionError:
            raise ValueError(f"density {piece} divides by zero") from None
    if not out:
        raise ValueError("empty density list")
    for c in out:
        if not (0 < c <= 1):
            raise ValueError(f"density {c} outside (0, 1]")
    return out


def _parse_ids(text: str, N: int) -> List[int]:
    ids = sorted({_bounded_int(tok, N) for tok in text.replace(",", " ").split()})
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
        f"{sum(r.rounds for r in reports) / len(reports):.4f}",
        str(max(r.ledger.max_energy for r in reports)),
        f"{sum(r.ledger.max_energy for r in reports) / len(reports):.4f}",
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


def _staged(path: str) -> bool:
    """Whether `path` gets its text by renaming a temporary file onto it,
    which it may when renaming changes nothing but its bytes: when it
    does not exist yet, or is a plain file with one link that this user
    owns and may write, of the group a new file next to it would get, in
    a directory this user may write.  Any other path (a symlink, a device
    such as /dev/null, a file of someone else's) is written through, so
    its directory entry, owner and mode stay as they are."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        return True
    head = os.path.dirname(path) or "."
    dir_st = os.stat(head)
    group = (dir_st.st_gid if dir_st.st_mode & stat.S_ISGID
             else os.getegid())
    return (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
            and st.st_uid == os.geteuid() and st.st_gid == group
            and os.access(path, os.W_OK)
            and os.access(head, os.W_OK | os.X_OK))


def _write_all(files: Sequence[Tuple[str, str]]) -> None:
    """Write each (path, text), all or nothing as far as opening and
    writing go.  Each text for a `_staged` path is written to a temporary
    name next to it, and every other path is opened without truncating
    it; only once all of that succeeded are the temporary files renamed
    onto their paths and the other paths truncated and written.  An error
    names the path.  One raised before that point leaves no temporary
    file and no path changed; a rename or a write-through that fails
    after it can leave the paths handled before it changed."""
    staged: List[Tuple[str, str]] = []
    through = []
    try:
        for i, (path, text) in enumerate(files):
            try:
                if os.path.isdir(path):
                    raise IsADirectoryError(
                        errno.EISDIR, os.strerror(errno.EISDIR), path)
                if not _staged(path):
                    # O_CREAT only matters for a dangling symlink, whose
                    # target is removed again if a later path fails
                    created = not os.path.exists(path)
                    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
                    through.append((os.fdopen(fd, "w"), path, text, created))
                    continue
                head, tail = os.path.split(path)
                tmp = os.path.join(head, f".{tail}.{os.getpid()}.{i}.tmp")
                with open(tmp, "w") as fh:
                    staged.append((tmp, path))
                    fh.write(text)
                if os.path.exists(path):
                    shutil.copymode(path, tmp)
            except OSError as exc:
                exc.filename = path
                raise
        for tmp, path in staged:
            os.replace(tmp, path)
        for fh, path, text, _ in through:
            try:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate(0)
                fh.write(text)
                fh.flush()
            except OSError as exc:
                exc.filename = path
                raise
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
        for _, path, _, created in through:
            if created:
                with contextlib.suppress(OSError):
                    os.remove(os.path.realpath(path))
        raise
    finally:
        for fh, *_ in through:
            with contextlib.suppress(OSError):
                fh.close()


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
        for option in ("out", "json_out", "emit_transcripts"):
            if getattr(args, option) == "":
                raise ValueError(f"--{option.replace('_', '-')} must name a "
                                 f"path, not ''")
        if args.out and os.path.exists(args.out) and not os.path.isfile(args.out):
            raise ValueError(f"--out names the other tables too, so it must be "
                             f"a regular file or a new path, not {args.out}")
        real = args.out and os.path.realpath(args.out)
        if real and os.path.dirname(real) != os.path.realpath(
                os.path.dirname(os.path.abspath(args.out))):
            raise ValueError(f"--out names the other tables next to it, so "
                             f"it may link only within its directory, not "
                             f"{args.out} -> {real}")
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
                made = _make_dirs(args.emit_transcripts)
                files += [(os.path.join(args.emit_transcripts, name), text)
                          for name, text in transcripts]
            payload = {"runs": rows, "aggregates": aggs}
        if args.json_out:
            files.append((args.json_out, json.dumps(payload, sort_keys=True) + "\n"))
        _write_all(files)
    except (ValueError, OSError) as exc:
        for d in made:
            with contextlib.suppress(OSError):
                os.rmdir(d)
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
