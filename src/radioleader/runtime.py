"""Deterministic round-synchronous executor for device programs.

A device program is an automaton attached to one device id.  Its schedule is
oblivious: `schedule_length(config)` depends only on the protocol
configuration, never on which devices exist or what they hear.  The program
class is the protocol's whole declaration: it is built as
`cls(device_id, config)`, takes every run parameter from the config, and
lists in `models` the collision-detection models it is defined for, which
`run_programs` enforces.  The program
body is written as a generator that yields `(round_index, action)` pairs in
strictly increasing round order and receives the slot's feedback at each
yield; rounds it does not mention are idle.  Early termination is expressed
by simply not yielding any further slots, which is how protocols realize
"everyone stops after the announcement" without shortening the schedule.

The executor collects the actions offered for a round, resolves the slot
once, hands each participant its feedback, and records the non-idle
(round, device, action, feedback) events as the transcript.  Idle pairs are
implicit: they carry no information (feedback is always 'none') and at desk
scale writing them out would dwarf everything else.

The schedule holds one bucket of offers per occupied round and one heap
entry per such round, so a slot costs one heap operation however many
devices share it.  A slot is resolved by one `resolve_slot` call over its
bucket, sorted into ascending device order (a bucket of one offer needs no
sort).  Then, device by device in that order, the executor records the
event, resumes the program with its feedback, and checks and buckets its
next offer right there in the slot loop.  A program's first offer takes
the same path: the run opens with a round -1 in which every device is
resumed with None.  Device ids are plain ints: ids that `operator.index`
accepts are converted, and bools and other non-integers are rejected
before the run starts.

The cyclic garbage collector is paused for the duration of a run: a run
allocates hundreds of thousands of containers (event tuples, actions,
feedback, generator frames) that form no cycles, and the generational
collector would traverse all of them again each time the surviving objects
grow by a quarter, so the cost of a run would grow faster than its event
count.  The collector is re-enabled on the way out only if it was enabled
on entry.

Energy is the number of non-idle slots per device; idling is free.

The transcript hash is a 64-bit FNV-1a fold, absorbed in this exact order:
the header line ``model N rounds id1,id2,...`` followed by the serialized
event lines (exactly the text of `Transcript.serialize`), every line
terminated by a newline.  Two runs agree on the hash iff they agree on the
header and the full event sequence.  The value is the plain per-byte
FNV-1a, h = ((h ^ byte) * P) mod 2^64, but long inputs are folded in
64 KiB chunks with numpy instead of one Python step per byte.  The XOR
touches only the low byte of h, and the low byte of a product depends only
on the low bytes of its factors, so the low byte runs as its own 8-bit
automaton, computed one bit plane at a time as a prefix XOR.  Writing
h ^ byte as h + d, where d is the change of the low byte, makes the state
after a chunk a polynomial in P: h·P^L plus the sum of d[i]·P^(L-i), one
uint64 dot product against a table of powers of P built at import.  Inputs
under 1 KiB, where the fixed cost of the numpy passes exceeds the loop's,
take the per-byte loop.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from dataclasses import dataclass, field
from operator import index, itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .channel import (
    LISTEN,
    Action,
    CdModel,
    Feedback,
    Payload,
    resolve_slot,
    transmit,
)
from .partitions import PartitionFamily


class ScheduleOverrun(RuntimeError):
    """A program acted outside its declared schedule."""


class NonDeterminism(RuntimeError):
    """Two replays of the same run diverged."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Static, globally known parameters of a run: everything a program
    reads besides its own id and what it hears.

    N is the size of the id space; device ids are in 1..N.  The remaining
    fields are protocol-specific and stay None where a protocol does not
    read them: k is the halving trade-off's probe count, b the dense walks'
    block width, and family the partition trade-off's partition family.
    """

    model: CdModel
    N: int
    k: Optional[int] = None
    b: Optional[int] = None
    family: Optional[PartitionFamily] = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("id space must have size >= 1")


@dataclass(frozen=True, slots=True)
class Verdict:
    is_leader: bool
    rank: Optional[int] = None


class DeviceProgram:
    """Base class for device automatons; subclasses implement run().

    `models` lists, in CdModel order, the collision-detection models the
    protocol is defined for."""

    models: Tuple[CdModel, ...] = tuple(CdModel)

    def __init__(self, device_id: int, config: ProtocolConfig):
        self.device_id = device_id
        self.config = config
        self.won = False
        self.rank: Optional[int] = None
        self.leader_id: Optional[int] = None

    @classmethod
    def schedule_length(cls, config: ProtocolConfig) -> int:
        raise NotImplementedError

    def run(self):
        """Generator yielding (round, action), receiving Feedback."""
        raise NotImplementedError

    def finish(self) -> Verdict:
        return Verdict(is_leader=self.won, rank=self.rank)

    # Shared final slot: the winner transmits its id, everyone else listens.
    # Returns whether this device now knows the leader.
    def announce(self, slot: int, is_winner: bool):
        if is_winner:
            yield (slot, transmit(self.device_id))
            self.won = True
            self.leader_id = self.device_id
        else:
            fb = yield (slot, LISTEN)
            if fb.kind == "received":
                self.leader_id = fb.payload
        return self.leader_id is not None


Event = Tuple[int, int, Action, Feedback]

_device = itemgetter(0)  # sort key of a slot's (device, action) offers


def _payload_text(payload: Optional[Payload]) -> str:
    if payload is None:
        return "-"
    if isinstance(payload, tuple):
        return ",".join(str(x) for x in payload)
    return str(payload)


def _feedback_text(fb: Feedback) -> str:
    if fb.kind == "none":
        return "-"
    if fb.kind == "silence":
        return "S"
    if fb.kind == "collision":
        return "C"
    return "R:" + _payload_text(fb.payload)


_ACTION_TAG = {"idle": "I", "listen": "L", "transmit": "T"}


def _event_lines(events: List[Event]) -> str:
    """The event lines of `Transcript.serialize`, each ending in a newline."""
    return "".join(
        f"{rnd}\t{dev}\t{_ACTION_TAG[action.kind]}\t"
        f"{_payload_text(action.payload)}\t{_feedback_text(fb)}\n"
        for rnd, dev, action, fb in events
    )


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_SHORT = 1024  # below this many bytes the per-byte loop is faster
_CHUNK = 1 << 16
# _POWERS[_CHUNK - L:] is P^L, ..., P^1 mod 2^64 (uint64 products wrap).
_POWERS = np.cumprod(np.full(_CHUNK, _FNV_PRIME, np.uint64))[::-1]


def _fnv1a(data: bytes, h: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a of `data` from state `h`: h = ((h ^ byte) * P) mod 2^64
    per byte."""
    if len(data) < _SHORT:
        for byte in data:
            h = ((h ^ byte) * _FNV_PRIME) & _MASK64
        return h
    for start in range(0, len(data), _CHUNK):
        c = np.frombuffer(data, np.uint8, min(_CHUNK, len(data) - start), start)
        # The low byte l of the state runs on its own:
        # l' = ((l ^ c) * 0xB3) & 0xFF.  Bit j of l' is bit j of l ^ c
        # XOR bit j of ((l ^ c) mod 2^j) * 0xB3, so bit plane j is a prefix
        # XOR over terms made of the planes below it.
        low = np.zeros(len(c), np.uint8)
        plane = np.empty(len(c), bool)
        for j in range(8):
            x = (low ^ c) & ((1 << j) - 1)
            flips = ((c ^ x * 0xB3) >> j) & 1
            plane[0] = (h >> j) & 1
            np.logical_xor.accumulate(flips[:-1].view(bool), out=plane[1:])
            plane[1:] ^= plane[0]
            low |= plane.view(np.uint8) << j
        # h ^ c = h + d with d = (l ^ c) - l, so the state after the chunk
        # is h·P^L + sum of d[i]·P^(L-i), all mod 2^64.
        d = np.subtract(low ^ c, low, dtype=np.int64)
        powers = _POWERS[_CHUNK - len(c):]
        h = (h * int(powers[0]) + int(np.dot(d.view(np.uint64), powers))) & _MASK64
    return h


@dataclass
class Transcript:
    """Ordered non-idle events of one run plus the static frame around them."""

    model: CdModel
    N: int
    rounds: int
    device_ids: Tuple[int, ...]
    events: List[Event] = field(default_factory=list)

    def serialize(self) -> str:
        """One line per non-idle (round, device) event, tab-separated:
        round, id, action tag (L/T), payload, feedback.  Idle pairs are
        implicit and carry payload '-' / feedback '-'."""
        return _event_lines(self.events)

    def hash64(self) -> int:
        ids = ",".join(str(i) for i in self.device_ids)
        header = f"{self.model.value} {self.N} {self.rounds} {ids}\n"
        h = _fnv1a(header.encode("ascii"))
        return _fnv1a(_event_lines(self.events).encode("ascii"), h)


@dataclass(frozen=True)
class EnergyLedger:
    counts: Dict[int, int]

    @property
    def max_energy(self) -> int:
        return max(self.counts.values()) if self.counts else 0

    @classmethod
    def recount(cls, transcript: Transcript) -> "EnergyLedger":
        """Independent tally straight from the transcript events."""
        counts = {dev: 0 for dev in transcript.device_ids}
        for _, dev, action, _ in transcript.events:
            if action.kind != "idle":
                counts[dev] += 1
        return cls(counts=counts)


@dataclass
class RunReport:
    model: CdModel
    N: int
    device_ids: Tuple[int, ...]
    verdicts: Dict[int, Verdict]
    ledger: EnergyLedger
    strict_success: bool
    easy_success: bool
    transcript_hash: int
    rounds: int
    transcript: Transcript
    attempts: Optional[tuple] = None

    @property
    def leader(self) -> Optional[int]:
        for dev, v in self.verdicts.items():
            if v.is_leader:
                return dev
        return None

    @property
    def n(self) -> int:
        return len(self.device_ids)


def check_strict_success(verdicts: Dict[int, Verdict]) -> bool:
    """Exactly one device reports itself leader."""
    return sum(1 for v in verdicts.values() if v.is_leader) == 1


def check_easy_success(transcript: Transcript) -> bool:
    """Some round has exactly one transmitter and at least one listener."""
    per_round: Dict[int, List[str]] = {}
    for rnd, _, action, _ in transcript.events:
        per_round.setdefault(rnd, []).append(action.kind)
    for kinds in per_round.values():
        if kinds.count("transmit") == 1 and "listen" in kinds:
            return True
    return False


def _device_id(dev) -> int:
    """A device id as a plain int: bools and non-integers are rejected."""
    if not isinstance(dev, bool):
        try:
            return index(dev)
        except TypeError:
            pass
    raise ValueError(f"device ids must be integers, not {dev!r}")


def run_programs(
    factory: type[DeviceProgram],
    devices: Iterable[int],
    config: ProtocolConfig,
) -> Tuple[RunReport, Dict[int, DeviceProgram]]:
    """Execute one run and also hand back the program objects.

    The program objects let phase-level drivers read protocol state that a
    Verdict does not carry (survivor sets, census views, ...).
    """
    ids = sorted({d if type(d) is int else _device_id(d) for d in devices})
    if not ids:
        raise ValueError("device set must be nonempty")
    if ids[0] < 1 or ids[-1] > config.N:
        raise ValueError(f"device ids must lie in 1..{config.N}")
    if config.model not in factory.models:
        allowed = ", ".join(m.value for m in factory.models)
        raise ValueError(
            f"{factory.__name__} is defined for {allowed}, not {config.model.value}"
        )

    total_rounds = factory.schedule_length(config)
    slots: Dict[int, List[Tuple[int, Action]]] = {}
    rounds: List[int] = []
    events: List[Event] = []
    counts = {dev: 0 for dev in ids}
    easy = False

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        programs = {dev: factory(dev, config) for dev in ids}
        gens = {dev: prog.run() for dev, prog in programs.items()}
        # Round -1 starts every program: sending None is the first next().
        rnd = -1
        bucket = [(dev, None) for dev in ids]
        feedback = dict.fromkeys(ids)
        while True:
            for dev, action in bucket:
                fb = feedback[dev]
                if action is not None:
                    events.append((rnd, dev, action, fb))
                    counts[dev] += 1
                try:
                    item = gens[dev].send(fb)
                except StopIteration:
                    continue
                if (
                    not isinstance(item, tuple)
                    or len(item) != 2
                    or not isinstance(item[0], int)
                    or not isinstance(item[1], Action)
                ):
                    raise ScheduleOverrun(
                        f"device {dev} yielded malformed slot {item!r}"
                    )
                nxt, offer = item
                if offer.kind not in ("listen", "transmit"):
                    raise ScheduleOverrun(
                        f"device {dev} yielded action kind {offer.kind!r}; "
                        "only 'listen' and 'transmit' may be offered"
                    )
                if nxt <= rnd or nxt >= total_rounds:
                    raise ScheduleOverrun(
                        f"device {dev} requested round {nxt} outside its "
                        f"schedule (previous {rnd}, length {total_rounds})"
                    )
                offers = slots.get(nxt)
                if offers is None:
                    slots[nxt] = [(dev, offer)]
                    heappush(rounds, nxt)
                else:
                    offers.append((dev, offer))
            if not rounds:
                break
            rnd = heappop(rounds)
            bucket = slots.pop(rnd)
            if len(bucket) > 1:
                bucket.sort(key=_device)
            outcome = resolve_slot(config.model, dict(bucket))
            feedback = outcome.feedback
            if not easy and outcome.transmitter_count == 1 and any(
                a.kind == "listen" for _, a in bucket
            ):
                easy = True

        transcript = Transcript(
            model=config.model,
            N=config.N,
            rounds=total_rounds,
            device_ids=tuple(ids),
            events=events,
        )
        verdicts = {dev: programs[dev].finish() for dev in ids}
        ledger = EnergyLedger(counts=counts)
        report = RunReport(
            model=config.model,
            N=config.N,
            device_ids=tuple(ids),
            verdicts=verdicts,
            ledger=ledger,
            strict_success=check_strict_success(verdicts),
            easy_success=easy,
            transcript_hash=transcript.hash64(),
            rounds=total_rounds,
            transcript=transcript,
        )
    finally:
        if gc_was_enabled:
            gc.enable()
    return report, programs


def execute(
    factory: type[DeviceProgram],
    devices: Iterable[int],
    config: ProtocolConfig,
    check_replay: bool = False,
) -> RunReport:
    """Run a protocol once; with check_replay=True run it twice and require
    bit-identical transcripts (guards against hidden run-to-run state)."""
    report, _ = run_programs(factory, devices, config)
    if check_replay:
        replay, _ = run_programs(factory, devices, config)
        if replay.transcript_hash != report.transcript_hash:
            raise NonDeterminism(
                f"replay diverged: {report.transcript_hash:#x} vs "
                f"{replay.transcript_hash:#x}"
            )
    return report
