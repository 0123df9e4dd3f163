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
sort), which returns what the slot's listeners hear and what its
transmitters hear.  Then, device by device in that order, the executor
picks the feedback of the device's action kind, records the event, resumes
the program through its `send` (bound once per run), and checks and
buckets its next offer right there in the slot loop.  A program's first
offer takes the same path: the run opens with a round -1 in which every
device is resumed with None.  Every offer listens or transmits, so a slot
shows easy success exactly when it has one transmitter and more than one
offer.  Device ids are plain ints: ids that `operator.index`
accepts are converted, and bools and other non-integers are rejected
before the run starts.

The cyclic garbage collector is paused by one context manager,
`collector_paused`, around a run and around a whole CLI sweep (every run
of the sweep and the bulk hash of its transcripts).  A run allocates
hundreds of thousands of containers (event tuples, actions, feedback,
generator frames) that form no cycles, and a sweep keeps every report
alive until it hashes them; the generational collector would traverse all
of them again each time the surviving objects grow by a quarter, so the
cost would grow faster than the event count.  The collector is re-enabled
on the way out, also on an exception, only if it was enabled on entry, so
the pause of a run inside a sweep changes nothing.  Before it re-enables
the collector, the outermost pause promotes every tracked object to the
oldest generation: `gc.freeze()` splices each generation's list onto the
permanent one and zeroes the young count, and `gc.unfreeze()` splices
that list onto the oldest generation, in constant time whatever the
number of objects.  Otherwise the first allocation after the pause would
start a young collection that walks everything the run built and still
holds.  A full collection still finds any cycle among the promoted
objects.  When the caller has frozen objects of its own
(`gc.get_freeze_count()` is nonzero) the promotion is skipped, since
`unfreeze` would release them too.  A Verdict is built
like channel's slot objects, without the dataclass __init__, and a
program's outcome fields (won, rank, leader_id) are class-level defaults
that a device shadows only once it sets them.

Energy is the number of non-idle slots per device; idling is free.  It is
tallied once the run ends, by counting the device column of the events.

The transcript hash is a 64-bit FNV-1a fold, absorbed in this exact order:
the header line ``model N rounds id1,id2,...`` followed by the serialized
event lines (exactly the text of `Transcript.serialize`), every line
terminated by a newline.  Two runs agree on the hash iff they agree on the
header and the full event sequence.  A run does not hash its transcript:
`RunReport.transcript_hash` is computed on first read, and
`transcript_hashes` hashes many transcripts in one pass.

The value is the plain per-byte FNV-1a, h = ((h ^ byte) * P) mod 2^64,
folded with numpy 64 KiB at a time.  The text is streamed, 2,048 ids or
events at a time, into one buffer shared by every transcript of the pass,
so the text of a whole transcript is never built at once; each transcript
is a segment of the buffer, and one that runs past the end of the buffer
carries its state into the next.  The XOR touches only the low byte of h,
and the low byte of a product depends only on the low bytes of its
factors, so the low byte runs as its own 8-bit automaton, computed one bit
plane at a time as a prefix XOR restarted at each segment.  Writing
h ^ byte as h + d, where d is the change of the low byte, makes the state
at the end b of a segment a polynomial in P: h·P^(b-a) plus the sum of
d[i]·P^(b-i).  Weighting every d[i] by P^(L-i), for a buffer of L bytes,
gives all the segment sums in one `np.add.reduceat`, each P^(L-b) too
high; P is odd, so a table of powers of its inverse mod 2^64 scales them
back.
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager
from heapq import heappop, heappush
from dataclasses import dataclass, field
from functools import cached_property
from operator import index, itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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


# a Verdict is built without its generated __init__ (module docstring)
_new = object.__new__
_verdict_is_leader = Verdict.__dict__["is_leader"].__set__
_verdict_rank = Verdict.__dict__["rank"].__set__


class DeviceProgram:
    """Base class for device automatons; subclasses implement run().

    `models` lists, in CdModel order, the collision-detection models the
    protocol is defined for."""

    models: Tuple[CdModel, ...] = tuple(CdModel)
    won = False  # outcome defaults, shadowed once a device sets them
    rank: Optional[int] = None
    leader_id: Optional[int] = None

    def __init__(self, device_id: int, config: ProtocolConfig):
        self.device_id = device_id
        self.config = config

    @classmethod
    def schedule_length(cls, config: ProtocolConfig) -> int:
        raise NotImplementedError

    def run(self):
        """Generator yielding (round, action), receiving Feedback."""
        raise NotImplementedError

    def finish(self) -> Verdict:
        verdict = _new(Verdict)
        _verdict_is_leader(verdict, self.won)
        _verdict_rank(verdict, self.rank)
        return verdict

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
_event_device = itemgetter(1)


def _payload_text(payload: Optional[Payload]) -> str:
    if payload is None:
        return "-"
    if isinstance(payload, tuple):
        return ",".join(map(str, payload))
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
    return "".join([
        f"{rnd}\t{dev}\t{_ACTION_TAG[action.kind]}\t"
        f"{_payload_text(action.payload)}\t{_feedback_text(fb)}\n"
        for rnd, dev, action, fb in events
    ])


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_CHUNK = 1 << 16  # bytes folded in one numpy pass
_BATCH = 2048  # device ids or events formatted and encoded at a time


def _powers(base: int) -> np.ndarray:
    """base^0, ..., base^_CHUNK mod 2^64 (uint64 products wrap)."""
    out = np.ones(_CHUNK + 1, np.uint64)
    np.cumprod(np.full(_CHUNK, base, np.uint64), out=out[1:])
    return out


_POW = _powers(_FNV_PRIME)
_INV_POW = _powers(pow(_FNV_PRIME, -1, 1 << 64))  # P is odd, so invertible


def _fold(data: bytearray, length: int, starts: List[int],
          owners: List[int], states: List[int]) -> None:
    """Absorb data[:length] into `states`: segment j of the buffer runs
    from starts[j] to the next start (or `length`) and continues the
    FNV-1a state states[owners[j]], which it replaces."""
    c = np.frombuffer(data, np.uint8, length)
    begin = np.array(starts, np.intp)
    sizes = np.diff(begin, append=length)
    h = np.array([states[i] for i in owners], np.uint64)
    h_low = h.astype(np.uint8)
    # The low byte l of the state runs on its own:
    # l' = ((l ^ c) * 0xB3) & 0xFF.  Bit j of l' is bit j of l ^ c XOR bit
    # j of ((l ^ c) mod 2^j) * 0xB3, so bit plane j is a prefix XOR over
    # terms made of the planes below it, restarted at each segment.
    low = np.zeros(length, np.uint8)
    plane = np.zeros(length, bool)
    for j in range(8):
        x = (low ^ c) & ((1 << j) - 1)
        flips = ((c ^ x * 0xB3) >> j) & 1
        plane[0] = False
        np.logical_xor.accumulate(flips[:-1].view(bool), out=plane[1:])
        plane ^= np.repeat(plane[begin] ^ ((h_low >> j) & 1).view(bool), sizes)
        low |= plane.view(np.uint8) << j
    # h ^ c = h + d with d = (l ^ c) - l, so a segment from a to b ends in
    # h·P^(b-a) + sum of d[i]·P^(b-i).  Weighting d[i] by P^(length-i)
    # sums every segment in one reduceat, P^(length-b) too high.
    d = np.subtract(low ^ c, low, dtype=np.int64).view(np.uint64)
    d *= _POW[length:0:-1]
    sums = np.add.reduceat(d, begin)
    ends = h * _POW[sizes] + sums * _INV_POW[length - begin - sizes]
    for i, end in zip(owners, ends.tolist()):
        states[i] = end


def _fnv1a_streams(streams: Iterable[Iterable[bytes]]) -> List[int]:
    """The 64-bit FNV-1a, h = ((h ^ byte) * P) mod 2^64 per byte, of each
    stream of byte pieces.  The pieces go into one buffer, folded each time
    it holds _CHUNK bytes, so a stream may share a buffer with others or
    span several."""
    states: List[int] = []
    buf = bytearray()
    starts: List[int] = []  # where each stream's bytes begin in buf
    owners: List[int] = []  # and the index of that stream
    for stream in streams:
        me = len(states)
        states.append(_FNV_OFFSET)
        for piece in stream:
            if not piece:
                continue
            if not owners or owners[-1] != me:
                starts.append(len(buf))
                owners.append(me)
            buf += piece
            while len(buf) >= _CHUNK:
                _fold(buf, _CHUNK, starts, owners, states)
                del buf[:_CHUNK]
                starts, owners = ([0], [me]) if buf else ([], [])
    if buf:
        _fold(buf, len(buf), starts, owners, states)
    return states


def _hashed_pieces(t: "Transcript") -> Iterable[bytes]:
    """The bytes `Transcript.hash64` absorbs, _BATCH ids or events at a
    time: the header line, then the event lines of `serialize`."""
    ids, events = t.device_ids, t.events
    text = f"{t.model.value} {t.N} {t.rounds} " + ",".join(map(str, ids[:_BATCH]))
    for start in range(_BATCH, len(ids), _BATCH):
        yield text.encode("ascii")
        text = "," + ",".join(map(str, ids[start:start + _BATCH]))
    text += "\n" + _event_lines(events[:_BATCH])
    for start in range(_BATCH, len(events), _BATCH):
        yield text.encode("ascii")
        text = _event_lines(events[start:start + _BATCH])
    yield text.encode("ascii")


def transcript_hashes(transcripts: Iterable["Transcript"]) -> List[int]:
    """`Transcript.hash64` of each transcript, all folded in one pass."""
    return _fnv1a_streams(map(_hashed_pieces, transcripts))


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
        return transcript_hashes([self])[0]


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
    rounds: int
    transcript: Transcript
    attempts: Optional[tuple] = None

    @cached_property
    def transcript_hash(self) -> int:
        """`Transcript.hash64`, computed on first read."""
        return self.transcript.hash64()

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


def _device_id(dev) -> int:
    """A device id as a plain int: bools and non-integers are rejected."""
    if not isinstance(dev, bool):
        try:
            return index(dev)
        except TypeError:
            pass
    raise ValueError(f"device ids must be integers, not {dev!r}")


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the body and promote what it
    leaves alive to the oldest generation (module docstring); pauses nest."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


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
    easy = False

    with collector_paused():
        programs = {dev: factory(dev, config) for dev in ids}
        sends = {dev: prog.run().send for dev, prog in programs.items()}
        # Round -1 starts every program: sending None is the first next().
        rnd = -1
        bucket = [(dev, None) for dev in ids]
        listener = transmitter = None
        record = events.append
        while True:
            for dev, action in bucket:
                if action is None:
                    fb = None
                else:
                    fb = listener if action.kind == "listen" else transmitter
                    record((rnd, dev, action, fb))
                try:
                    item = sends[dev](fb)
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
            listener, transmitter, c, _ = resolve_slot(config.model, bucket)
            # every offer listens or transmits, so a lone transmitter among
            # several offers always has a listener
            if c == 1 and len(bucket) > 1:
                easy = True

        transcript = Transcript(
            model=config.model,
            N=config.N,
            rounds=total_rounds,
            device_ids=tuple(ids),
            events=events,
        )
        verdicts = {dev: programs[dev].finish() for dev in ids}
        counts = dict.fromkeys(ids, 0)
        counts.update(Counter(map(_event_device, events)))
        ledger = EnergyLedger(counts=counts)
        report = RunReport(
            model=config.model,
            N=config.N,
            device_ids=tuple(ids),
            verdicts=verdicts,
            ledger=ledger,
            strict_success=check_strict_success(verdicts),
            easy_success=easy,
            rounds=total_rounds,
            transcript=transcript,
        )
    return report, programs


def execute(
    factory: type[DeviceProgram],
    devices: Iterable[int],
    config: ProtocolConfig,
    check_replay: bool = False,
) -> RunReport:
    """Run a protocol once; with check_replay=True run it twice and raise
    NonDeterminism at the first event where the two transcripts differ."""
    report, _ = run_programs(factory, devices, config)
    if check_replay:
        replay, _ = run_programs(factory, report.device_ids, config)
        if replay.transcript != report.transcript:
            runs = (report.transcript.events, replay.transcript.events)
            i = next((i for i, (a, b) in enumerate(zip(*runs)) if a != b),
                     min(map(len, runs)))
            first, second = (events[i] if i < len(events)
                             else "end of transcript" for events in runs)
            raise NonDeterminism(
                f"replay diverged at event {i}: {first} vs {second}")
    return report
