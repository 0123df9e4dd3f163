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

A transcript stores its events as columns, not as one tuple per event.
Event i has its round in `event_rounds` (an `array('q')`, or a list when
the schedule passes 2^63 rounds), its device as a position in the sorted
`device_ids` in `event_devices` (an `array('i')`), and one byte in
`event_codes`: bit 2 tells a transmit from a listen, and bits 0-1 give
the feedback kind (none, silence, collision, received).  Only an event
whose code carries a payload, a transmit or a listen that received,
appends one to `event_payloads`; a transmitter that received hears its
own payload, so one entry serves both.  No Action or Feedback object is
kept, and a listen carries no payload (an Action checks that), so the
codes lose nothing.  A listen receives exactly when its slot has one
transmitter, so easy success is a code 3.  `Transcript.events` is read
by iterating: it rebuilds equal (round, device, Action, Feedback) tuples
from the start, and its `len` is the length of a column.  The energy
tally, `serialize`, the hash and exponential search's attempt summaries
read the columns.  At N = 2^14 with every id present a transcript keeps
24, 21 and 37 bytes per event for pairing, binary search and exponential
search, where a list of event tuples kept 112, 85 and 148 (tracemalloc).
Recording takes three or four appends per event instead of one tuple:
`array.append` costs about 80 ns and `list.append` 28 (timeit, Python
3.11, shared 2-vCPU x86-64 VM).

The schedule holds one bucket of offers per occupied round and one heap
entry per such round, so a slot costs one heap operation however many
devices share it.  Most slots of a sparse run hold one offer, though, and
most of those are the next slot of the device resumed last.  So the last
device of a slot runs ahead: while its next offer is for a round earlier
than the heap's top when it offers (the slot's earlier devices may have
scheduled earlier rounds), that round holds only this offer and runs at
once under channel's lone-slot rule, with no bucket, heap operation or
`resolve_slot` call.  Every other offer is scheduled.  A scheduled round
that still holds one offer when it is popped (its device was not last in
its slot, or the heap held an earlier round) takes the same rule, and
only a round of two or more offers is resolved: its offers are sorted
into device order by a plain `list.sort()` (a device has at most one
outstanding offer, so the sort never compares two actions) and passed to
one `resolve_slot` call.  At seed 1 that leaves 43,158 of the benchmark's
213,090 `sparse_search` slots to `resolve_slot`.

`resolve_slot` returns what the slot's listeners hear and what its
transmitters hear.  Then, device by device, the executor picks the
feedback of the device's action kind, records the event, resumes the
program through its `send` (bound once per run), and checks and
schedules its next offer right there in the slot loop.  An offer must be
a plain `tuple` of an `int` round and an `Action` (exact types, so a bool
round is refused) for a round after the device's previous one and inside
the schedule; the loop tests that inline, unpacking the offer once, and
raises what `offer_error` names.  A program's first offer takes the same
path: the run opens with a round -1 in which every device is resumed with
None.  Round -1's bucket is a lazy `zip` of the positions with None, not
a list of n pairs: such a list would still be alive when the last device
makes its first offer, which is a full-density run's peak, with every
device waiting at once.  A slot's last device, which may run ahead, is
read from its bucket once the bucket is sorted.  Device ids are plain
ints: ids that `operator.index` accepts are converted, and bools and
other non-integers are rejected before the run starts.

The cyclic garbage collector is paused by one context manager,
`collector_paused`, around a run and around a whole CLI sweep (every run
of the sweep and the bulk hash of its transcripts).  A run allocates
hundreds of thousands of containers (offer tuples, actions, feedback,
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
`unfreeze` would release them too.  A program's outcome fields (won,
rank, leader_id) are class-level defaults that a device shadows only once
it sets them.  A device that neither won nor holds a rank, as most devices
of a run, gets one shared Verdict(False).

`run_programs` is the one way to run a program.  It returns the report
and the list of programs it ran, in `device_ids` order.

Energy is the number of non-idle slots per device; idling is free.  It is
tallied once the run ends, by one `np.bincount` of the device column.

The transcript hash is a 64-bit FNV-1a fold, absorbed in this exact order:
the header line ``model N rounds id1,id2,...`` followed by the serialized
event lines (exactly the text of `Transcript.serialize`), every line
terminated by a newline.  The lines are formatted from the columns, and a
payload's text is made once for each run of events that carry the same
payload object, so a slot's listeners share the text of what they heard.
Two runs agree on the hash iff they agree on the header and the full
event sequence.  A run does not hash its transcript:
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
from array import array
from contextlib import contextmanager
from heapq import heappop, heappush
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import index
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .channel import (
    COLLISION,
    LISTEN,
    LONE_LISTEN,
    LONE_TRANSMIT,
    NO_FEEDBACK,
    SILENCE,
    Action,
    CdModel,
    Feedback,
    Payload,
    received,
    resolve_slot,
    transmit,
)
from .partitions import PartitionFamily


class ScheduleOverrun(RuntimeError):
    """A program acted outside its declared schedule."""


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


_NO_VERDICT = Verdict(False)  # shared by every device that neither won nor ranks


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
        if not self.won and self.rank is None:
            return _NO_VERDICT
        return Verdict(self.won, self.rank)

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

# An event's code: bit 2 is its action (0 listen, 4 transmit), bits 0-1 the
# kind of feedback it got.  Codes 3 (a listen that received) and up carry
# a payload.
_FEEDBACK_CODE = {"none": 0, "silence": 1, "collision": 2, "received": 3}
TRANSMIT = 4
_RECEIVED = _FEEDBACK_CODE["received"]
_BARE_FEEDBACK = (NO_FEEDBACK, SILENCE, COLLISION)


def _payload_text(payload: Optional[Payload]) -> str:
    if payload is None:
        return "-"
    if isinstance(payload, tuple):
        return ",".join(map(str, payload))
    return str(payload)


# the text after the device id of a listen's line, for the codes below 3
_BARE_LINE_END = ("\tL\t-\t-\n", "\tL\t-\tS\n", "\tL\t-\tC\n")
_FEEDBACK_TEXT = ("-", "S", "C")


def _event_batches(t: "Transcript") -> Iterator[str]:
    """The event lines of `Transcript.serialize`, each ending in a newline,
    _BATCH events to a string.  A payload's text is made once for a run of
    events that carry the same payload object, such as a slot's listeners."""
    ids, rounds, devices = t.device_ids, t.event_rounds, t.event_devices
    codes, payloads = t.event_codes, t.event_payloads
    k = 0  # payloads[k] is the next event's payload
    payload, text = object(), ""  # the last payload formatted, and its text
    for start in range(0, len(codes), _BATCH):
        stop = start + _BATCH
        lines = []
        add = lines.append
        for rnd, pos, code in zip(rounds[start:stop], devices[start:stop],
                                  codes[start:stop]):
            if code < _RECEIVED:
                add(f"{rnd}\t{ids[pos]}{_BARE_LINE_END[code]}")
                continue
            p = payloads[k]
            k += 1
            if p is not payload:
                payload, text = p, _payload_text(p)
            if code == _RECEIVED:
                add(f"{rnd}\t{ids[pos]}\tL\t-\tR:{text}\n")
            elif code == TRANSMIT | _RECEIVED:
                add(f"{rnd}\t{ids[pos]}\tT\t{text}\tR:{text}\n")
            else:
                add(f"{rnd}\t{ids[pos]}\tT\t{text}\t{_FEEDBACK_TEXT[code & 3]}\n")
        yield "".join(lines)


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
    ids = t.device_ids
    text = f"{t.model.value} {t.N} {t.rounds} " + ",".join(map(str, ids[:_BATCH]))
    for start in range(_BATCH, len(ids), _BATCH):
        yield text.encode("ascii")
        text = "," + ",".join(map(str, ids[start:start + _BATCH]))
    batches = _event_batches(t)
    text += "\n" + next(batches, "")
    for lines in batches:
        yield text.encode("ascii")
        text = lines
    yield text.encode("ascii")


def transcript_hashes(transcripts: Iterable["Transcript"]) -> List[int]:
    """`Transcript.hash64` of each transcript, all folded in one pass."""
    return _fnv1a_streams(map(_hashed_pieces, transcripts))


@dataclass
class Transcript:
    """Ordered non-idle events of one run plus the static frame around them.

    Event i is stored across four columns (module docstring): its round
    event_rounds[i], its device device_ids[event_devices[i]], its code
    event_codes[i], and, when the code carries one, the next payload of
    event_payloads."""

    model: CdModel
    N: int
    rounds: int
    device_ids: Tuple[int, ...]
    # an array('q'), or a list where rounds may pass 2^63 - 1
    event_rounds: Sequence[int] = field(default_factory=lambda: array("q"))
    event_devices: array = field(default_factory=lambda: array("i"))
    event_codes: bytearray = field(default_factory=bytearray)
    event_payloads: List[Optional[Payload]] = field(default_factory=list)

    @property
    def events(self) -> "Events":
        """The events as (round, device, Action, Feedback) tuples, read by
        iterating."""
        return Events(self)

    def serialize(self) -> str:
        """One line per non-idle (round, device) event, tab-separated:
        round, id, action tag (L/T), payload, feedback.  Idle pairs are
        implicit and carry payload '-' / feedback '-'."""
        return "".join(_event_batches(self))

    def hash64(self) -> int:
        return transcript_hashes([self])[0]


class Events:
    """A transcript's events, read by iterating: each is decoded from the
    columns into a (round, device, Action, Feedback) tuple.  The tuples
    equal the recorded ones; the Action and Feedback objects are rebuilt,
    or the shared constants.  `len` reads one column."""

    __slots__ = ("_t",)

    def __init__(self, transcript: Transcript):
        self._t = transcript

    def __len__(self) -> int:
        return len(self._t.event_codes)

    def __iter__(self) -> Iterator[Event]:
        t = self._t
        ids, payloads = t.device_ids, iter(t.event_payloads)
        for rnd, pos, code in zip(t.event_rounds, t.event_devices, t.event_codes):
            p = next(payloads) if code >= _RECEIVED else None
            action = transmit(p) if code & TRANSMIT else LISTEN
            fb = received(p) if code & 3 == _RECEIVED else _BARE_FEEDBACK[code & 3]
            yield rnd, ids[pos], action, fb


@dataclass(frozen=True)
class EnergyLedger:
    counts: Dict[int, int]

    @property
    def max_energy(self) -> int:
        return max(self.counts.values()) if self.counts else 0


@dataclass
class RunReport:
    model: CdModel
    N: int
    device_ids: Tuple[int, ...]
    verdicts: Dict[int, Verdict]
    ledger: EnergyLedger
    strict_success: bool
    rounds: int
    transcript: Transcript
    attempts: Optional[tuple] = None

    @cached_property
    def transcript_hash(self) -> int:
        """`Transcript.hash64`, computed on first read."""
        return self.transcript.hash64()

    @property
    def finished(self) -> int:
        """The round after the last event, 0 when there is none: when the
        devices stopped, where `rounds` is the schedule's length."""
        rounds = self.transcript.event_rounds
        return rounds[-1] + 1 if rounds else 0

    @property
    def easy_success(self) -> bool:
        """Some listen received a message: its slot had one transmitter."""
        return _RECEIVED in self.transcript.event_codes

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


def offer_error(device: int, item, previous: int,
                total: int) -> Optional[ScheduleOverrun]:
    """Why a run refuses `item`, offered by `device` after its round
    `previous` in a schedule of `total` rounds, or None if it takes it."""
    if (type(item) is not tuple or len(item) != 2
            or type(item[0]) is not int or type(item[1]) is not Action):
        return ScheduleOverrun(f"device {device} yielded malformed slot {item!r}")
    if not previous < item[0] < total:
        return ScheduleOverrun(f"device {device} requested round {item[0]} outside "
                               f"its schedule (previous {previous}, length {total})")
    return None


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
) -> Tuple[RunReport, List[DeviceProgram]]:
    """Execute one run: its report, and the program objects in
    `device_ids` order, from which a driver reads protocol state that a
    Verdict does not carry (survivor sets, census views, ...)."""
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

    model = config.model
    total_rounds = factory.schedule_length(config)
    device_ids = tuple(ids)
    # a slot's offers are (position in device_ids, action) pairs
    slots: Dict[int, List[Tuple[int, Action]]] = {}
    rounds: List[int] = []
    transcript = Transcript(
        model=model, N=config.N, rounds=total_rounds, device_ids=device_ids,
        event_rounds=array("q") if total_rounds <= 1 << 63 else [],
    )

    with collector_paused():
        programs = [factory(dev, config) for dev in ids]
        sends = [prog.run().send for prog in programs]
        # Round -1 starts every program: sending None is the first next().
        rnd = -1
        bucket = zip(range(len(ids)), repeat(None))
        last = len(ids) - 1
        listener = transmitter = None
        listen_code = transmit_code = 0
        lone_listen_code = _FEEDBACK_CODE[LONE_LISTEN.kind]
        lone_transmitter = LONE_TRANSMIT[model]
        lone_transmit_code = TRANSMIT | (_FEEDBACK_CODE[lone_transmitter.kind]
                                         if lone_transmitter else _RECEIVED)
        add_round = transcript.event_rounds.append
        add_device = transcript.event_devices.append
        add_code = transcript.event_codes.append
        add_payload = transcript.event_payloads.append
        while True:
            for pos, action in bucket:
                while True:
                    if action is None:
                        fb = None
                    elif action.kind == "listen":
                        fb = listener
                        add_round(rnd)
                        add_device(pos)
                        add_code(listen_code)
                        if listen_code == _RECEIVED:
                            add_payload(fb.payload)
                    else:
                        fb = transmitter
                        add_round(rnd)
                        add_device(pos)
                        add_code(transmit_code)
                        add_payload(action.payload)
                    try:
                        item = sends[pos](fb)
                    except StopIteration:
                        break
                    if type(item) is not tuple or len(item) != 2:
                        raise offer_error(ids[pos], item, rnd, total_rounds)
                    nxt, action = item
                    if type(nxt) is not int or type(action) is not Action:
                        raise offer_error(ids[pos], item, rnd, total_rounds)
                    if nxt <= rnd or nxt >= total_rounds:
                        raise offer_error(ids[pos], item, rnd, total_rounds)
                    if pos == last and (not rounds or nxt < rounds[0]):
                        # round nxt holds only this offer (module docstring)
                        rnd = nxt
                        if action.kind == "listen":
                            listener, listen_code = LONE_LISTEN, lone_listen_code
                        else:
                            transmitter = lone_transmitter or received(action.payload)
                            transmit_code = lone_transmit_code
                        continue
                    offers = slots.get(nxt)
                    if offers is None:
                        slots[nxt] = [(pos, action)]
                        heappush(rounds, nxt)
                    else:
                        offers.append((pos, action))
                    break
            if not rounds:
                break
            rnd = heappop(rounds)
            bucket = slots.pop(rnd)
            if len(bucket) > 1:
                bucket.sort()
                listener, transmitter = resolve_slot(model, bucket)
                listen_code = _FEEDBACK_CODE[listener.kind]
                transmit_code = TRANSMIT | _FEEDBACK_CODE[transmitter.kind]
            elif bucket[0][1].kind == "listen":  # one offer: the lone-slot rule
                listener, listen_code = LONE_LISTEN, lone_listen_code
            else:
                transmitter = lone_transmitter or received(bucket[0][1].payload)
                transmit_code = lone_transmit_code
            last = bucket[-1][0]

        verdicts = {dev: prog.finish() for dev, prog in zip(ids, programs)}
        energy = np.bincount(np.frombuffer(transcript.event_devices, np.intc),
                             minlength=len(ids))
        ledger = EnergyLedger(counts=dict(zip(ids, energy.tolist())))
        report = RunReport(
            model=model,
            N=config.N,
            device_ids=device_ids,
            verdicts=verdicts,
            ledger=ledger,
            strict_success=check_strict_success(verdicts),
            rounds=total_rounds,
            transcript=transcript,
        )
    return report, programs
