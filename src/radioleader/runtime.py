"""Deterministic round-synchronous executor for device programs.

A device program is an automaton attached to one device id.  Its schedule is
oblivious: `schedule_length(config)` depends only on the protocol
configuration, never on which devices exist or what they hear.  The program
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

Energy is the number of non-idle slots per device; idling is free.

The transcript hash is a 64-bit FNV-1a fold, absorbed in this exact order:
the header line ``model N rounds id1,id2,...`` followed by each serialized
event line, every line terminated by a newline.  Two runs agree on the hash
iff they agree on the header and the full event sequence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Tuple

from .channel import (
    Action,
    CdModel,
    Feedback,
    Payload,
    resolve_slot,
)


class ScheduleOverrun(RuntimeError):
    """A program acted outside its declared schedule."""


class NonDeterminism(RuntimeError):
    """Two replays of the same run diverged."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Static, globally known parameters of a run.

    N is the size of the id space; device ids are in 1..N.  The remaining
    fields are protocol-specific knobs and may stay None.
    """

    model: CdModel
    N: int
    k: Optional[int] = None
    b: Optional[int] = None
    inner_election: Optional[str] = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("id space must have size >= 1")


@dataclass(frozen=True, slots=True)
class Verdict:
    is_leader: bool
    rank: Optional[int] = None


class DeviceProgram:
    """Base class for device automatons; subclasses implement run()."""

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
    def announce(self, slot: int, is_winner: bool):
        if is_winner:
            yield (slot, Action("transmit", self.device_id))
            self.won = True
            self.leader_id = self.device_id
        else:
            fb = yield (slot, Action("listen"))
            if fb.kind == "received":
                self.leader_id = fb.payload


class ProgramFactory(Protocol):
    def __call__(self, device_id: int, config: ProtocolConfig) -> DeviceProgram: ...

    def schedule_length(self, config: ProtocolConfig) -> int: ...


class BoundFactory:
    """Binds extra constructor arguments onto a program class."""

    def __init__(self, cls, **extra):
        self.cls = cls
        self.extra = extra

    def __call__(self, device_id: int, config: ProtocolConfig) -> DeviceProgram:
        return self.cls(device_id, config, **self.extra)

    def schedule_length(self, config: ProtocolConfig) -> int:
        return self.cls.schedule_length(config, **self.extra)


Event = Tuple[int, int, Action, Feedback]


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
        lines = []
        for rnd, dev, action, fb in self.events:
            lines.append(
                f"{rnd}\t{dev}\t{_ACTION_TAG[action.kind]}\t"
                f"{_payload_text(action.payload)}\t{_feedback_text(fb)}"
            )
        return "\n".join(lines) + ("\n" if lines else "")

    def hash64(self) -> int:
        h = 0xCBF29CE484222325
        prime = 0x100000001B3
        mask = (1 << 64) - 1

        def absorb(text: str):
            nonlocal h
            for byte in text.encode("ascii"):
                h ^= byte
                h = (h * prime) & mask

        ids = ",".join(str(i) for i in self.device_ids)
        absorb(f"{self.model.value} {self.N} {self.rounds} {ids}\n")
        for rnd, dev, action, fb in self.events:
            absorb(
                f"{rnd}\t{dev}\t{_ACTION_TAG[action.kind]}\t"
                f"{_payload_text(action.payload)}\t{_feedback_text(fb)}\n"
            )
        return h


@dataclass(frozen=True)
class EnergyLedger:
    counts: Dict[int, int]
    rounds: int

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
        return cls(counts=counts, rounds=transcript.rounds)


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


def run_programs(
    factory: ProgramFactory,
    devices: Iterable[int],
    config: ProtocolConfig,
) -> Tuple[RunReport, Dict[int, DeviceProgram]]:
    """Execute one run and also hand back the program objects.

    The program objects let phase-level drivers read protocol state that a
    Verdict does not carry (survivor sets, census views, ...).
    """
    ids = sorted(set(devices))
    if not ids:
        raise ValueError("device set must be nonempty")
    if ids[0] < 1 or ids[-1] > config.N:
        raise ValueError(f"device ids must lie in 1..{config.N}")

    total_rounds = factory.schedule_length(config)
    programs: Dict[int, DeviceProgram] = {}
    gens: Dict[int, object] = {}
    offers: Dict[int, Tuple[int, Action]] = {}
    heap: List[Tuple[int, int]] = []

    def take_offer(dev: int, item, prev_round: int):
        if item is None:
            return
        if (
            not isinstance(item, tuple)
            or len(item) != 2
            or not isinstance(item[0], int)
            or not isinstance(item[1], Action)
        ):
            raise ScheduleOverrun(f"device {dev} yielded malformed slot {item!r}")
        rnd, action = item
        if action.kind not in ("listen", "transmit"):
            raise ScheduleOverrun(
                f"device {dev} yielded action kind {action.kind!r}; "
                "only 'listen' and 'transmit' may be offered"
            )
        if rnd <= prev_round or rnd >= total_rounds:
            raise ScheduleOverrun(
                f"device {dev} requested round {rnd} outside its schedule "
                f"(previous {prev_round}, length {total_rounds})"
            )
        offers[dev] = (rnd, action)
        heapq.heappush(heap, (rnd, dev))

    for dev in ids:
        prog = factory(dev, config)
        programs[dev] = prog
        gen = prog.run()
        gens[dev] = gen
        try:
            first = next(gen)
        except StopIteration:
            first = None
        take_offer(dev, first, -1)

    events: List[Event] = []
    counts = {dev: 0 for dev in ids}
    easy = False

    while heap:
        rnd = heap[0][0]
        batch: Dict[int, Action] = {}
        while heap and heap[0][0] == rnd:
            _, dev = heapq.heappop(heap)
            batch[dev] = offers.pop(dev)[1]
        outcome = resolve_slot(config.model, batch)
        if outcome.transmitter_count == 1 and any(
            a.kind == "listen" for a in batch.values()
        ):
            easy = True
        for dev in sorted(batch):
            action = batch[dev]
            fb = outcome.feedback[dev]
            events.append((rnd, dev, action, fb))
            counts[dev] += 1
            try:
                item = gens[dev].send(fb)
            except StopIteration:
                item = None
            take_offer(dev, item, rnd)

    transcript = Transcript(
        model=config.model,
        N=config.N,
        rounds=total_rounds,
        device_ids=tuple(ids),
        events=events,
    )
    verdicts = {dev: programs[dev].finish() for dev in ids}
    ledger = EnergyLedger(counts=counts, rounds=total_rounds)
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
    return report, programs


def execute(
    factory: ProgramFactory,
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
