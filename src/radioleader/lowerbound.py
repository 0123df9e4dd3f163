"""Necessary-condition checkers for deterministic election lower bounds.

These do not prove a lower bound; they mechanically test the combinatorial
facts the impossibility arguments rest on, against concrete protocol
implementations at desk scale:

  * canonical sequences: the I/L/T pattern a device settles into when the
    channel never delivers anything (listeners hear silence, transmitters
    learn nothing or see a collision, depending on the feedback style);
  * uniqueness: two distinct ids must not produce identical canonical
    sequences, else running exactly that pair leaves them in lockstep
    forever and both or neither win;
  * matching counts: how many of 2^t pattern words are consistent with a
    canonical sequence of listen-weight <= k, which caps how much an
    adversary must branch;
  * potential active slots: replaying one device against every feedback
    history with at most k non-idle steps touches <= 2^k distinct slots.

Both replays drive one program by hand, refusing what `run_programs`
refuses: each offer is checked by `runtime.offer_error`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .channel import COLLISION, NO_FEEDBACK, SILENCE, Feedback
from .runtime import ProtocolConfig, offer_error

# Feedback styles for the adversarial channel that never delivers a message.
# receiver style: transmitters learn nothing (their side has no feedback);
# strong style: transmitters are told there was a collision.
RECEIVER_STYLE = "receiver"
STRONG_STYLE = "strong"
REPLAY_BUDGET = 1 << 20  # most replays potential_active_slots may take
_T, _L = b"TL"  # the byte values of a sequence's non-idle letters


def _forced_feedback(action_kind: str, style: str) -> Feedback:
    if action_kind == "listen":
        return SILENCE
    if style == STRONG_STYLE:
        return COLLISION
    return NO_FEEDBACK


def _replay(program, length: int):
    """The checked offers of program.run() on a schedule of `length`
    slots; the feedback sent back resumes the program."""
    send = program.run().send
    rnd, fb = -1, None
    while True:
        try:
            item = send(fb)
        except StopIteration:
            return
        error = offer_error(program.device_id, item, rnd, length)
        if error is not None:
            raise error
        rnd = item[0]
        fb = yield item


def canonical_sequence(factory, device_id: int, config: ProtocolConfig,
                       style: str = RECEIVER_STYLE) -> str:
    """I/L/T string of length schedule_length(config) describing what the
    device does when it never hears a message and never delivers one."""
    if style not in (RECEIVER_STYLE, STRONG_STYLE):
        raise ValueError(f"unknown feedback style {style!r}")
    length = factory.schedule_length(config)
    out = bytearray(b"I") * length
    replay = _replay(factory(device_id, config), length)
    try:
        rnd, action = next(replay)
        while True:
            out[rnd] = _T if action.kind == "transmit" else _L
            rnd, action = replay.send(_forced_feedback(action.kind, style))
    except StopIteration:
        pass
    return out.decode("ascii")


@dataclass(frozen=True)
class ViolationPair:
    id_a: int
    id_b: int
    sequence: str


def canonical_sequences(factory, config: ProtocolConfig,
                        style: str = RECEIVER_STYLE) -> Iterator[str]:
    """The canonical sequences of ids 1..N in id order, made one at a time."""
    for ident in range(1, config.N + 1):
        yield canonical_sequence(factory, ident, config, style=style)


def first_duplicate(sequences: Iterable[str]) -> Optional[ViolationPair]:
    """The first pair of ids with identical sequences, where the i-th
    sequence belongs to id i + 1, or None when all of them differ."""
    seen = {}
    for ident, seq in enumerate(sequences, 1):
        if seq in seen:
            return ViolationPair(seen[seq], ident, seq)
        seen[seq] = ident
    return None


def uniqueness_check(factory, config: ProtocolConfig) -> Optional[ViolationPair]:
    """Return the first pair of ids in [1..N] with identical strong-style
    canonical sequences, or None when all N sequences differ."""
    return first_duplicate(canonical_sequences(factory, config, STRONG_STYLE))


def _masks(sequence: str) -> Tuple[int, int]:
    """(non-idle bitmask, transmit bitmask), bit p = position p."""
    nonidle = 0
    tx = 0
    for p, ch in enumerate(sequence):
        if ch == "I":
            continue
        nonidle |= 1 << p
        if ch == "T":
            tx |= 1 << p
    return nonidle, tx


def matching_count(sequences: Sequence[str], k: int) -> int:
    """Max over pattern words w in {L,T}^t of how many sequences match w,
    where a sequence matches iff every non-idle position agrees with w.

    Exhaustive over all 2^t words, so it needs t <= 20.
    Sequences must share one length t and have <= k non-idle positions."""
    if not sequences:
        return 0
    t = len(sequences[0])
    masks = []
    for seq in sequences:
        if len(seq) != t:
            raise ValueError("sequences must all have the same length")
        nonidle, tx = _masks(seq)
        if bin(nonidle).count("1") > k:
            raise ValueError(f"sequence exceeds the energy budget k={k}")
        masks.append((nonidle, tx))

    if t > 20:
        raise ValueError(f"matching needs t <= 20, got t={t}")
    counts = [0] * (1 << t)
    full = (1 << t) - 1
    for nonidle, tx in masks:
        free = full & ~nonidle
        # enumerate submasks of the free positions; w = tx | submask
        sub = free
        while True:
            counts[tx | sub] += 1
            if sub == 0:
                break
            sub = (sub - 1) & free
    return max(counts)


def sequence_budget(t: int, k: int) -> int:
    """Sum over i=1..min(k,t) of C(t,i)*2^i: how many distinct non-empty
    canonical sequences of length t fit in an energy budget of k."""
    return sum(comb(t, i) * (1 << i) for i in range(1, min(k, t) + 1))


class BudgetExceeded(RuntimeError):
    """A feedback branch drove the device past k non-idle slots."""


def potential_active_slots(factory, device_id: int, config: ProtocolConfig,
                           k: int) -> int:
    """Count the slots the device can possibly be non-idle in, over every
    adversarial feedback history (each non-idle step answered with either
    collision or silence).  Raises BudgetExceeded if any branch uses more
    than k non-idle slots; otherwise the count is at most 2^k.  Raises
    ValueError before the first replay when the up to 2^(min(k, t)+1)
    replays, for a schedule of t slots, exceed REPLAY_BUDGET."""
    t = factory.schedule_length(config)
    if min(k, t) + 1 >= REPLAY_BUDGET.bit_length():
        raise ValueError(f"k={k} on a schedule of {t} slots may take "
                         f"2^{min(k, t) + 1} replays, over REPLAY_BUDGET")
    active = set()

    def explore(prefix: List[Feedback]):
        replay = _replay(factory(device_id, config), t)
        try:
            rnd, _ = next(replay)
            for fb in prefix:
                rnd, _ = replay.send(fb)
        except StopIteration:
            return
        # the program is now stopped at its (len(prefix)+1)-th non-idle slot
        if len(prefix) + 1 > k:
            raise BudgetExceeded(
                f"device {device_id} reached non-idle slot #{len(prefix) + 1} "
                f"with budget k={k}"
            )
        active.add(rnd)
        explore(prefix + [COLLISION])
        explore(prefix + [SILENCE])

    explore([])
    count = len(active)
    assert count <= 1 << min(k, t)
    return count

