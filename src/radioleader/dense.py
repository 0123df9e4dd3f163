"""Leader election tuned for dense instances.

The id space [1..N] is cut into blocks of width b and walked once.  Devices
discovered along the walk join one growing group and receive consecutive
integer labels; after the walk, a device's rank is its label minus the
number of blocks, so ranks only reach 1..(group size - blocks) and a group
member exists with rank 1 whenever the device count exceeds the block
count.  The rank-1 device announces itself in a final slot.

One walk builds the labelling.  Block i lasts a fixed number of rounds and
ends in a handoff slot in which the group head passes its counter to the
device heading block i + 1, so a device takes part in at most three
blocks: its own, the one it heads, and the one before that.  Each election
program names its walk once, in its `walk` class attribute, a generator
that runs all of a device's block visits and handoffs in its own frame,
and the round count of one block in `block_len`, from which _walk_len
counts the walk's rounds:

* dense_simple_election  - two slots per id: the current group head hands
  its counter to each candidate in turn.  2w + 1 rounds for a block of
  width w, time about 2N.
* dense_improved_election - a census first tells every present device its
  position within the block, after which one exchange with the head plus
  a label chain through the block replaces per-id head work.  3w + 1
  rounds for a block of width w >= 2, time about 3N, but per-device
  energy drops from O(b) to O(log b).

A walk keeps no list of the blocks it visits: it computes the next one
from the current block and its label, and each round from the block
index as it offers it.  So a waiting device holds no object of the
walk's besides its frame; the census it may be in holds its member list
and its merge slot.  In a full-density run every device waits at once,
in its first slot, and what each one holds sets the run's peak memory.

The census is a binary merge tournament over the block: representatives of
adjacent sub-ranges meet in two slots (left transmits its member list, then
the right side answers with the merged list so the left knows it may
retire); the champion broadcasts the full ascending-id list.  A device
meets at most one merge per level, so its census costs O(log b) slots; it
computes those merge slots itself, in O(log b) time and memory besides the
member list it carries, instead of walking all b - 1 merges.

exponential_search_election needs no density promise at all: it tries the
improved walk with rapidly growing block widths, tests for success in one
slot, and between failed attempts halves the id space with one knockout
level, which can only increase density.  Once the id space is a single id,
its owner self-elects.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from .channel import LISTEN, CdModel, transmit
from .protocols_core import ceil_div, pairing_level_len, pairing_level_phase
from .runtime import (
    TRANSMIT,
    DeviceProgram,
    ProtocolConfig,
    RunReport,
    _device_id,
    run_programs,
)


# ---------------------------------------------------------------------------
# census


def census_merges(block_size: int) -> List[Tuple[int, int, int, int]]:
    """Merge schedule of the binary tournament over positions 1..block_size.

    Entries are (left_lo, left_hi, right_lo, right_hi) in slot order, merge i
    taking slots 2i and 2i + 1; merges whose right side would fall wholly
    outside the block are skipped, so the list always has block_size - 1
    entries.  This is the reference schedule: census_phase derives one
    device's part of it without building it."""
    merges = []
    size = 1
    while size < block_size:
        pos = 1
        while pos + size <= block_size:
            merges.append(
                (pos, pos + size - 1, pos + size, min(pos + 2 * size - 1, block_size))
            )
            pos += 2 * size
        size *= 2
    return merges


def census_phase_len(block_size: int) -> int:
    # two slots per merge plus the champion broadcast
    return 0 if block_size <= 1 else 2 * (block_size - 1) + 1


def census_phase(pos: int, ident: int, block_size: int, base: int = 0):
    """Learn the ascending-id membership of one block, in slots starting at
    round `base`.

    `pos` is this device's position within the block (1-based), `ident` the
    id it reports.  Returns (members, index, size): the full ascending tuple
    of present ids, this device's 1-based index in it, and its length.

    A device takes part in at most one merge per level of census_merges and
    computes those merge slots directly: O(log b) slots, and O(log b) time
    and memory besides the member list, never the whole schedule."""
    if block_size <= 1:
        return (ident,), 1, 1
    members = (ident,)
    is_rep = True
    first = 0  # merges of the levels before this one
    size = 1
    while size < block_size:
        q = (pos - 1) // size  # this device's range at this level
        slot = base + 2 * (first + q // 2)
        if q % 2:
            fb = yield (slot, LISTEN)
            if fb.kind == "received":
                members = fb.payload + members
            yield (slot + 1, transmit(members))
        elif (q + 1) * size < block_size:
            yield (slot, transmit(members))
            fb = yield (slot + 1, LISTEN)
            if fb.kind == "received":
                is_rep = False  # right side occupied; its rep carries on
                break
        first += (block_size - 1 - size) // (2 * size) + 1
        size *= 2
    broadcast = base + 2 * (block_size - 1)
    if is_rep:
        yield (broadcast, transmit(members))
        full = members
    else:
        fb = yield (broadcast, LISTEN)
        full = tuple(fb.payload)
    return full, bisect_left(full, ident) + 1, len(full)


class _CensusProgram(DeviceProgram):
    """One census over the block [1..config.N]."""

    @classmethod
    def schedule_length(cls, config: ProtocolConfig) -> int:
        return max(1, census_phase_len(config.N))

    def run(self):
        self.view = yield from census_phase(
            self.device_id, self.device_id, self.config.N
        )


def census(lo: int, hi: int, present) -> Tuple[int, ...]:
    """Standalone census over the id range [lo..hi]; `present` is the set of
    ids that actually exist there.  Every present device ends up knowing the
    same ascending member list, its own index, and the size.  The run
    itself sees the ids shifted to [1..hi - lo + 1], under no_cd: a slot
    has one transmitter at most, so no model changes it.  Returns that
    ascending tuple of present ids, () when there are none."""
    ids = tuple(sorted({_device_id(d) for d in present}))
    if not ids:
        return ()
    if ids[0] < lo or ids[-1] > hi:
        raise ValueError(f"present ids must lie in [{lo}, {hi}]")
    shifted = tuple(i - lo + 1 for i in ids)
    config = ProtocolConfig(model=CdModel.NO_CD, N=hi - lo + 1)
    _, programs = run_programs(_CensusProgram, shifted, config)
    for index, (dev, program) in enumerate(zip(shifted, programs), start=1):
        if program.view != (shifted, index, len(shifted)):
            raise AssertionError(f"census views disagree for device {dev + lo - 1}")
    return ids


# ---------------------------------------------------------------------------
# the block walks


def _walk_len(space: int, b: int, block_len) -> int:
    nblocks = (space + b - 1) // b
    return (nblocks - 1) * block_len(b) + block_len(space - (nblocks - 1) * b)


def _simple_block_len(width: int) -> int:
    return 2 * width + 1


def _simple_walk(cid: int, space: int, b: int, base: int):
    """Label chain over the blocks of [1..space] in two slots per id,
    starting at round `base`.  Returns the final rank (label minus block
    count) or None.

    r is this device's label, s the counter it holds while it heads the
    group.  In block i the head offers its counter at each id and the
    candidate there answers; a candidate acts only at its own id, and the
    head, standing or founded there, acts at every id after that.  The
    block's last round is the handoff in which the head passes its
    counter on to the next block's.  Two rounds per earlier id and one
    handoff per earlier block come first, so the head offers id j of
    block i its counter in round base + 2j + i - 3, the candidate answers
    in the next, and block i's handoff is round base + 2hi + i - 1, hi its
    last id.

    A device is involved in at most three blocks: the one holding its id,
    the one whose index equals its label (head duty), and the one before
    that (handoff listen).  Everything else is skipped outright, so the
    per-device work does not grow with the block count.  The next block
    is computed from i and r, and each round from i as it is offered, so
    a waiting device holds nothing besides its frame: no list of visits
    and no round number between its offers."""
    i = home = (cid - 1) // b + 1
    r = s = None
    while True:
        if i == home:
            fb = yield (base + 2 * cid + i - 3, LISTEN)
            if fb.kind == "received":
                r = fb.payload + 1  # join behind the head's counter
            else:
                r = s = i  # nobody leads: found the group here
            yield (base + 2 * cid + i - 2, transmit(cid))
        if r == i:
            for j in range(cid + 1 if i == home else (i - 1) * b + 1,
                           min(space, i * b) + 1):
                yield (base + 2 * j + i - 3, transmit(s))
                fb = yield (base + 2 * j + i - 2, LISTEN)
                if fb.kind == "received":
                    s += 1
            # the handoff, the block's last round
            yield (base + 2 * min(space, i * b) + i - 1, transmit(s))
        elif r == i + 1:
            fb = yield (base + 2 * min(space, i * b) + i - 1, LISTEN)
            if fb.kind == "received":
                s = fb.payload
        # then block r - 1, then r, each only if it lies after home
        i = max(i + 1, r - 1)
        if i > r or (i - 1) * b >= space:
            break
    nblocks = (space + b - 1) // b
    return r - nblocks if r > nblocks else None


def _improved_block_len(width: int) -> int:
    return census_phase_len(width) + width + 2


def _improved_walk(cid: int, space: int, b: int, base: int):
    """_simple_walk's label chain, each block run as a census, one exchange
    between the head and the block's first member, then a label chain
    through the block; a standing head still runs the exchange of an empty
    block.  Block i starts in round base + (i - 1) * block_len(b).  As in
    _simple_walk the next block is computed from i and r, so a device
    waiting in its census holds nothing besides its frames; past the
    census, a visit counts its rounds from the exchange round `ex`."""
    i = home = (cid - 1) // b + 1
    r = s = None
    while True:
        width = min(b, space - (i - 1) * b)
        ex = base + (i - 1) * _improved_block_len(b)  # block i's first round
        if i == home:
            _, index, size = yield from census_phase(cid - (i - 1) * b, cid, width, ex)
        ex += census_phase_len(width)  # the exchange round
        if r == i:
            # standing head: offer the counter, then absorb the block size
            yield (ex, transmit(s))
            fb = yield (ex + 1, LISTEN)
            if fb.kind == "received":
                s += fb.payload
        elif i == home and index == 1:
            fb = yield (ex, LISTEN)
            if fb.kind == "received":
                r = fb.payload + 1
            else:
                r = i
                s = i + size - 1  # founder: counter covers the whole block
            yield (ex + 1, transmit(size))
        if i == home:
            if index >= 2:
                fb = yield (ex + index, LISTEN)
                r = fb.payload + 1
            if index + 1 <= size:
                yield (ex + index + 1, transmit(r))
        # the handoff, the block's last round
        if r == i:
            yield (ex + width + 1, transmit(s))
        elif r == i + 1:
            fb = yield (ex + width + 1, LISTEN)
            if fb.kind == "received":
                s = fb.payload
        i = max(i + 1, r - 1)
        if i > r or (i - 1) * b >= space:
            break
    nblocks = (space + b - 1) // b
    return r - nblocks if r > nblocks else None


class _DenseProgram(DeviceProgram):
    """One block walk (`walk`, with `block_len` the round count of one
    block; set by subclasses) and the announcement of its rank-1 device."""

    @classmethod
    def schedule_length(cls, config: ProtocolConfig) -> int:
        if config.b is None or config.b < 1:
            raise ValueError("block width b must be >= 1")
        return _walk_len(config.N, config.b, cls.block_len) + 1

    def run(self):
        N, b = self.config.N, self.config.b
        rank = yield from self.walk(self.device_id, N, b, 0)
        self.rank = rank
        yield from self.announce(_walk_len(N, b, self.block_len), rank == 1)


class DenseSimpleProgram(_DenseProgram):
    walk = staticmethod(_simple_walk)
    block_len = staticmethod(_simple_block_len)


class DenseImprovedProgram(_DenseProgram):
    walk = staticmethod(_improved_walk)
    block_len = staticmethod(_improved_block_len)


def dense_simple_election(
    devices, N: int, b: int, model: CdModel = CdModel.NO_CD
) -> RunReport:
    config = ProtocolConfig(model=model, N=N, b=b)
    return run_programs(DenseSimpleProgram, devices, config)[0]


def dense_improved_election(
    devices, N: int, b: int, model: CdModel = CdModel.NO_CD
) -> RunReport:
    config = ProtocolConfig(model=model, N=N, b=b)
    return run_programs(DenseImprovedProgram, devices, config)[0]


def choose_dense_b(N: int, n: int) -> int:
    """Smallest power-of-two block width whose block count is below n."""
    b = 1
    while n <= ceil_div(N, b):
        if b > N:
            raise ValueError("no block width works: need n >= 2")
        b *= 2
    return b


# ---------------------------------------------------------------------------
# exponential search


@dataclass(frozen=True)
class ExpAttempt:
    """Attempt `index`: the improved walk over [1..space] in blocks of width
    b from round `base`, its success test at `test_slot`, then one knockout
    level that ends before round `end`."""

    index: int
    space: int
    b: int
    base: int
    test_slot: int
    end: int


def _attempt_block_width(model: CdModel, attempt: int, space: int) -> int:
    """Block width of attempt `attempt` over an id space of `space` ids.

    The width is 2^(2^attempt) under receiver_cd and no_cd and
    2^(2^(2^attempt)) under strong_cd and sender_cd, capped at `space`.
    Every model runs the same census, at 2 log2 b + O(1) per device, so
    the faster sender-side growth buys nothing yet: at N = 2^12 it costs
    more than the no_cd schedule at n = 16, 1,024 and 4,096 (ROADMAP item
    3, which plans a sender-side block body)."""
    if model.sender_side:
        if (1 << attempt) >= 20:
            return space
        exponent = 1 << (1 << attempt)
    else:
        exponent = 1 << attempt
    if exponent >= space.bit_length():
        return space
    return 1 << exponent


@lru_cache(maxsize=256)
def exponential_plan(N: int, model: CdModel) -> Tuple[Tuple[ExpAttempt, ...], int]:
    """Attempt layout plus the round of the final self-election slot.

    Computed once per (N, model) and shared by every device of a run, so
    the attempts come back as a tuple that no caller can change."""
    attempts = []
    space = N
    base = 0
    i = 1
    while space >= 2:
        b = _attempt_block_width(model, i, space)
        test_slot = base + _walk_len(space, b, DenseImprovedProgram.block_len)
        end = test_slot + 1 + pairing_level_len(space)
        attempts.append(ExpAttempt(i, space, b, base, test_slot, end))
        base = end
        space = (space + 1) // 2
        i += 1
    return tuple(attempts), base


class ExponentialSearchProgram(DeviceProgram):
    @classmethod
    def schedule_length(cls, config: ProtocolConfig) -> int:
        _, final_slot = exponential_plan(config.N, config.model)
        return final_slot + 1

    def run(self):
        attempts, final_slot = exponential_plan(self.config.N, self.config.model)
        cid = self.device_id
        live = True
        k = 0  # attempts are indexed: an iterator would be one more object per device
        while live and k < len(attempts):
            att = attempts[k]
            rank = yield from _improved_walk(cid, att.space, att.b, att.base)
            if (yield from self.announce(att.test_slot, rank == 1)):
                return
            live, cid = yield from pairing_level_phase(cid, att.space, att.test_slot + 1)
            k += 1
        # a survivor of every level is alone in the id space that is left
        yield from self.announce(final_slot, live)


@dataclass(frozen=True)
class AttemptSummary:
    index: int
    space: int
    b: int
    success: bool
    rounds: int
    energy_max: int


def _attempt_summaries(report: RunReport) -> Tuple[AttemptSummary, ...]:
    """Per-attempt success, rounds and energy peak.  Events come in round
    order and attempts tile the rounds from 0, so each attempt's events are
    one slice of the transcript's columns, found by bisecting its round
    column; the events past the last attempt are the final self-election
    slot."""
    attempts, _ = exponential_plan(report.N, report.model)
    t = report.transcript
    rounds, codes = t.event_rounds, t.event_codes
    out = []
    lo = 0
    for att in attempts:
        hi = bisect_left(rounds, att.end, lo)
        counts = Counter(t.event_devices[lo:hi])
        t_lo = bisect_left(rounds, att.test_slot, lo, hi)
        t_hi = bisect_right(rounds, att.test_slot, t_lo, hi)
        success = any(code & TRANSMIT for code in codes[t_lo:t_hi])
        out.append(AttemptSummary(
            index=att.index,
            space=att.space,
            b=att.b,
            success=success,
            rounds=att.end - att.base,
            energy_max=max(counts.values()) if counts else 0,
        ))
        lo = hi
    return tuple(out)


def exponential_search_election(devices, N: int, model: CdModel) -> RunReport:
    config = ProtocolConfig(model=model, N=N)
    report = run_programs(ExponentialSearchProgram, devices, config)[0]
    report.attempts = _attempt_summaries(report)
    return report
