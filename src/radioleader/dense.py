"""Leader election tuned for dense instances.

The id space [1..N] is cut into blocks of width b and walked once.  Devices
discovered along the walk join one growing group and receive consecutive
integer labels; after the walk, a device's rank is its label minus the
number of blocks, so ranks only reach 1..(group size - blocks) and a group
member exists with rank 1 whenever the device count exceeds the block
count.  The rank-1 device announces itself in a final slot.

Two variants build the same labelling:

* dense_simple_election  - two slots per id: the current group head hands
  its counter to each candidate in turn.  Time about 2N.
* dense_improved_election - per block, a census first tells every present
  device its position within the block, after which one exchange with the
  head plus a label chain through the block replaces per-id head work.
  Time about 3N, but per-device energy drops from O(b) to O(log b).

The census is a binary merge tournament over the block: representatives of
adjacent sub-ranges meet in two slots (left transmits its member list, then
the right side answers with the merged list so the left knows it may
retire); the champion broadcasts the full ascending-id list.

exponential_search_election needs no density promise at all: it tries the
improved walk with rapidly growing block widths, tests for success in one
slot, and between failed attempts halves the id space with one knockout
level, which can only increase density.  Once the id space is a single id,
its owner self-elects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .channel import LISTEN, CdModel, transmit
from .protocols_core import (
    ceil_div,
    ceil_log2,
    pairing_level_len,
    pairing_level_phase,
)
from .runtime import (
    BoundFactory,
    DeviceProgram,
    ProtocolConfig,
    RunReport,
    Verdict,
    execute,
    run_programs,
)

def dense_blocks(space: int, b: int) -> List[Tuple[int, int]]:
    return [(lo, min(space, lo + b - 1)) for lo in range(1, space + 1, b)]


# ---------------------------------------------------------------------------
# census


def census_merges(block_size: int) -> List[Tuple[int, int, int, int]]:
    """Merge schedule of the binary tournament over positions 1..block_size.

    Entries are (left_lo, left_hi, right_lo, right_hi) in slot order; merges
    whose right side would fall wholly outside the block are skipped, so the
    list always has block_size - 1 entries."""
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
    of present ids, this device's 1-based index in it, and its length."""
    if block_size <= 1:
        return (ident,), 1, 1
    comp = (pos, pos)
    members = [ident]
    is_rep = True
    slot = base
    for left_lo, left_hi, right_lo, right_hi in census_merges(block_size):
        if is_rep and comp == (left_lo, left_hi):
            yield (slot, transmit(tuple(members)))
            fb = yield (slot + 1, LISTEN)
            if fb.kind == "received":
                is_rep = False  # right side occupied; its rep carries on
            else:
                comp = (left_lo, right_hi)
        elif is_rep and comp == (right_lo, right_hi):
            fb = yield (slot, LISTEN)
            if fb.kind == "received":
                members = list(fb.payload) + members
            yield (slot + 1, transmit(tuple(members)))
            comp = (left_lo, right_hi)
        slot += 2
    broadcast = base + 2 * (block_size - 1)
    if is_rep:
        yield (broadcast, transmit(tuple(members)))
        full = tuple(members)
    else:
        fb = yield (broadcast, LISTEN)
        full = tuple(fb.payload)
    return full, full.index(ident) + 1, len(full)


@dataclass(frozen=True)
class CensusResult:
    members: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def index(self, ident: int) -> int:
        return self.members.index(ident) + 1


class _CensusProgram(DeviceProgram):
    def __init__(self, device_id, config, lo: int, hi: int):
        super().__init__(device_id, config)
        self.lo = lo
        self.hi = hi

    @classmethod
    def schedule_length(cls, config, lo: int, hi: int) -> int:
        return max(1, census_phase_len(hi - lo + 1))

    def run(self):
        self.view = yield from census_phase(
            self.device_id - self.lo + 1, self.device_id, self.hi - self.lo + 1
        )

    def finish(self) -> Verdict:
        return Verdict(is_leader=False)


def census(
    lo: int, hi: int, present, model: CdModel = CdModel.NO_CD
) -> CensusResult:
    """Standalone census over the id range [lo..hi]; `present` is the set of
    ids that actually exist there.  Every present device ends up knowing the
    same ascending member list, its own index, and the size."""
    ids = sorted(set(present))
    if not ids:
        return CensusResult(members=())
    if ids[0] < lo or ids[-1] > hi:
        raise ValueError(f"present ids must lie in [{lo}, {hi}]")
    config = ProtocolConfig(model=model, N=hi)
    factory = BoundFactory(_CensusProgram, lo=lo, hi=hi)
    _, programs = run_programs(factory, ids, config)
    views = {dev: prog.view for dev, prog in programs.items()}
    members = tuple(ids)
    for dev, (full, index, size) in views.items():
        if full != members or index != members.index(dev) + 1 or size != len(members):
            raise AssertionError(f"census views disagree for device {dev}")
    return CensusResult(members=members)


# ---------------------------------------------------------------------------
# the two block walks


def dense_simple_phase(cid: int, space: int, b: int, base: int = 0):
    """Label chain of the two-slots-per-id walk, starting at round `base`.
    Returns the final rank (label minus block count) or None.

    A device is involved in at most three blocks: the one holding its id,
    the one whose index equals its label (head duty), and the one before
    that (handoff listen).  Everything else is skipped outright, so the
    per-device work does not grow with the block count."""
    nblocks = (space + b - 1) // b
    span = 2 * b + 1  # rounds of one full-width block
    r: Optional[int] = None
    s: Optional[int] = None

    def visit(i: int):
        nonlocal r, s
        lo = (i - 1) * b + 1
        hi = min(space, lo + b - 1)
        first = base + (i - 1) * span  # first round of block i
        for j in range(lo, hi + 1):
            slot_a = first + 2 * (j - lo)
            if cid == j:
                fb = yield (slot_a, LISTEN)
                if fb.kind == "received":
                    r = fb.payload + 1  # join behind the head's counter
                else:
                    r = i  # nobody leads: found the group here
                    s = i
                yield (slot_a + 1, transmit(cid))
            elif r == i:
                yield (slot_a, transmit(s))
                fb = yield (slot_a + 1, LISTEN)
                if fb.kind == "received":
                    s += 1
        handoff = first + 2 * (hi - lo + 1)
        if r == i:
            yield (handoff, transmit(s))
        elif r == i + 1:
            fb = yield (handoff, LISTEN)
            if fb.kind == "received":
                s = fb.payload

    home = (cid - 1) // b + 1
    yield from visit(home)
    for i in sorted({r - 1, r}):
        if home < i <= nblocks:
            yield from visit(i)
    if r >= nblocks + 1:
        return r - nblocks
    return None


def dense_simple_phase_len(space: int, b: int) -> int:
    nblocks = (space + b - 1) // b
    last = space - (nblocks - 1) * b
    return (nblocks - 1) * (2 * b + 1) + 2 * last + 1


def dense_improved_phase(cid: int, space: int, b: int, base: int = 0):
    """Census-driven walk producing the same labels as dense_simple_phase,
    starting at round `base`.

    Visits the same three blocks at most as the simple walk (home, head
    duty, handoff listen); a standing head still runs the exchange of an
    empty block, which is why the head-duty block is always visited."""
    nblocks = (space + b - 1) // b
    span = census_phase_len(b) + b + 2  # rounds of one full-width block
    r: Optional[int] = None
    s: Optional[int] = None

    def visit(i: int):
        nonlocal r, s
        lo = (i - 1) * b + 1
        hi = min(space, lo + b - 1)
        width = hi - lo + 1
        first = base + (i - 1) * span  # first round of block i
        in_block = i == home
        index = size = None
        if in_block:
            _, index, size = yield from census_phase(cid - lo + 1, cid, width, first)
        ex = first + census_phase_len(width)
        if r == i:
            # standing head: offer the counter, then absorb the block size
            yield (ex, transmit(s))
            fb = yield (ex + 1, LISTEN)
            if fb.kind == "received":
                s += fb.payload
        elif in_block and index == 1:
            fb = yield (ex, LISTEN)
            if fb.kind == "received":
                r = fb.payload + 1
            else:
                r = i
                s = i + size - 1  # founder: counter covers the whole block
            yield (ex + 1, transmit(size))
        chain = ex + 2
        if in_block:
            if index >= 2:
                fb = yield (chain + index - 2, LISTEN)
                r = fb.payload + 1
            if index + 1 <= size:
                yield (chain + index - 1, transmit(r))
        handoff = chain + (width - 1)
        if r == i:
            yield (handoff, transmit(s))
        elif r == i + 1:
            fb = yield (handoff, LISTEN)
            if fb.kind == "received":
                s = fb.payload

    home = (cid - 1) // b + 1
    yield from visit(home)
    for i in sorted({r - 1, r}):
        if home < i <= nblocks:
            yield from visit(i)
    if r >= nblocks + 1:
        return r - nblocks
    return None


def dense_improved_phase_len(space: int, b: int) -> int:
    nblocks = (space + b - 1) // b
    last = space - (nblocks - 1) * b
    return (nblocks - 1) * (census_phase_len(b) + b + 2) + (
        census_phase_len(last) + last + 2
    )


class _DenseProgram(DeviceProgram):
    """One block walk (`phase`, `phase_len`; set by subclasses) and the
    announcement of its rank-1 device."""

    @classmethod
    def schedule_length(cls, config: ProtocolConfig) -> int:
        return cls.phase_len(config.N, config.b) + 1

    def run(self):
        rank = yield from self.phase(self.device_id, self.config.N, self.config.b)
        self.rank = rank
        yield from self.announce(
            self.phase_len(self.config.N, self.config.b), rank == 1
        )


class DenseSimpleProgram(_DenseProgram):
    phase = staticmethod(dense_simple_phase)
    phase_len = staticmethod(dense_simple_phase_len)


class DenseImprovedProgram(_DenseProgram):
    phase = staticmethod(dense_improved_phase)
    phase_len = staticmethod(dense_improved_phase_len)


def _dense_election(program_cls, devices, N, b, model, check_replay):
    if b < 1:
        raise ValueError("block width b must be >= 1")
    config = ProtocolConfig(model=model, N=N, b=b)
    return execute(program_cls, devices, config, check_replay=check_replay)


def dense_simple_election(
    devices, N: int, b: int, model: CdModel = CdModel.NO_CD, check_replay: bool = False
) -> RunReport:
    return _dense_election(DenseSimpleProgram, devices, N, b, model, check_replay)


def dense_improved_election(
    devices, N: int, b: int, model: CdModel = CdModel.NO_CD, check_replay: bool = False
) -> RunReport:
    return _dense_election(DenseImprovedProgram, devices, N, b, model, check_replay)


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
    index: int
    space: int
    b: int
    base: int
    core_len: int

    @property
    def test_slot(self) -> int:
        return self.base + self.core_len

    @property
    def reduce_base(self) -> int:
        return self.test_slot + 1

    @property
    def reduce_len(self) -> int:
        return pairing_level_len(self.space)

    @property
    def end(self) -> int:
        return self.reduce_base + self.reduce_len


def _attempt_block_width(model: CdModel, attempt: int, space: int) -> int:
    """Block width schedule: doubly exponential growth for the models whose
    census budget is logarithmic, triply exponential where a stronger inner
    census would make attempts even cheaper."""
    if model.sender_side:
        if (1 << attempt) >= 20:
            return space
        exponent = 1 << (1 << attempt)
    else:
        exponent = 1 << attempt
    if exponent >= space.bit_length():
        return space
    return min(space, 1 << exponent)


def exponential_plan(N: int, model: CdModel) -> Tuple[List[ExpAttempt], int]:
    """Attempt layout plus the round of the final self-election slot."""
    attempts = []
    space = N
    base = 0
    i = 1
    while space >= 2:
        b = _attempt_block_width(model, i, space)
        core = dense_improved_phase_len(space, b)
        att = ExpAttempt(index=i, space=space, b=b, base=base, core_len=core)
        attempts.append(att)
        base = att.end
        space = (space + 1) // 2
        i += 1
    return attempts, base


class ExponentialSearchProgram(DeviceProgram):
    @classmethod
    def schedule_length(cls, config: ProtocolConfig) -> int:
        _, final_slot = exponential_plan(config.N, config.model)
        return final_slot + 1

    def run(self):
        attempts, final_slot = exponential_plan(self.config.N, self.config.model)
        cid = self.device_id
        live = True
        done = False
        for att in attempts:
            if done or not live:
                continue
            rank = yield from dense_improved_phase(cid, att.space, att.b, att.base)
            if rank == 1:
                yield (att.test_slot, transmit(self.device_id))
                self.won = True
                self.leader_id = self.device_id
                done = True
            else:
                fb = yield (att.test_slot, LISTEN)
                if fb.kind == "received":
                    self.leader_id = fb.payload
                    done = True
            if not done:
                live, cid = yield from pairing_level_phase(
                    cid, att.space, att.reduce_base
                )
        if not done:
            if live:
                # the id space shrank to a single id: its owner is alone
                yield (final_slot, transmit(self.device_id))
                self.won = True
                self.leader_id = self.device_id
            else:
                fb = yield (final_slot, LISTEN)
                if fb.kind == "received":
                    self.leader_id = fb.payload


@dataclass(frozen=True)
class AttemptSummary:
    index: int
    space: int
    b: int
    success: bool
    rounds: int
    energy_max: int


def _attempt_summaries(report: RunReport) -> Tuple[AttemptSummary, ...]:
    attempts, _ = exponential_plan(report.N, report.model)
    summaries = []
    for att in attempts:
        counts: Dict[int, int] = {}
        success = False
        for rnd, dev, action, _ in report.transcript.events:
            if att.base <= rnd < att.end and action.kind != "idle":
                counts[dev] = counts.get(dev, 0) + 1
            if rnd == att.test_slot and action.kind == "transmit":
                success = True
        summaries.append(
            AttemptSummary(
                index=att.index,
                space=att.space,
                b=att.b,
                success=success,
                rounds=att.end - att.base,
                energy_max=max(counts.values()) if counts else 0,
            )
        )
    return tuple(summaries)


def exponential_search_election(
    devices, N: int, model: CdModel, check_replay: bool = False
) -> RunReport:
    config = ProtocolConfig(model=model, N=N)
    report = execute(
        ExponentialSearchProgram, devices, config, check_replay=check_replay
    )
    report.attempts = _attempt_summaries(report)
    return report
