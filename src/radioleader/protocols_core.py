"""Deterministic leader election over a known id space.

Three protocols plus the reusable phases they are built from:

* pairing_election      - knockout tournament over id pairs; works with no
                          collision detection at all.  Per level, the odd id
                          of each pair transmits and the even id listens;
                          the even id survives exactly when its partner is
                          absent.  Survivors halve their id and recurse.
* binary_search_election - the live id interval is halved every slot: the
                          lower half transmits, the upper half listens.
                          Listeners that hear silence know the lower half is
                          empty.  Needs listeners that can tell silence from
                          collision (strong_cd or receiver_cd).
* halving_tradeoff_election - k interval-halving slots shrink the id space
                          by 2^k, then a configurable inner election
                          finishes on the residue.  Trades time for energy.

Every election ends with one announcement slot: the winner transmits its id
and everyone else listens.  Devices that already know the outcome idle; a
run's schedule length never depends on which devices exist.

Phase generators take the round their slots start at (`base`), yield
(round, action) and are chained with `yield from`; schedule arithmetic
lives next to each phase so programs and their `schedule_length` never
disagree.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .channel import LISTEN, CdModel, transmit
from .runtime import (
    DeviceProgram,
    ProtocolConfig,
    RunReport,
    Verdict,
    execute,
    run_programs,
)

DUMMY = 0


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("ceil_log2 needs n >= 1")
    return (n - 1).bit_length()


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# pairing tournament


def pairing_level_len(space: int, compact: bool = False) -> int:
    # compact mode drops the slot of an unpaired trailing odd id
    return space // 2 if compact else (space + 1) // 2


def pairing_phase_len(space: int, compact: bool = False) -> int:
    total = 0
    while space > 1:
        total += pairing_level_len(space, compact)
        space = (space + 1) // 2
    return total


def pairing_level_phase(cid: int, space: int, base: int = 0, compact: bool = False):
    """One knockout level on id space [1..space], its slots starting at round
    `base`: one slot per id pair, plus one for an unpaired trailing odd id
    unless `compact`, in which case that id survives without transmitting.
    Returns (survived, new_id); new_id lives in [1..ceil(space/2)]."""
    pair = (cid + 1) // 2
    if cid % 2 == 1:
        if pair <= pairing_level_len(space, compact):
            yield (base + pair - 1, transmit(DUMMY))
        return True, pair
    fb = yield (base + pair - 1, LISTEN)
    return fb.kind != "received", pair


def pairing_tournament_phase(cid: int, space: int, base: int = 0, compact: bool = False):
    """Knockout levels until the id space is a single id.  Returns True iff
    this device survived throughout (then its final id is 1).

    The compact layout (see pairing_level_phase) is what inner elections
    embed; the standalone election keeps the one-slot-per-pair layout."""
    while space > 1:
        alive, cid = yield from pairing_level_phase(cid, space, base, compact)
        if not alive:
            return False
        base += pairing_level_len(space, compact)
        space = (space + 1) // 2
    return True


# ---------------------------------------------------------------------------
# interval halving


def interval_halving_phase(pos: int, space: int, probes: int, base: int = 0):
    """Run `probes` halving slots on the live interval of [1..space],
    starting at round `base`.

    Each slot: ids in the lower ceil(size/2) of the interval transmit, the
    rest of the interval listens.  Hearing anything means the lower half is
    occupied, so listeners drop out; hearing silence means it is empty and
    the upper half carries on.  Transmitters always carry on: their own
    transmission proves their half is occupied.

    Returns (alive, position inside the final interval, final size).  A slot
    is consumed per probe even once the interval is a single id."""
    lo, hi = 1, space
    alive = True
    for t in range(probes):
        size = hi - lo + 1
        if not alive or size <= 1:
            continue
        mid = lo + (size + 1) // 2 - 1
        if pos <= mid:
            yield (base + t, transmit(DUMMY))
            hi = mid
        else:
            fb = yield (base + t, LISTEN)
            if fb.kind == "silence":
                lo = mid + 1
            else:
                alive = False
    return alive, pos - lo + 1, hi - lo + 1


# ---------------------------------------------------------------------------
# protocol programs


class PairingElectionProgram(DeviceProgram):
    @classmethod
    def schedule_length(cls, config: ProtocolConfig) -> int:
        return pairing_phase_len(config.N) + 1

    def run(self):
        won = yield from pairing_tournament_phase(self.device_id, self.config.N)
        yield from self.announce(pairing_phase_len(self.config.N), won)


class BinarySearchElectionProgram(DeviceProgram):
    @classmethod
    def schedule_length(cls, config: ProtocolConfig) -> int:
        return ceil_log2(config.N) + 1

    def run(self):
        probes = ceil_log2(self.config.N)
        alive, _, _ = yield from interval_halving_phase(
            self.device_id, self.config.N, probes
        )
        yield from self.announce(probes, alive)


def _halving_plan(config: ProtocolConfig) -> Tuple[int, int, str, int]:
    if config.k is None or config.k < 1:
        raise ValueError("halving trade-off needs k >= 1")
    probes = min(config.k, ceil_log2(config.N))
    residue = ceil_div(config.N, 1 << probes)
    inner = config.inner_election or "binary_search"
    if inner == "binary_search":
        inner_len = ceil_log2(residue)
    elif inner == "pairing":
        inner_len = pairing_phase_len(residue, compact=True)
    else:
        raise ValueError(f"unknown inner election {inner!r}")
    return probes, residue, inner, inner_len


class HalvingTradeoffProgram(DeviceProgram):
    @classmethod
    def schedule_length(cls, config: ProtocolConfig) -> int:
        probes, _, _, inner_len = _halving_plan(config)
        return probes + inner_len + 1

    def run(self):
        probes, residue, inner, inner_len = _halving_plan(self.config)
        alive, pos, _ = yield from interval_halving_phase(
            self.device_id, self.config.N, probes
        )
        won = False
        if alive:
            if inner == "binary_search":
                won, _, _ = yield from interval_halving_phase(
                    pos, residue, ceil_log2(residue), probes
                )
            else:
                won = yield from pairing_tournament_phase(
                    pos, residue, probes, compact=True
                )
        yield from self.announce(probes + inner_len, won)


class PairingReduceProgram(DeviceProgram):
    """One standalone knockout level; survival is reported, nobody leads."""

    @classmethod
    def schedule_length(cls, config: ProtocolConfig) -> int:
        return pairing_level_len(config.N)

    def run(self):
        self.survived, self.new_id = yield from pairing_level_phase(
            self.device_id, self.config.N
        )

    def finish(self) -> Verdict:
        return Verdict(is_leader=False, rank=None)


# ---------------------------------------------------------------------------
# drivers


def pairing_election(
    devices, N: int, model: CdModel = CdModel.NO_CD, check_replay: bool = False
) -> RunReport:
    config = ProtocolConfig(model=model, N=N)
    return execute(PairingElectionProgram, devices, config, check_replay=check_replay)


def binary_search_election(devices, N: int, model: CdModel) -> RunReport:
    if not model.receiver_side:
        raise ValueError(
            "binary search needs listeners that detect collisions "
            "(strong_cd or receiver_cd)"
        )
    config = ProtocolConfig(model=model, N=N)
    return execute(BinarySearchElectionProgram, devices, config)


def halving_tradeoff_election(
    devices,
    N: int,
    k: int,
    model: CdModel = CdModel.STRONG_CD,
    inner_election: Optional[str] = None,
) -> RunReport:
    if model is not CdModel.STRONG_CD:
        raise ValueError("the halving trade-off is defined for strong_cd")
    config = ProtocolConfig(model=model, N=N, k=k, inner_election=inner_election)
    return execute(HalvingTradeoffProgram, devices, config)


def pairing_reduce_once(
    devices, N: int, model: CdModel = CdModel.NO_CD
) -> Tuple[Dict[int, int], RunReport]:
    """Run one knockout level and return {surviving id: new id} over the
    halved id space [1..ceil(N/2)], along with the run report."""
    config = ProtocolConfig(model=model, N=N)
    report, programs = run_programs(PairingReduceProgram, devices, config)
    survivors = {
        dev: prog.new_id for dev, prog in programs.items() if prog.survived
    }
    return survivors, report
