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
                          by 2^k, then binary search finishes on the
                          residue.  That is binary search split in two:
                          the same rounds, and no less energy.

Every election ends with one announcement slot: the winner transmits its id
and everyone else listens.  Devices that already know the outcome idle; a
run's schedule length never depends on which devices exist.

Phase generators take the round their slots start at (`base`), yield
(round, action) and are chained with `yield from`; schedule arithmetic
lives next to each phase so programs and their `schedule_length` never
disagree.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from .channel import LISTEN, CdModel, transmit
from .runtime import (
    DeviceProgram,
    ProtocolConfig,
    RunReport,
    execute,
    run_programs,  # noqa: F401  (kept importable here: perfbench counts this copy)
)

DUMMY = 0
_SEND_DUMMY = transmit(DUMMY)  # one shared action for every dummy slot


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


@lru_cache(maxsize=256)
def pairing_phase_len(space: int) -> int:
    total = 0
    while space > 1:
        total += pairing_level_len(space)
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
            yield (base + pair - 1, _SEND_DUMMY)
        return True, pair
    fb = yield (base + pair - 1, LISTEN)
    return fb.kind != "received", pair


def pairing_tournament_phase(cid: int, space: int, base: int = 0, compact: bool = False):
    """Knockout levels until the id space is a single id.  Returns True iff
    this device survived throughout (then its final id is 1).

    The compact layout (see pairing_level_phase) is what the partition
    trade-off embeds: it takes space - 1 slots.  The standalone election
    keeps the one-slot-per-pair layout."""
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

    Returns (alive, position inside the final interval).  A slot is
    consumed per probe even once the interval is a single id."""
    lo, hi = 1, space
    alive = True
    for t in range(probes):
        size = hi - lo + 1
        if not alive or size <= 1:
            continue
        mid = lo + (size + 1) // 2 - 1
        if pos <= mid:
            yield (base + t, _SEND_DUMMY)
            hi = mid
        else:
            fb = yield (base + t, LISTEN)
            if fb.kind == "silence":
                lo = mid + 1
            else:
                alive = False
    return alive, pos - lo + 1


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
    models = (CdModel.STRONG_CD, CdModel.RECEIVER_CD)

    @classmethod
    def schedule_length(cls, config: ProtocolConfig) -> int:
        return ceil_log2(config.N) + 1

    def run(self):
        probes = ceil_log2(self.config.N)
        alive, _ = yield from interval_halving_phase(
            self.device_id, self.config.N, probes
        )
        yield from self.announce(probes, alive)


def _halving_plan(config: ProtocolConfig) -> Tuple[int, int]:
    if config.k is None or config.k < 1:
        raise ValueError("halving trade-off needs k >= 1")
    probes = min(config.k, ceil_log2(config.N))
    return probes, ceil_div(config.N, 1 << probes)


class HalvingTradeoffProgram(DeviceProgram):
    models = (CdModel.STRONG_CD,)

    @classmethod
    def schedule_length(cls, config: ProtocolConfig) -> int:
        probes, residue = _halving_plan(config)
        return probes + ceil_log2(residue) + 1

    def run(self):
        probes, residue = _halving_plan(self.config)
        inner_len = ceil_log2(residue)
        alive, pos = yield from interval_halving_phase(
            self.device_id, self.config.N, probes
        )
        won = False
        if alive:
            won, _ = yield from interval_halving_phase(
                pos, residue, inner_len, probes
            )
        yield from self.announce(probes + inner_len, won)


# ---------------------------------------------------------------------------
# drivers


def pairing_election(devices, N: int, model: CdModel = CdModel.NO_CD) -> RunReport:
    config = ProtocolConfig(model=model, N=N)
    return execute(PairingElectionProgram, devices, config)


def binary_search_election(devices, N: int, model: CdModel) -> RunReport:
    config = ProtocolConfig(model=model, N=N)
    return execute(BinarySearchElectionProgram, devices, config)


def halving_tradeoff_election(
    devices,
    N: int,
    k: int,
    model: CdModel = CdModel.STRONG_CD,
) -> RunReport:
    config = ProtocolConfig(model=model, N=N, k=k)
    return execute(HalvingTradeoffProgram, devices, config)

