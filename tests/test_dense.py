import itertools
import random
import tracemalloc
from bisect import bisect_right

import pytest

from radioleader.channel import LISTEN, CdModel, transmit
from radioleader.dense import (
    AttemptSummary,
    DenseImprovedProgram,
    DenseSimpleProgram,
    ExponentialSearchProgram,
    census,
    census_merges,
    census_phase,
    census_phase_len,
    choose_dense_b,
    dense_improved_election,
    dense_simple_election,
    exponential_plan,
    exponential_search_election,
)
from radioleader.protocols_core import ceil_div, ceil_log2, pairing_level_len
from radioleader.runtime import (
    DeviceProgram,
    ProtocolConfig,
    Verdict,
    execute,
    run_programs,
)

ST, SE, RC, NO = (
    CdModel.STRONG_CD,
    CdModel.SENDER_CD,
    CdModel.RECEIVER_CD,
    CdModel.NO_CD,
)


def ref_dense_ranks(N, b, present):
    """Set-level replay of the label chain.

    Walk the blocks left to right.  While a device labelled with the current
    block index exists, the group is alive and newly met devices take the
    next counter values; otherwise the first device of the block refounds
    the group at label == block index.  Ranks shift labels down by the block
    count and drop non-positive results."""
    present = set(present)
    blocks = [(lo, min(N, lo + b - 1)) for lo in range(1, N + 1, b)]
    nblocks = len(blocks)
    label = {}
    s = 0
    for i, (lo, hi) in enumerate(blocks, start=1):
        alive = any(v == i for v in label.values())
        for j in range(lo, hi + 1):
            if j not in present:
                continue
            if alive:
                s += 1
            else:
                alive = True
                s = i
            label[j] = s
    return {d: v - nblocks for d, v in label.items() if v > nblocks}


def rank_map(report):
    return {d: v.rank for d, v in report.verdicts.items() if v.rank is not None}


# --- census -----------------------------------------------------------------


def test_census_merge_schedule():
    assert census_merges(1) == []
    assert census_merges(2) == [(1, 1, 2, 2)]
    assert census_merges(4) == [(1, 1, 2, 2), (3, 3, 4, 4), (1, 2, 3, 4)]
    for size in range(1, 20):
        assert len(census_merges(size)) == size - 1
    assert census_phase_len(1) == 0
    assert census_phase_len(4) == 7


def test_census_results():
    assert census(1, 4, [2, 3]) == (2, 3)
    assert census(1, 4, [2, 3]).index(3) + 1 == 2
    assert census(5, 8, [5, 6, 7, 8]) == (5, 6, 7, 8)
    assert census(3, 3, [3]) == (3,)
    assert census(1, 8, []) == ()
    with pytest.raises(ValueError):
        census(1, 4, [5])
    # ids are checked as given, before the shift to [1..hi - lo + 1]
    with pytest.raises(ValueError, match="not 6.5"):
        census(5, 12, [6.5, 7])
    with pytest.raises(ValueError, match="not True"):
        census(5, 12, [True, 6])


def test_census_exhaustive_small():
    for width in (2, 3, 5, 8):
        ids = range(1, width + 1)
        for m in range(1, width + 1):
            for present in itertools.combinations(ids, m):
                assert census(1, width, present) == present


def test_census_cost():
    from radioleader.dense import _CensusProgram

    for width, present in ((8, range(1, 9)), (8, [2, 5, 8]), (16, [1, 16])):
        config = ProtocolConfig(model=NO, N=width)
        report, _ = run_programs(_CensusProgram, sorted(present), config)
        assert report.rounds <= 2 * width
        assert report.ledger.max_energy <= 2 * ceil_log2(width) + 1


def ref_census_phase(pos, ident, block_size, base=0):
    """Reference census walk: every device scans the whole merge schedule
    and acts on the merges whose sides match the range it represents."""
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
                is_rep = False
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


class _CensusWalk(DeviceProgram):
    """One census over block [1..config.N], run by `walk` from round `base`."""

    walk = staticmethod(census_phase)
    base = 0

    @classmethod
    def schedule_length(cls, config):
        return cls.base + max(1, census_phase_len(config.N))

    def run(self):
        self.view = yield from self.walk(
            self.device_id, self.device_id, self.config.N, self.base)

    def finish(self):
        return Verdict(is_leader=False)


def test_census_phase_matches_reference_walk():
    rng = random.Random(13)
    for width in range(1, 71):
        occupancies = [range(1, width + 1)] + [
            rng.sample(range(1, width + 1), rng.randrange(1, width + 1)) for _ in range(4)
        ]
        for present in occupancies:
            base = rng.randrange(3)
            config = ProtocolConfig(model=NO, N=width)
            runs = [
                run_programs(type("Walk", (_CensusWalk,),
                                  {"walk": staticmethod(walk), "base": base}),
                             sorted(present), config)
                for walk in (ref_census_phase, census_phase)
            ]
            (want, want_progs), (got, got_progs) = runs
            assert got.transcript.events == want.transcript.events, (width, present)
            assert {d: p.view for d, p in got_progs.items()} == {
                d: p.view for d, p in want_progs.items()
            }


# --- the walks --------------------------------------------------------------


def test_dense_walk_worked_examples():
    r = dense_simple_election([1, 2, 3, 4], N=4, b=2)
    assert rank_map(r) == {3: 1, 4: 2}
    assert r.leader == 3
    assert r.rounds == 2 * 4 + 2 + 1

    r = dense_simple_election([1], N=4, b=2)
    assert r.leader is None
    assert not r.strict_success

    r = dense_simple_election([5, 6, 7, 8], N=8, b=4)
    assert rank_map(r) == {6: 1, 7: 2, 8: 3}
    assert r.leader == 6

    r = dense_improved_election([5, 6, 7, 8], N=8, b=4)
    assert rank_map(r) == {6: 1, 7: 2, 8: 3}
    assert r.leader == 6


def test_dense_simple_matches_reference_exhaustively():
    for N in (4, 6, 8):
        for b in range(1, N + 1):
            nblocks = ceil_div(N, b)
            for m in range(1, N + 1):
                for present in itertools.combinations(range(1, N + 1), m):
                    want = ref_dense_ranks(N, b, present)
                    report = dense_simple_election(list(present), N=N, b=b)
                    assert rank_map(report) == want
                    if m > nblocks:
                        assert report.strict_success
                    if want:
                        assert report.leader == min(want, key=want.get)
                    else:
                        assert report.leader is None


def test_dense_improved_matches_simple_random():
    rng = random.Random(7)
    for _ in range(250):
        N = rng.randrange(2, 40)
        b = rng.randrange(1, N + 1)
        m = rng.randrange(1, N + 1)
        present = sorted(rng.sample(range(1, N + 1), m))
        a = dense_simple_election(present, N=N, b=b)
        c = dense_improved_election(present, N=N, b=b)
        assert rank_map(a) == rank_map(c) == ref_dense_ranks(N, b, present)
        assert a.leader == c.leader


def test_rank_values_are_an_initial_segment():
    rng = random.Random(11)
    for _ in range(200):
        N = rng.randrange(2, 64)
        b = rng.randrange(1, N + 1)
        m = rng.randrange(1, N + 1)
        present = rng.sample(range(1, N + 1), m)
        ranks = ref_dense_ranks(N, b, present)
        assert sorted(ranks.values()) == list(range(1, len(ranks) + 1))
        # at most one device per block can miss out on a rank
        assert len(ranks) >= m - ceil_div(N, b)


def _walk_rounds(program, N, b):
    return program.schedule_length(ProtocolConfig(model=NO, N=N, b=b)) - 1


def test_dense_round_formulas():
    for N, b in ((16, 4), (32, 8), (64, 2), (100, 10)):
        nblocks = ceil_div(N, b)
        assert _walk_rounds(DenseSimpleProgram, N, b) == 2 * N + nblocks
        assert _walk_rounds(DenseImprovedProgram, N, b) == 3 * N + nblocks
        full = list(range(1, N + 1))
        assert dense_simple_election(full, N=N, b=b).rounds == 2 * N + nblocks + 1
        assert dense_improved_election(full, N=N, b=b).rounds == 3 * N + nblocks + 1
    # width-1 tail blocks spend 3 rounds, not 4
    assert _walk_rounds(DenseImprovedProgram, 5, 2) <= 3 * 5 + 3
    # uneven id spaces: width-1 and partial tail blocks
    for N, b in ((5, 2), (9, 4), (33, 7), (100, 16), (9, 9)):
        widths = [min(N, lo + b - 1) - lo + 1 for lo in range(1, N + 1, b)]
        simple_len = _walk_rounds(DenseSimpleProgram, N, b)
        improved_len = _walk_rounds(DenseImprovedProgram, N, b)
        assert simple_len == sum(2 * w + 1 for w in widths)
        assert improved_len == sum(census_phase_len(w) + w + 2 for w in widths)
        full = list(range(1, N + 1))
        for run, phase_len in (
            (dense_simple_election, simple_len),
            (dense_improved_election, improved_len),
        ):
            report = run(full, N=N, b=b)
            assert report.strict_success
            assert report.transcript.event_rounds[-1] <= phase_len


def test_dense_energy_bounds():
    rng = random.Random(3)
    for _ in range(60):
        N = rng.randrange(4, 80)
        b = rng.randrange(1, N + 1)
        m = rng.randrange(1, N + 1)
        present = rng.sample(range(1, N + 1), m)
        simple = dense_simple_election(present, N=N, b=b)
        improved = dense_improved_election(present, N=N, b=b)
        assert simple.ledger.max_energy <= 2 * b + 5
        # census 2 log b + 1, own-block exchange/chain <= 3, one block of
        # head duty <= 3, handoff listen 1, announcement 1
        assert improved.ledger.max_energy <= 2 * ceil_log2(max(b, 2)) + 9


def test_dense_all_models_agree():
    present = [3, 4, 9, 10, 11]
    base = dense_simple_election(present, N=16, b=4, model=NO)
    for model in (ST, SE, RC):
        r = dense_simple_election(present, N=16, b=4, model=model)
        assert rank_map(r) == rank_map(base)


def test_choose_dense_b():
    assert choose_dense_b(8, 5) == 2
    assert choose_dense_b(8, 2) == 8
    assert choose_dense_b(16, 16) == 2
    assert choose_dense_b(1000, 3) == 512
    for N, n in ((8, 5), (16, 3), (100, 9)):
        b = choose_dense_b(N, n)
        assert n > ceil_div(N, b)
        assert b == 1 or n <= ceil_div(N, b // 2)
    with pytest.raises(ValueError):
        choose_dense_b(8, 1)


def test_replay_check():
    config = ProtocolConfig(model=NO, N=8, b=2)
    for cls in (DenseSimpleProgram, DenseImprovedProgram):
        runs = [execute(cls, [2, 3, 5], config) for _ in range(2)]
        assert runs[0].transcript == runs[1].transcript


# --- exponential search -------------------------------------------------


def test_exponential_plan_shape():
    attempts, final_slot = exponential_plan(16, NO)
    assert [a.space for a in attempts] == [16, 8, 4, 2]
    assert attempts[0].b == 4  # one doubling step of the width exponent
    assert attempts[0].base == 0
    for prev, nxt in zip(attempts, attempts[1:]):
        assert nxt.base == prev.end
    assert final_slot == attempts[-1].end

    strong_attempts, _ = exponential_plan(16, ST)
    assert strong_attempts[0].b == 16  # sender-side widths grow much faster


def test_exponential_plan_matches_the_walk_it_schedules():
    # each attempt's stored slots are the improved walk's declared length
    # and one knockout level; the attempts tile the rounds from 0
    for model in (ST, SE, RC, NO):
        for N in [*range(1, 301), 1 << 16, 1 << 20]:
            attempts, final_slot = exponential_plan(N, model)
            end = 0
            for att in attempts:
                assert att.base == end
                walk = DenseImprovedProgram.schedule_length(
                    ProtocolConfig(model=model, N=att.space, b=att.b)
                )
                assert att.test_slot == att.base + walk - 1
                assert att.end == att.test_slot + 1 + pairing_level_len(att.space)
                end = att.end
            assert final_slot == end
            assert ExponentialSearchProgram.schedule_length(
                ProtocolConfig(model=model, N=N)
            ) == end + 1
            if N == 1:
                assert attempts == () and end == 0


def test_exponential_singleton():
    r = exponential_search_election([5], N=8, model=NO)
    assert r.leader == 5
    assert r.strict_success


def test_exponential_full_occupancy_first_attempt():
    r = exponential_search_election(list(range(1, 9)), N=8, model=NO)
    assert r.leader == 3
    assert r.attempts[0].success
    assert all(not a.success for a in r.attempts[1:])


def test_exponential_half_density():
    odds = list(range(1, 17, 2))
    r = exponential_search_election(odds, N=16, model=NO)
    assert r.leader == 9
    assert r.strict_success and r.easy_success
    assert r.attempts[0].success


def test_exponential_all_models_all_sizes():
    rng = random.Random(5)
    for model in (ST, SE, RC, NO):
        for _ in range(25):
            N = rng.randrange(2, 33)
            m = rng.randrange(1, N + 1)
            present = rng.sample(range(1, N + 1), m)
            r = exponential_search_election(present, N=N, model=model)
            assert r.strict_success
            assert r.leader in present
            if m >= 2:
                assert r.easy_success
            # 4 slots per surviving id per attempt, spaces sum to ~2N,
            # plus test/reduce bookkeeping per attempt
            assert r.rounds <= 8 * N + 6 * ceil_log2(max(N, 2)) + 13


# max energy of exponential search on packed sets at N = 2^12, in CdModel
# order (strong / sender / receiver / no_cd): n -> (ids 1..n, ids N-n+1..N).
# ROADMAP item 2 (a lone survivor re-runs a full-width census in every
# later attempt) is why the low runs cost so much; its fix lowers these.
PACKED_ENERGY = {
    1: ((213, 213, 191, 191), (213, 213, 191, 191)),
    2: ((208, 208, 190, 190), (12, 12, 8, 8)),
    4: ((37, 37, 185, 185), (11, 11, 9, 9)),
    8: ((36, 36, 172, 172), (11, 11, 12, 12)),
    16: ((36, 36, 56, 56), (12, 12, 12, 12)),
    64: ((36, 36, 42, 42), (14, 14, 12, 12)),
}


@pytest.mark.parametrize("n", sorted(PACKED_ENERGY))
def test_exponential_packed_sets_cost_no_more_than_recorded(n):
    N = 1 << 12
    for ids, caps in zip((range(1, n + 1), range(N - n + 1, N + 1)),
                         PACKED_ENERGY[n]):
        for model, cap in zip(CdModel, caps, strict=True):
            r = exponential_search_election(list(ids), N=N, model=model)
            assert r.strict_success, (ids, model)
            assert r.ledger.max_energy <= cap, (ids, model)


def test_exponential_attempt_summaries_consistent():
    r = exponential_search_election([2, 9, 10, 15], N=16, model=NO)
    assert all(isinstance(a, AttemptSummary) for a in r.attempts)
    succeeded = [a for a in r.attempts if a.success]
    assert len(succeeded) <= 1
    plan, _ = exponential_plan(16, NO)
    for att, summary in zip(plan, r.attempts):
        assert (summary.index, summary.space, summary.b) == (
            att.index, att.space, att.b,
        )
        assert summary.rounds == att.end - att.base
    # no activity after the winning attempt's test slot
    if succeeded:
        cutoff = next(a.test_slot for a in plan if a.index == succeeded[0].index)
        assert max(rnd for rnd, _, _, _ in r.transcript.events) == cutoff


def reference_attempt_summaries(report):
    """Per-event attempt tally that `_attempt_summaries` must agree with:
    an event's attempt is the first one ending after its round."""
    attempts, _ = exponential_plan(report.N, report.model)
    ends = [att.end for att in attempts]
    counts = [{} for _ in attempts]
    success = [False] * len(attempts)
    for rnd, dev, action, _ in report.transcript.events:
        i = bisect_right(ends, rnd)
        if i == len(attempts):
            continue  # the final self-election slot
        counts[i][dev] = counts[i].get(dev, 0) + 1
        if rnd == attempts[i].test_slot and action.kind == "transmit":
            success[i] = True
    return tuple(
        AttemptSummary(
            index=att.index,
            space=att.space,
            b=att.b,
            success=ok,
            rounds=att.end - att.base,
            energy_max=max(c.values()) if c else 0,
        )
        for att, c, ok in zip(attempts, counts, success)
    )


@pytest.mark.parametrize("model", list(CdModel), ids=lambda m: m.value)
def test_attempt_summaries_match_per_event_reference(model):
    rng = random.Random(11)
    for N in range(1, 65):
        start = rng.randrange(1, N + 1)
        id_sets = [
            rng.sample(range(1, N + 1), rng.randrange(1, N + 1)),
            range(start, rng.randrange(start, N + 1) + 1),
        ]
        for ids in id_sets:
            report = exponential_search_election(ids, N, model=model)
            assert report.attempts == reference_attempt_summaries(report), (
                N, sorted(ids))
    N = 1 << 10
    full = exponential_search_election(range(1, N + 1), N, model=model)
    assert full.attempts == reference_attempt_summaries(full)


def test_exponential_plan_is_shared_and_immutable():
    attempts, _ = exponential_plan(64, SE)
    assert isinstance(attempts, tuple)
    assert exponential_plan(64, SE)[0] is attempts


def test_sender_side_census_memory_tracks_devices_not_width():
    # attempt 1 (512 blocks, 32 devices) fails and attempt 2 is one block of
    # b = 4096 ids, where per-device census state of O(b) would need ~26 MB
    N = 1 << 13
    plan, _ = exponential_plan(N, SE)
    assert plan[1].b == plan[1].space == N // 2
    ids = random.Random(2).sample(range(1, N + 1), N >> 8)
    tracemalloc.start()
    try:
        report = exponential_search_election(ids, N, model=SE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.strict_success and not report.attempts[0].success
    assert peak < 2_000_000


def test_exponential_replay():
    config = ProtocolConfig(model=SE, N=16)
    runs = [execute(ExponentialSearchProgram, [3, 11, 12], config) for _ in range(2)]
    assert runs[0].transcript == runs[1].transcript
