import itertools
import random

from radioleader.channel import CdModel
from radioleader.protocols_core import (
    binary_search_election,
    ceil_div,
    ceil_log2,
    halving_tradeoff_election,
    pairing_election,
    pairing_level_len,
    pairing_level_phase,
    pairing_phase_len,
)
from radioleader.runtime import DeviceProgram, ProtocolConfig, run_programs

ST, RC = CdModel.STRONG_CD, CdModel.RECEIVER_CD


# --- independent reference models (set-level recursions, no channel) -------

def ref_pairing_level(ids, space):
    """Survivor rule per pair {2j-1, 2j}: the odd id wins if present, else
    the even id survives unopposed.  Returns {survivor: new_id}."""
    out = {}
    present = set(ids)
    for j in range(1, (space + 1) // 2 + 1):
        odd, even = 2 * j - 1, 2 * j
        if odd in present:
            out[odd] = j
        elif even in present:
            out[even] = j
    return out


def ref_pairing_winner_translated(owners, space):
    """owners: {current_id: original_id}."""
    while space > 1:
        level = ref_pairing_level(set(owners), space)
        owners = {new: owners[old] for old, new in level.items()}
        space = (space + 1) // 2
    return owners[1]


def ref_pairing(ids, space):
    return ref_pairing_winner_translated({i: i for i in ids}, space)


def test_reference_pairing_is_min():
    # the odd id of a pair is the smaller one, so each pair's survivor is
    # its minimum present member and the champion is min(V)
    rng = random.Random(1)
    for _ in range(200):
        space = rng.randrange(1, 40)
        size = rng.randrange(1, space + 1)
        ids = rng.sample(range(1, space + 1), size)
        assert ref_pairing(ids, space) == min(ids)


# --- pairing ----------------------------------------------------------------


class PairingReduceProgram(DeviceProgram):
    """One standalone knockout level; survival is reported, nobody leads."""

    @classmethod
    def schedule_length(cls, config: ProtocolConfig) -> int:
        return pairing_level_len(config.N)

    def run(self):
        self.survived, self.new_id = yield from pairing_level_phase(
            self.device_id, self.config.N
        )


def pairing_reduce_once(devices, N):
    """Run one knockout level and return {surviving id: new id} over the
    halved id space [1..ceil(N/2)], along with the run report.  A slot has
    one transmitter at most, so the run uses no_cd: no model changes it."""
    config = ProtocolConfig(model=CdModel.NO_CD, N=N)
    report, programs = run_programs(PairingReduceProgram, devices, config)
    survivors = {
        dev: prog.new_id for dev, prog in programs.items() if prog.survived
    }
    return survivors, report


def test_pairing_level_lengths():
    assert pairing_level_len(4) == 2
    assert pairing_level_len(5) == 3
    assert pairing_level_len(5, compact=True) == 2
    assert pairing_level_len(1) == 1  # non-compact level always has a slot
    assert pairing_level_len(1, compact=True) == 0


def test_pairing_phase_rounds_recurrence():
    # rounds(space) = ceil(space/2) + rounds(ceil(space/2)), rounds(1) = 0
    def rec(space):
        total = 0
        while space > 1:
            total += (space + 1) // 2
            space = (space + 1) // 2
        return total

    for space in range(1, 200):
        assert pairing_phase_len(space) == rec(space)
        assert pairing_phase_len(space) <= 2 * space
        # the compact knockout the partition trade-off embeds: space - 1 slots
        compact, s = 0, space
        while s > 1:
            compact += pairing_level_len(s, compact=True)
            s = (s + 1) // 2
        assert compact == space - 1


def test_pairing_reduce_once_examples():
    survivors, report = pairing_reduce_once([2, 3], 4)
    assert survivors == {2: 1, 3: 2}
    assert report.rounds == 2  # ceil(4/2)

    survivors, _ = pairing_reduce_once([1, 2], 2)
    assert survivors == {1: 1}

    survivors, _ = pairing_reduce_once([2], 2)
    assert survivors == {2: 1}


def test_pairing_reduce_keeps_one_per_occupied_pair():
    rng = random.Random(7)
    for _ in range(100):
        N = rng.randrange(1, 30)
        size = rng.randrange(1, N + 1)
        ids = sorted(rng.sample(range(1, N + 1), size))
        survivors, _ = pairing_reduce_once(ids, N)
        assert survivors == ref_pairing_level(ids, N), (N, ids)
        occupied = {(i + 1) // 2 for i in ids}
        assert len(survivors) == len(occupied)
        assert len(survivors) >= ceil_div(len(ids), 2)


def test_pairing_election_exhaustive_small():
    for N in range(1, 9):
        for r in range(1, N + 1):
            for V in itertools.combinations(range(1, N + 1), r):
                report = pairing_election(list(V), N)
                assert report.strict_success
                assert report.leader == ref_pairing(V, N), (N, V)


def test_pairing_election_spec_points():
    r = pairing_election([1], 1)
    assert r.leader == 1 and r.ledger.max_energy <= 1  # announcement only

    r = pairing_election([1, 2, 3, 4], 4)
    assert r.strict_success and r.ledger.max_energy <= 5

    # full N=8 subset sweep is criterion-level; spot-check sizes here
    rng = random.Random(3)
    for _ in range(50):
        N = rng.randrange(2, 65)
        ids = sorted(rng.sample(range(1, N + 1), rng.randrange(2, N + 1)))
        report = pairing_election(ids, N)
        assert report.strict_success
        assert report.leader == min(ids)
        assert report.easy_success
        assert report.rounds == pairing_phase_len(N) + 1 <= 2 * N + 1
        assert report.ledger.max_energy <= ceil_log2(N) + 1


def test_pairing_works_in_all_models():
    for model in CdModel:
        report = pairing_election([3, 5, 6], 8, model=model)
        assert report.strict_success
        assert report.leader == 3


# --- binary search ----------------------------------------------------------


def test_binary_search_spec_examples():
    r = binary_search_election([5], 8, model=ST)
    assert r.leader == 5 and r.strict_success

    r = binary_search_election([1, 2], 2, model=ST)
    assert r.leader == 1

    for V in itertools.chain.from_iterable(
        itertools.combinations(range(1, 17), k) for k in (1, 2, 3)
    ):
        for model in (ST, RC):
            report = binary_search_election(list(V), 16, model=model)
            assert report.strict_success
            assert report.leader == min(V)


def test_binary_search_rounds_and_energy():
    rng = random.Random(11)
    for _ in range(60):
        N = rng.randrange(1, 130)
        ids = sorted(rng.sample(range(1, N + 1), rng.randrange(1, N + 1)))
        report = binary_search_election(ids, N, model=RC)
        assert report.strict_success
        assert report.leader == min(ids)
        assert report.rounds == ceil_log2(N) + 1
        assert report.ledger.max_energy <= ceil_log2(N) + 1


# --- halving trade-off ------------------------------------------------------


def test_iterated_halving_equals_ceil_pow2():
    # folding ceil-halving k times lands exactly on ceil(N / 2^k)
    for N in list(range(1, 300)) + [1023, 1024, 1025, 4097]:
        space = N
        for k in range(1, 14):
            space = (space + 1) // 2
            assert space == ceil_div(N, 1 << k), (N, k)


def test_halving_spec_example_interval():
    report = halving_tradeoff_election([9, 10], 16, 2)
    assert report.strict_success
    assert report.leader == 9
    # k probes + inner binary on the size-4 residue + announcement
    assert report.rounds == 2 + ceil_log2(4) + 1 == 5


def test_halving_exhaustive_small():
    for N in range(1, 11):
        for k in range(1, ceil_log2(max(N, 2)) + 1):
            for r in range(1, N + 1):
                for V in itertools.combinations(range(1, N + 1), r):
                    report = halving_tradeoff_election(list(V), N, k)
                    assert report.strict_success, (N, k, V)
                    assert report.leader == min(V)


def test_halving_full_k_equals_binary_search_cost():
    N = 64
    k = ceil_log2(N)
    report = halving_tradeoff_election([17, 40, 63], N, k)
    assert report.strict_success
    assert report.ledger.max_energy <= k + 1


def test_halving_rounds_and_energy_bounds():
    rng = random.Random(5)
    for _ in range(60):
        N = rng.randrange(2, 257)
        k = rng.randrange(1, 12)
        ids = sorted(rng.sample(range(1, N + 1), rng.randrange(1, min(N, 8) + 1)))
        report = halving_tradeoff_election(ids, N, k)
        residue = ceil_div(N, 1 << min(k, ceil_log2(N)))
        assert report.strict_success
        assert report.rounds <= k + ceil_log2(residue) + 1
        assert report.ledger.max_energy <= k + ceil_log2(residue) + 1


# --- shared properties ------------------------------------------------------


def test_strict_implies_easy_with_audience():
    rng = random.Random(13)
    for _ in range(40):
        N = rng.randrange(2, 100)
        ids = sorted(rng.sample(range(1, N + 1), rng.randrange(2, min(N, 10) + 1)))
        for report in (
            pairing_election(ids, N),
            binary_search_election(ids, N, model=RC),
            halving_tradeoff_election(ids, N, 3),
        ):
            assert report.strict_success
            assert report.easy_success, (N, ids, report.model)
