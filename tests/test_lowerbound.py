import pytest

from radioleader.channel import LISTEN, CdModel, transmit
from radioleader.lowerbound import (
    RECEIVER_STYLE,
    STRONG_STYLE,
    BudgetExceeded,
    ViolationPair,
    canonical_sequence,
    canonical_sequences,
    first_duplicate,
    matching_count,
    potential_active_slots,
    sequence_budget,
    uniqueness_check,
)
from radioleader.protocols_core import (
    BinarySearchElectionProgram,
    HalvingTradeoffProgram,
    PairingElectionProgram,
    ceil_log2,
)
from radioleader.runtime import DeviceProgram, ProtocolConfig, Verdict, run_programs

ST = CdModel.STRONG_CD


class IdObliviousProgram(DeviceProgram):
    """Deliberately broken fixture: every device transmits in every one of
    its 4 slots regardless of id, so no pair of ids can be separated."""

    @classmethod
    def schedule_length(cls, config) -> int:
        return 4

    def run(self):
        for rnd in range(4):
            yield (rnd, transmit(self.device_id))

    def finish(self) -> Verdict:
        # claims victory by id alone, never by what happened on the channel
        return Verdict(is_leader=self.device_id == 1)


class IdleProgram(DeviceProgram):
    @classmethod
    def schedule_length(cls, config):
        return 3

    def run(self):
        return
        yield  # pragma: no cover


class ListenOnceProgram(DeviceProgram):
    @classmethod
    def schedule_length(cls, config):
        return 3

    def run(self):
        yield (1, LISTEN)


def cfg(N, k=None):
    return ProtocolConfig(model=ST, N=N, k=k)


# --- canonical sequences ------------------------------------------------


def test_canonical_sequence_trivial_programs():
    assert canonical_sequence(IdleProgram, 1, cfg(4)) == "III"
    assert canonical_sequence(ListenOnceProgram, 1, cfg(4)) == "ILI"


def test_canonical_sequence_binary_search():
    # N=4: forced silence tells a listener the lower half is empty, and a
    # transmitter always keeps its half, so id 3 goes listen, transmit, win
    assert canonical_sequence(BinarySearchElectionProgram, 3, cfg(4),
                              style=STRONG_STYLE) == "LTT"
    assert canonical_sequence(BinarySearchElectionProgram, 1, cfg(4)) == "TTT"
    assert canonical_sequence(BinarySearchElectionProgram, 4, cfg(4)) == "LLT"
    assert canonical_sequence(BinarySearchElectionProgram, 3, cfg(8)) == "TLTT"
    for n in (4, 8, 16):
        seq = canonical_sequence(BinarySearchElectionProgram, 2, cfg(n))
        assert len(seq) == ceil_log2(n) + 1


def test_canonical_sequence_pairing():
    # the even id of the only pair listens, hears forced silence, carries on
    assert canonical_sequence(PairingElectionProgram, 2, cfg(2)) == "LT"
    assert canonical_sequence(PairingElectionProgram, 1, cfg(2)) == "TT"


def test_canonical_sequence_styles_and_validation():
    a = canonical_sequence(BinarySearchElectionProgram, 5, cfg(8), RECEIVER_STYLE)
    b = canonical_sequence(BinarySearchElectionProgram, 5, cfg(8), STRONG_STYLE)
    # these programs never branch on transmitter feedback
    assert a == b
    with pytest.raises(ValueError):
        canonical_sequence(BinarySearchElectionProgram, 1, cfg(4), "bogus")


# --- uniqueness ---------------------------------------------------------


def test_uniqueness_of_shipped_protocols():
    for N in (2, 7, 16, 64):
        assert uniqueness_check(BinarySearchElectionProgram, cfg(N)) is None
        assert uniqueness_check(PairingElectionProgram, cfg(N)) is None
        for k in (1, 2, ceil_log2(N)):
            assert uniqueness_check(HalvingTradeoffProgram, cfg(N, k=k)) is None


def test_uniqueness_flags_id_oblivious_program():
    violation = uniqueness_check(IdObliviousProgram, cfg(4))
    assert violation == ViolationPair(1, 2, "TTTT")
    # running exactly that pair keeps them in lockstep: nobody is ever the
    # only transmitter, so the easier success criterion fails
    report = run_programs(IdObliviousProgram, [1, 2], cfg(4))[0]
    assert not report.easy_success


def test_idle_program_is_flagged_too():
    violation = uniqueness_check(IdleProgram, cfg(3))
    assert violation == ViolationPair(1, 2, "III")


def test_first_duplicate_over_canonical_sequences():
    seqs = list(canonical_sequences(BinarySearchElectionProgram, cfg(8), STRONG_STYLE))
    assert seqs == [
        canonical_sequence(BinarySearchElectionProgram, i, cfg(8), STRONG_STYLE)
        for i in range(1, 9)
    ]
    assert first_duplicate(seqs) is None
    # ids count from 1, and the earliest repeat wins
    assert first_duplicate(["LT", "TL", "TT", "TL", "LT"]) == ViolationPair(2, 4, "TL")


# --- matching counts ------------------------------------------------------


def test_matching_all_idle_matches_everything():
    assert matching_count(["IIII"] * 6, k=0) == 6


def test_matching_single_transmits():
    seqs = ["TIII", "ITII", "IITI", "IIIT"]
    # the all-transmit word agrees with every sequence at its one busy slot
    assert matching_count(seqs, k=1) == 4
    assert matching_count(seqs, k=1) >= len(seqs) // 2  # averaging floor


def test_matching_disjoint_patterns():
    seqs = ["TL", "LT", "TT", "LL"]
    assert matching_count(seqs, k=2) == 1


def test_matching_validation():
    with pytest.raises(ValueError):
        matching_count(["TT", "T"], k=2)  # ragged lengths
    with pytest.raises(ValueError):
        matching_count(["TTT"], k=2)  # weight 3 over budget 2
    with pytest.raises(ValueError):
        matching_count(["I" * 24], k=1)  # exhaustive space too large


def test_matching_floor_for_low_energy_protocol():
    N = 64
    config = cfg(N, k=2)
    seqs = [
        canonical_sequence(HalvingTradeoffProgram, i, config)
        for i in range(1, N + 1)
    ]
    t = len(seqs[0])
    k = max(sum(ch != "I" for ch in s) for s in seqs)
    assert matching_count(seqs, k=k) >= -(-N // (1 << min(k, t)))


def test_counting_inequality_for_shipped_protocols():
    # with t rounds and energy k there are only sum C(t,i) 2^i distinct
    # sequences, which must cover all N ids
    for N in (16, 64):
        for factory, config in (
            (BinarySearchElectionProgram, cfg(N)),
            (PairingElectionProgram, cfg(N)),
            (HalvingTradeoffProgram, cfg(N, k=3)),
        ):
            seqs = [
                canonical_sequence(factory, i, config) for i in range(1, N + 1)
            ]
            t = factory.schedule_length(config)
            k = max(sum(ch != "I" for ch in s) for s in seqs)
            assert N <= sequence_budget(t, k)


def test_sequence_budget_values():
    assert sequence_budget(4, 2) == 4 * 2 + 6 * 4  # C(4,1)*2 + C(4,2)*4
    assert sequence_budget(3, 9) == sequence_budget(3, 3)  # k caps at t
    assert sequence_budget(5, 0) == 0


# --- potential active slots -----------------------------------------------


def test_potential_active_slots_trivial():
    assert potential_active_slots(IdleProgram, 1, cfg(4), k=0) == 0
    assert potential_active_slots(ListenOnceProgram, 1, cfg(4), k=1) == 1


def test_potential_active_slots_binary_search():
    # id 3 on [1..8]: transmit, listen, then either finish the search or
    # idle until the announcement listen; four reachable slots
    assert potential_active_slots(BinarySearchElectionProgram, 3, cfg(8), k=4) == 4
    for ident in range(1, 9):
        count = potential_active_slots(
            BinarySearchElectionProgram, ident, cfg(8), k=4
        )
        assert count <= 2**4


def test_potential_active_slots_budget_enforcement():
    with pytest.raises(BudgetExceeded):
        potential_active_slots(BinarySearchElectionProgram, 3, cfg(8), k=3)
    with pytest.raises(BudgetExceeded):
        potential_active_slots(ListenOnceProgram, 1, cfg(4), k=0)


def test_potential_active_slots_refuses_a_deep_tree_before_any_replay():
    class NeverReplayed(BinarySearchElectionProgram):
        def run(self):
            raise AssertionError("a replay started")

    # a tree of min(40, 31) = 31 levels would take 2^32 replays
    with pytest.raises(ValueError, match=r"k=40 on a schedule of 31 slots"):
        potential_active_slots(NeverReplayed, 3, cfg(1 << 30), k=40)
    # at most 2^20 replays (t = 19) fit the budget; 2^21 (t = 20) do not
    with pytest.raises(AssertionError, match="a replay started"):
        potential_active_slots(NeverReplayed, 3, cfg(1 << 18), k=40)
    with pytest.raises(ValueError, match=r"schedule of 20 slots may take 2\^21"):
        potential_active_slots(NeverReplayed, 3, cfg(1 << 19), k=40)
