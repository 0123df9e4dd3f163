import itertools
import math

import pytest

from radioleader.channel import CdModel
from radioleader.partitions import Certificate, Partition, PartitionFamily, generate_family
from radioleader.protocols_core import ceil_log2, pairing_phase_len
from radioleader.runtime import NonDeterminism
from radioleader.tradeoff import (
    InvalidParams,
    NoLeader,
    PartitionTradeoffProgram,
    TradeoffParams,
    choose_params,
    partition_tradeoff_election,
    strong_cd_tradeoff_election,
)

SC, SE, RC, NO = (
    CdModel.STRONG_CD,
    CdModel.SENDER_CD,
    CdModel.RECEIVER_CD,
    CdModel.NO_CD,
)


def small_family():
    return generate_family(16, 4, 0.5, n_max=2)


# --- parameter selection ----------------------------------------------------


def test_choose_params_small_point():
    p = choose_params(16, 2, 4, 0.5)
    assert (p.case, p.b, p.K) == (2, 4, 32)
    assert p.family.certificate.token() == "exhaustive:2"


def test_choose_params_case_one():
    # sparse enough that the bare k-th root suffices: 1 <= 2^{0.5}
    p = choose_params(16, 1, 4, 0.5)
    assert (p.case, p.b) == (1, 2)
    assert p.K == 64

    p2 = choose_params(2**16, 2, 4, 0.5, verify_mode="sampled",
                       verify_trials=2000)
    # ceil((2^16)^{1/4}) = 16 and 2 <= 16^{0.5}
    assert (p2.case, p2.b, p2.K) == (1, 16, 64)


def test_choose_params_case_two_wide():
    p = choose_params(2**16, 64, 4, 0.5, verify_mode="sampled",
                      verify_trials=300)
    assert (p.case, p.b, p.K) == (2, 4096, 22)
    assert p.family.n_max == 64


def test_choose_params_many_probes():
    # with k past 2*log N the extra probes buy nothing; b stays minimal
    p = choose_params(2**16, 2, 16, 0.5, verify_mode="sampled",
                      verify_trials=2000)
    assert (p.case, p.b, p.K) == (2, 4, 128)
    clamped = choose_params(16, 2, 1000, 0.5)
    assert clamped.b == choose_params(16, 2, 8, 0.5).b


def test_choose_params_respects_supplied_family():
    fam = small_family()
    p = choose_params(16, 2, 4, 0.5, family=fam)
    assert p.family is fam
    with pytest.raises(InvalidParams):
        choose_params(16, 1, 4, 0.5, family=fam)  # case 1 picks b=2, not 4


def test_choose_params_rejects_bad_inputs():
    for eps in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(InvalidParams):
            choose_params(16, 2, 4, eps)
    with pytest.raises(InvalidParams):
        choose_params(16, 0, 4, 0.5)
    with pytest.raises(InvalidParams):
        choose_params(16, 17, 4, 0.5)
    with pytest.raises(InvalidParams):
        choose_params(2**16, 2, 3, 0.5)  # needs k >= ceil(log log N) = 4
    choose_params(2**16, 2, 4, 0.5, verify_mode="sampled", verify_trials=2000)


def test_chosen_b_satisfies_density_precondition():
    for n in (2, 3, 5, 8, 16, 64):
        p = choose_params(2**10, n, 5, 0.5, verify_mode="sampled",
                          verify_trials=500)
        assert n <= p.b ** (1.0 - 0.5) + 1e-9
        if p.case == 2 and p.b > 2:
            # minimality: one part fewer would break the precondition
            assert (p.b - 1) ** 0.5 < n - 1e-9


# --- the election itself ----------------------------------------------------


def test_partition_tradeoff_two_devices():
    params = choose_params(16, 2, 4, 0.5, family=small_family())
    report = partition_tradeoff_election([3, 11], params)
    assert report.leader == 11
    assert report.strict_success and report.easy_success
    assert report.rounds == params.K * 2 * params.b
    assert report.ledger.max_energy <= 2 * params.K + ceil_log2(params.b) + 1


def test_partition_tradeoff_singleton():
    params = choose_params(16, 2, 4, 0.5, family=small_family())
    report = partition_tradeoff_election([5], params)
    assert report.leader == 5
    assert report.strict_success


def test_partition_tradeoff_exhaustive_pairs():
    fam = small_family()
    params = choose_params(16, 2, 4, 0.5, family=fam)
    bound = 2 * params.K + ceil_log2(params.b) + 1
    for subset in itertools.combinations(range(1, 17), 2):
        report = partition_tradeoff_election(list(subset), params)
        assert report.strict_success and report.easy_success
        assert report.leader in subset
        assert report.ledger.max_energy <= bound


def test_partition_tradeoff_same_leader_under_both_sender_models():
    params = choose_params(16, 2, 4, 0.5, family=small_family())
    for subset in ([3, 11], [1, 16], [7, 8]):
        a = partition_tradeoff_election(subset, params, model=SE)
        b = partition_tradeoff_election(subset, params, model=SC)
        assert a.leader == b.leader


def test_partition_tradeoff_needs_sender_side():
    params = choose_params(16, 2, 4, 0.5, family=small_family())
    for model in (RC, NO):
        with pytest.raises(ValueError):
            partition_tradeoff_election([3, 11], params, model=model)


def test_partition_tradeoff_enforces_n_max():
    params = choose_params(16, 2, 4, 0.5, family=small_family())
    with pytest.raises(ValueError):
        partition_tradeoff_election([1, 2, 3], params)


def test_bad_family_raises_no_leader():
    # every draw lumps all devices together, so nobody is ever alone
    lump = Partition(b=4, part_of=(1,) * 8)
    fam = PartitionFamily(
        N=8, b=4, K=2, epsilon_tilde=0.5, n_max=2, seed=0, c_const=8,
        partitions=(lump, lump), certificate=Certificate("unverified"),
    )
    params = TradeoffParams(b=4, K=2, epsilon_tilde=0.5, case=2, family=fam)
    with pytest.raises(NoLeader) as exc:
        partition_tradeoff_election([2, 5], params)
    report = exc.value.report
    assert not report.strict_success
    assert report.leader is None
    assert report.rounds == 2 * 2 * 4
    # both devices burn one marking transmit and one announce listen per pass
    assert report.ledger.max_energy == 2 * fam.K


def test_replay_check_passes():
    params = choose_params(16, 2, 4, 0.5, family=small_family())
    partition_tradeoff_election([4, 9], params, check_replay=True)


class ShiftingPartition:
    """A partition whose part() answers differently on every call."""

    def __init__(self, b):
        self.b = b
        self.calls = itertools.count()

    def part(self, ident):
        return next(self.calls) % self.b + 1


def test_replay_check_catches_a_shifting_partition():
    fam = small_family()
    shifty = PartitionFamily(
        N=fam.N, b=fam.b, K=fam.K, epsilon_tilde=0.5, n_max=fam.n_max, seed=0,
        c_const=8, partitions=(ShiftingPartition(fam.b),) * fam.K,
        certificate=Certificate("unverified"),
    )
    params = TradeoffParams(b=fam.b, K=fam.K, epsilon_tilde=0.5, case=2,
                            family=shifty)
    with pytest.raises(NonDeterminism):
        partition_tradeoff_election([4, 9], params, check_replay=True)


def test_marked_devices_really_are_alone():
    # a transmitter hearing its own id back in a marking slot must be the
    # only member of its part; cross-check against the partition itself
    fam = small_family()
    params = choose_params(16, 2, 4, 0.5, family=fam)
    span = 2 * params.b
    for subset in ([3, 11], [1, 2], [6, 14], [15, 16]):
        report = partition_tradeoff_election(subset, params)
        for rnd, dev, action, fb in report.transcript.events:
            offset_in_pass = rnd % span
            if action.kind != "transmit" or offset_in_pass >= params.b:
                continue
            part = fam.partitions[rnd // span].part(dev)
            assert offset_in_pass == part - 1
            if fb.kind == "received" and fb.payload == dev:
                others = [d for d in subset if d != dev]
                assert all(
                    fam.partitions[rnd // span].part(d) != part for d in others
                )


def test_winner_ends_the_run_early():
    params = choose_params(16, 2, 4, 0.5, family=small_family())
    span = 2 * params.b
    report = partition_tradeoff_election([3, 11], params)
    announce_rounds = [
        rnd for rnd, _, action, _ in report.transcript.events
        if rnd % span == span - 1 and action.kind == "transmit"
    ]
    assert len(announce_rounds) == 1
    last_event = max(rnd for rnd, _, _, _ in report.transcript.events)
    assert last_event == announce_rounds[0]


def test_schedule_length_formula():
    fam = small_family()
    expected = fam.K * (fam.b + pairing_phase_len(fam.b, compact=True) + 1)
    assert PartitionTradeoffProgram.schedule_length(None, fam) == expected
    assert expected == fam.K * 2 * fam.b


# --- strong-cd dispatch -----------------------------------------------------


def test_strong_cd_dispatch_prefers_shorter_schedule():
    # at this scale interval halving always wins the round count, and it
    # elects the smallest present id
    report = strong_cd_tradeoff_election([9, 10], 16, 2, 4, 0.5)
    assert report.leader == 9
    assert report.strict_success
    assert report.rounds <= ceil_log2(16) + 2


def test_strong_cd_dispatch_singleton():
    report = strong_cd_tradeoff_election([7], 16, 1, 4, 0.5)
    assert report.leader == 7
