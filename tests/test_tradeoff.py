import itertools

import pytest

from radioleader import partitions
from radioleader.channel import CdModel
from radioleader.partitions import (
    LABEL_BUDGET,
    PartitionFamily,
    family_size,
    generate_family,
)
from radioleader.protocols_core import ceil_log2, pairing_level_len
from radioleader.runtime import ProtocolConfig, execute
from radioleader.tradeoff import (
    InvalidParams,
    PartitionTradeoffProgram,
    choose_params,
    partition_tradeoff_election,
)

SC, SE = CdModel.STRONG_CD, CdModel.SENDER_CD


def small_family():
    return generate_family(16, 4, 0.5, n_max=2)


# --- parameter selection ----------------------------------------------------


def test_choose_params_small_point():
    fam = choose_params(16, 2, 4, 0.5)
    assert (fam.b, fam.K) == (4, 32)
    assert fam.certificate == "exhaustive:2"


def test_choose_params_case_one():
    # sparse enough that the bare k-th root suffices: 1 <= 2^{0.5}
    fam = choose_params(16, 1, 4, 0.5)
    assert (fam.b, fam.K) == (2, 64)

    fam2 = choose_params(2**16, 2, 4, 0.5, verify_mode="sampled",
                         verify_trials=2000)
    # ceil((2^16)^{1/4}) = 16 and 2 <= 16^{0.5}
    assert (fam2.b, fam2.K) == (16, 64)


def test_choose_params_case_two_wide():
    # 64 > 16^{0.5}, so b is the smallest part count with 64 <= b^{0.5}
    fam = choose_params(2**16, 64, 4, 0.5, verify_mode="sampled",
                        verify_trials=300)
    assert (fam.b, fam.K) == (4096, 22)
    assert fam.n_max == 64


def test_choose_params_many_probes():
    # with k past 2*log N the extra probes buy nothing; b stays minimal
    fam = choose_params(2**16, 2, 16, 0.5, verify_mode="sampled",
                        verify_trials=2000)
    assert (fam.b, fam.K) == (4, 128)
    clamped = choose_params(16, 2, 1000, 0.5)
    assert clamped.b == choose_params(16, 2, 8, 0.5).b


def test_choose_params_respects_supplied_family():
    fam = small_family()
    assert choose_params(16, 2, 4, 0.5, family=fam) is fam
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
    # b^(1-epsilon) >= 2 needs b >= 2^100 here, past the int64 labels
    with pytest.raises(InvalidParams, match="more than 2"):
        choose_params(16, 2, 4, 0.99)
    choose_params(2**16, 2, 4, 0.5, verify_mode="sampled", verify_trials=2000)


def test_choose_params_refuses_a_family_over_the_label_budget(monkeypatch):
    # the largest seeded family of the suite, N = 2^16 with b = 4, holds
    # K * N = 128 * 2^16 labels, a quarter of the budget
    assert family_size(2**16, 4, 0.5) * 2**16 * 4 <= LABEL_BUDGET
    monkeypatch.setattr(partitions, "_draw_partitions", None)  # no draw
    with pytest.raises(InvalidParams, match="ROADMAP item 11"):
        choose_params(2**30, 2, 8, 0.5)


def test_chosen_b_satisfies_density_precondition():
    for n in (2, 3, 5, 8, 16, 64):
        fam = choose_params(2**10, n, 5, 0.5, verify_mode="sampled",
                            verify_trials=500)
        assert n <= fam.b ** (1.0 - 0.5) + 1e-9
        # ceil((2^10)^{1/5}) = 4 covers n <= 4^{1/2}; above that b is minimal
        if n > 2 and fam.b > 2:
            # minimality: one part fewer would break the precondition
            assert (fam.b - 1) ** 0.5 < n - 1e-9


# --- the election itself ----------------------------------------------------


def test_partition_tradeoff_two_devices():
    fam = choose_params(16, 2, 4, 0.5, family=small_family())
    report = partition_tradeoff_election([3, 11], fam)
    assert report.leader == 11
    assert report.strict_success and report.easy_success
    assert report.rounds == fam.K * 2 * fam.b
    assert report.ledger.max_energy <= 2 * fam.K + ceil_log2(fam.b) + 1


def test_partition_tradeoff_singleton():
    fam = choose_params(16, 2, 4, 0.5, family=small_family())
    report = partition_tradeoff_election([5], fam)
    assert report.leader == 5
    assert report.strict_success


def test_partition_tradeoff_exhaustive_pairs():
    fam = small_family()
    assert choose_params(16, 2, 4, 0.5, family=fam) is fam
    bound = 2 * fam.K + ceil_log2(fam.b) + 1
    for subset in itertools.combinations(range(1, 17), 2):
        report = partition_tradeoff_election(list(subset), fam)
        assert report.strict_success and report.easy_success
        assert report.leader in subset
        assert report.ledger.max_energy <= bound


def test_partition_tradeoff_same_leader_under_both_sender_models():
    fam = small_family()
    for subset in ([3, 11], [1, 16], [7, 8]):
        a = partition_tradeoff_election(subset, fam, model=SE)
        b = partition_tradeoff_election(subset, fam, model=SC)
        assert a.leader == b.leader


def test_partition_tradeoff_enforces_n_max():
    with pytest.raises(ValueError):
        partition_tradeoff_election([1, 2, 3], small_family())


def test_bad_family_reports_no_leader():
    # every draw lumps all devices together, so nobody is ever alone
    lump = (1,) * 8
    fam = PartitionFamily(
        N=8, b=4, epsilon_tilde=0.5, n_max=2, seed=0, c_const=8,
        partitions=(lump, lump), certificate="unverified",
    )
    report = partition_tradeoff_election([2, 5], fam)
    assert not report.strict_success
    assert report.leader is None
    assert report.rounds == 2 * 2 * 4
    # both devices burn one marking transmit and one announce listen per pass
    assert report.ledger.max_energy == 2 * fam.K


def test_replay_check_passes():
    config = ProtocolConfig(model=SE, N=16, family=small_family())
    runs = [execute(PartitionTradeoffProgram, [4, 9], config) for _ in range(2)]
    assert runs[0].transcript == runs[1].transcript


def test_marked_devices_really_are_alone():
    # a transmitter hearing its own id back in a marking slot must be the
    # only member of its part; cross-check against the partition itself
    fam = small_family()
    span = 2 * fam.b
    for subset in ([3, 11], [1, 2], [6, 14], [15, 16]):
        report = partition_tradeoff_election(subset, fam)
        for rnd, dev, action, fb in report.transcript.events:
            offset_in_pass = rnd % span
            if action.kind != "transmit" or offset_in_pass >= fam.b:
                continue
            part = fam.partitions[rnd // span][dev - 1]
            assert offset_in_pass == part - 1
            if fb.kind == "received" and fb.payload == dev:
                others = [d for d in subset if d != dev]
                assert all(
                    fam.partitions[rnd // span][d - 1] != part for d in others
                )


def test_winner_ends_the_run_early():
    fam = small_family()
    span = 2 * fam.b
    report = partition_tradeoff_election([3, 11], fam)
    announce_rounds = [
        rnd for rnd, _, action, _ in report.transcript.events
        if rnd % span == span - 1 and action.kind == "transmit"
    ]
    assert len(announce_rounds) == 1
    last_event = max(rnd for rnd, _, _, _ in report.transcript.events)
    assert last_event == announce_rounds[0]


def test_schedule_length_formula():
    # each iteration: b marking slots, the compact knockout over the b part
    # indices, one announcement
    fam = small_family()
    knockout, space = 0, fam.b
    while space > 1:
        knockout += pairing_level_len(space, compact=True)
        space = (space + 1) // 2
    config = ProtocolConfig(model=SE, N=fam.N, family=fam)
    assert PartitionTradeoffProgram.schedule_length(config) == fam.K * 2 * fam.b
    assert fam.b + knockout + 1 == 2 * fam.b

