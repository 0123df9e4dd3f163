import itertools
import random
import time
from types import SimpleNamespace

import pytest

from radioleader import partitions, tradeoff
from radioleader.channel import CdModel
from radioleader.partitions import (
    LABEL_BUDGET,
    PartitionFamily,
    family_size,
    generate_family,
)
from radioleader.protocols_core import ceil_log2, pairing_level_len
from radioleader.runtime import ProtocolConfig, run_programs
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


def two_step_b(N, n, k, epsilon):
    """The part count as choose_params found it before one bisection did:
    a float-guessed k-th root ceiling stepped by one, then a bisection for
    the density, and the larger of the two.  None where it refused."""
    k = min(k, max(1, 2 * ceil_log2(N)))
    root = max(1, round(N ** (1.0 / k)))
    while root**k < N:
        root += 1
    while root > 1 and (root - 1) ** k >= N:
        root -= 1
    lo, hi = 2, 1 << 62
    if hi ** (1.0 - epsilon) < n - 1e-9:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** (1.0 - epsilon) >= n - 1e-9:
            hi = mid
        else:
            lo = mid + 1
    return max(root, lo)


def chosen_b(N, n, k, epsilon):
    """choose_params's b, or None where it refuses for more than 2^62 parts."""
    try:
        return choose_params(N, n, k, epsilon).b
    except InvalidParams as refusal:
        assert "more than 2^62 parts" in str(refusal)
        return None


def test_one_bisection_picks_the_two_step_b(monkeypatch):
    # no family is drawn: the stub hands back the (N, b) it was asked for
    monkeypatch.setattr(partitions, "LABEL_BUDGET", float("inf"))
    monkeypatch.setattr(tradeoff, "generate_family",
                        lambda N, b, *args, **kwargs: SimpleNamespace(N=N, b=b))
    rng = random.Random(34)
    cases = []
    for _ in range(2000):
        N = rng.randint(1, 1 << rng.randint(1, 400))
        n = rng.randint(1, min(N, 10**6))
        min_k = max(1, ceil_log2(max(1, ceil_log2(N))))
        k = min_k + rng.choice([0, 1, 3, 50, 10**6])
        epsilon = rng.choice([rng.random() or 0.5, 0.5, 0.01, 0.99, 1e-6])
        cases.append((N, n, k, epsilon))
    # the edge of the int64 labels: b = 2^62 is chosen, 2^62 + 1 refused
    for k in (10, 11, 12):
        for N in ((1 << 62) ** k, (1 << 62) ** k + 1, ((1 << 62) - 1) ** k + 1):
            cases.append((N, 2, k, 0.5))
    refused = 0
    for N, n, k, epsilon in cases:
        want = two_step_b(N, n, k, epsilon)
        if want is not None and want > 1 << 62:
            want = None
            refused += 1
        assert chosen_b(N, n, k, epsilon) == want, (N, n, k, epsilon)
    assert refused == 3


def test_a_root_past_the_int64_labels_is_refused_at_once():
    # each k is ceil(log log N); at N = 2^750 + 1, b^10 >= N needs b > 2^75
    for N, k in ((2**750 + 1, 10), (2**1100, 11), (10**4299, 14)):
        start = time.perf_counter()
        with pytest.raises(InvalidParams, match="more than 2\\^62 parts"):
            choose_params(N, 2, k, 0.5)
        assert time.perf_counter() - start < 1, N
    # an n past 2^62 cannot fit either, even past the largest float
    with pytest.raises(InvalidParams, match="more than 2\\^62 parts"):
        choose_params(2**1100, 2**1050, 11, 0.5)


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
    runs = [run_programs(PartitionTradeoffProgram, [4, 9], config)[0] for _ in range(2)]
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

