import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radioleader.partitions import (
    PartitionFamily,
    RetriesExhausted,
    _draw_partitions,
    _floyd_subsets,
    _missed_rows,
    _splitmix64_block,
    balls_in_bins_singleton_prob,
    dump_family,
    exhaustive_budget,
    family_size,
    generate_family,
    load_family,
    parse_family,
    save_family,
    singleton_lower_bound,
    splitmix64_at,
    subset_hits_family,
    verify_family,
)


def test_splitmix64_vector_matches_scalar():
    for seed in (0, 1, 0xDEADBEEF, (1 << 64) - 1):
        block = _splitmix64_block(seed, 5, 50)
        for off, value in enumerate(block):
            assert int(value) == splitmix64_at(seed, 5 + off)


def test_splitmix64_spread():
    # not a statistical suite, just a sanity screen against a broken mix
    values = [splitmix64_at(12345, p) for p in range(4096)]
    assert len(set(values)) == 4096
    low_bits = sum(v & 1 for v in values)
    assert 1700 < low_bits < 2400


def test_family_size_formula():
    # K = ceil((C / eps) * log_b N)
    assert family_size(16, 4, 0.5) == 32
    assert family_size(16, 4, 0.5, c_const=1) == 4
    assert family_size(256, 16, 0.5, c_const=8) == 32
    assert family_size(1, 2, 0.5) == 1
    with pytest.raises(ValueError):
        family_size(16, 1, 0.5)
    with pytest.raises(ValueError):
        family_size(16, 4, 0.0)


def test_draw_partitions_deterministic_and_uniformish():
    a = _draw_partitions(64, 4, 8, seed=3)
    b = _draw_partitions(64, 4, 8, seed=3)
    c = _draw_partitions(64, 4, 8, seed=4)
    assert a == b
    assert a != c
    flat = [p for row in a for p in row]
    assert set(flat) <= set(range(1, 5))
    # all four parts show up somewhere across 512 assignments
    assert set(flat) == {1, 2, 3, 4}


@pytest.mark.parametrize("N, b, K, seed", [
    (1, 2, 1, 0), (7, 3, 5, 11), (64, 4, 8, 3), (33, 97, 4, (1 << 64) - 1),
])
def test_draw_follows_the_stream_formula_and_keeps_prefixes(N, b, K, seed):
    rows = _draw_partitions(N, b, K, seed)
    assert len(rows) == K
    for i, row in enumerate(rows):
        assert type(row) is tuple and len(row) == N
        for x in range(1, N + 1):
            assert type(row[x - 1]) is int
            assert row[x - 1] == splitmix64_at(seed, i * N + x - 1) % b + 1
    for K2 in range(1, K + 1):
        assert rows[:K2] == _draw_partitions(N, b, K2, seed)


def test_subset_hits_family():
    iso = (1, 2, 3, 4)
    merged = (1, 1, 2, 2)
    assert subset_hits_family([iso], (1, 2, 3))
    assert not subset_hits_family([merged], (1, 2, 3, 4))
    assert subset_hits_family([merged, iso], (1, 2, 3, 4))
    # size-1 subsets always hit: the device is alone in its own part
    assert subset_hits_family([merged], (3,))


def test_identity_partition_family_verifies_for_any_size():
    ident = tuple(range(1, 9))
    fam = PartitionFamily(
        N=8, b=8, epsilon_tilde=0.5, n_max=2, seed=0, c_const=8,
        partitions=(ident,), certificate="unverified",
    )
    result = verify_family(fam, mode="exhaustive")
    assert result.ok
    assert result.certificate == "exhaustive:2"
    assert result.counterexample is None


def test_single_part_family_fails_with_counterexample():
    lump = (1, 1, 1, 1)
    fam = PartitionFamily(
        N=4, b=4, epsilon_tilde=0.5, n_max=2, seed=0, c_const=8,
        partitions=(lump, lump), certificate="unverified",
    )
    result = verify_family(fam, mode="exhaustive")
    assert not result.ok
    assert result.counterexample is not None
    assert len(result.counterexample) == 2  # singletons are always isolated


def test_generate_family_spec_points():
    fam = generate_family(16, 4, 0.5, n_max=2)
    assert fam.K == 32
    assert fam.certificate == "exhaustive:2"
    assert len(fam.partitions) == 32
    assert all(set(row) <= {1, 2, 3, 4} for row in fam.partitions)

    # seed named in the worked example
    fam1 = generate_family(16, 4, 0.5, n_max=2, seed=1)
    assert fam1.certificate != "unverified"

    # n_max=1 is trivially fine whatever the draw
    trivial = generate_family(8, 8, 0.5, n_max=1)
    assert trivial.certificate != "unverified"

    with pytest.raises(ValueError):
        generate_family(16, 2, 0.5, n_max=4)  # 4 > 2^{0.5}
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        generate_family(16, 4, 0.5, n_max=0)


def test_generate_family_is_reproducible():
    a = generate_family(32, 4, 0.5, n_max=2, seed=9)
    b = generate_family(32, 4, 0.5, n_max=2, seed=9)
    assert dump_family(a) == dump_family(b)
    assert a.partitions == b.partitions


def test_generate_family_retry_exhaustion(monkeypatch):
    # random draws essentially never fail verification, so simulate a world
    # where every subset escapes isolation and count the attempts
    import radioleader.partitions as mod

    seen = []
    monkeypatch.setattr(
        mod, "subset_hits_family",
        lambda parts, subset: seen.append(subset) is not None and False,
    )
    with pytest.raises(RetriesExhausted):
        generate_family(8, 4, 0.5, n_max=2, max_retries=3)
    assert len(seen) == 3  # one failing subset per attempt, three attempts


def test_exhaustive_budget_and_mode_selection():
    assert exhaustive_budget(16, 2) == 16 + 120
    fam = generate_family(16, 4, 0.5, n_max=2, verify_mode="auto")
    assert fam.certificate == "exhaustive:2"
    big = generate_family(4096, 64, 0.5, n_max=4, verify_mode="auto",
                          trials=2000)
    assert big.certificate == "sampled:2000"
    with pytest.raises(ValueError, match="exceeds the work budget"):
        verify_family(big, mode="exhaustive")
    with pytest.raises(ValueError, match="unknown verification mode"):
        verify_family(fam, mode="proof")


def test_sampled_verification_spec_grid():
    fam = generate_family(256, 16, 0.5, n_max=4, verify_mode="sampled",
                          trials=5000)
    assert fam.certificate == "sampled:5000"


def test_sampled_verification_rejects_vacuous_trials():
    for trials in (0, -3):
        with pytest.raises(ValueError):
            generate_family(4096, 64, 0.5, n_max=8, verify_mode="sampled",
                            trials=trials)
    # sizes above N are vacuous, as in exhaustive mode
    ident = (1, 2, 3)
    fam = PartitionFamily(
        N=3, b=4, epsilon_tilde=0.5, n_max=5, seed=0, c_const=8,
        partitions=(ident,), certificate="unverified",
    )
    assert verify_family(fam, mode="exhaustive").ok
    result = verify_family(fam, mode="sampled", trials=50)
    assert result.ok and result.certificate == "sampled:50"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_missed_rows_matches_scalar_check(data):
    K = data.draw(st.integers(1, 4))
    b = data.draw(st.integers(2, 5))
    N = data.draw(st.integers(1, 12))
    grid = data.draw(st.lists(st.lists(st.integers(1, b), min_size=N, max_size=N),
                              min_size=K, max_size=K))
    m = data.draw(st.integers(1, N))
    subsets = data.draw(st.lists(
        st.lists(st.integers(1, N), min_size=m, max_size=m, unique=True),
        min_size=1, max_size=20))
    missed = _missed_rows(np.array(grid, dtype=np.int64), np.array(subsets, dtype=np.int64))
    expected = [r for r, subset in enumerate(subsets)
                if not subset_hits_family(grid, subset)]
    assert missed.tolist() == expected


def test_floyd_subsets_are_uniform_and_reproducible():
    for N, m in ((1, 1), (5, 5), (12, 4), (4096, 8)):
        draws = _floyd_subsets(splitmix64_at(7, 0), 0, 500, N, m)
        assert draws.shape == (500, m)
        assert draws.min() >= 1 and draws.max() <= N
        assert all(len(set(row)) == m for row in draws.tolist())
    draws = _floyd_subsets(splitmix64_at(1, 0), 0, 30_000, 6, 3)
    again = _floyd_subsets(splitmix64_at(1, 0), 0, 30_000, 6, 3)
    assert np.array_equal(draws, again)
    counts = {}
    for row in draws.tolist():
        key = tuple(sorted(row))
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == set(itertools.combinations(range(1, 7), 3))
    expected = 30_000 / 20
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 43.82  # 0.999 quantile of chi-square with 19 degrees of freedom


def test_sampled_lump_family_fails_reproducibly():
    lump = (1, 1, 1, 1, 1, 1)
    fam = PartitionFamily(
        N=6, b=4, epsilon_tilde=0.5, n_max=2, seed=0, c_const=8,
        partitions=(lump, lump), certificate="unverified",
    )
    result = verify_family(fam, mode="sampled", trials=100, rng_seed=5)
    assert not result.ok and result.certificate is None
    subset = result.counterexample
    assert len(subset) == 2 and list(subset) == sorted(subset)
    assert not subset_hits_family(fam.partitions, subset)
    assert verify_family(fam, mode="sampled", trials=100, rng_seed=5) == result


def test_sampled_finds_what_exhaustive_finds():
    # K = 4 partitions of 10 ids into 3 parts: about 40% of the draws miss,
    # many of them on a single subset
    outcomes = []
    for seed in range(40):
        parts = _draw_partitions(10, 3, 4, seed)
        fam = PartitionFamily(
            N=10, b=3, epsilon_tilde=0.5, n_max=3, seed=seed, c_const=1,
            partitions=parts, certificate="unverified",
        )
        exhaustive = verify_family(fam, mode="exhaustive")
        sampled = verify_family(fam, mode="sampled", trials=2000, rng_seed=seed)
        assert sampled.ok == exhaustive.ok
        if not sampled.ok:
            assert not subset_hits_family(parts, sampled.counterexample)
        outcomes.append(sampled.ok)
    assert 5 <= outcomes.count(False) <= 35


def test_benchmark_family_verifies_at_first_seed():
    # the tradeoff call of the benchmark's cli_sweep; a retry would change its rows
    for seed in range(1, 11):
        fam = generate_family(4096, 64, 0.5, n_max=8, seed=seed)
        assert fam.seed == seed
        assert fam.certificate == "sampled:100000"


def test_file_round_trip_byte_equal():
    fam = generate_family(32, 4, 0.5, n_max=2, seed=5)
    text = dump_family(fam)
    again = parse_family(text)
    assert dump_family(again) == text
    assert again.partitions == fam.partitions
    assert again.certificate == fam.certificate
    for token in ("unverified", "sampled:7", "exhaustive:2"):
        header = f"2 2 1 0.5 1 0 8 {token}\n1 2\n"
        assert dump_family(parse_family(header)) == header
    assert again.epsilon_tilde == fam.epsilon_tilde


def test_file_round_trip_on_disk(tmp_path):
    fam = generate_family(16, 4, 0.5, n_max=2)
    path = tmp_path / "fam.txt"
    save_family(fam, path)
    loaded = load_family(path)
    assert dump_family(loaded) == dump_family(fam)


def test_parse_family_rejects_malformed():
    fam = generate_family(16, 4, 0.5, n_max=2)
    lines = dump_family(fam).splitlines()
    with pytest.raises(ValueError):
        parse_family("\n".join(lines[:-1]))  # missing a partition row
    bad = lines[:]
    bad[1] = bad[1].replace("1", "9", 1)  # part index out of range
    with pytest.raises(ValueError):
        parse_family("\n".join(bad))
    with pytest.raises(ValueError):
        parse_family("not a header\n")


# (rows, token, refusal) of N = 4, b = 4 families
MALFORMED_FAMILIES = {
    "label 0": (((1, 2, 0, 4),), "unverified", "labels in 1..4"),
    "label b + 1": (((1, 2, 3, 5),), "unverified", "labels in 1..4"),
    # every pair lands in distinct parts, so verify_family would certify it
    "label 9": (((1, 2, 3, 9),), "unverified", "labels in 1..4"),
    "short row": (((1, 2, 3, 4), (1, 2, 3)), "unverified", "N=4 labels"),
    "long row": (((1, 2, 3, 4, 1),), "unverified", "N=4 labels"),
    "no rows": ((), "unverified", "at least one partition"),
    "token proof:2": (((1, 2, 3, 4),), "proof:2",
                      "unknown certificate token 'proof:2'"),
}


@pytest.mark.parametrize("case", MALFORMED_FAMILIES)
def test_every_malformed_family_is_refused_once(case):
    rows, token, refusal = MALFORMED_FAMILIES[case]
    with pytest.raises(ValueError, match=refusal):
        PartitionFamily(N=4, b=4, epsilon_tilde=0.5, n_max=2, seed=0,
                        c_const=8, partitions=rows, certificate=token)
    text = f"4 4 {len(rows)} 0.5 2 0 8 {token}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in rows)
    with pytest.raises(ValueError, match=refusal):
        parse_family(text)


def test_verified_family_isolates_every_pair():
    fam = generate_family(16, 4, 0.5, n_max=2)
    for pair in itertools.combinations(range(1, 17), 2):
        assert subset_hits_family(fam.partitions, pair)


# --- balls into bins --------------------------------------------------------


def test_balls_single_ball_always_isolated():
    est = balls_in_bins_singleton_prob(1, 7, trials=10**4, seed=0)
    assert est.p_hat == 1.0


def test_balls_exact_small_case():
    # 2 balls in 4 bins: 16 placements, 4 collide -> 3/4
    hits = 0
    for a in range(4):
        for b in range(4):
            if a != b:
                hits += 1
    exact = hits / 16
    assert exact == 0.75
    est = balls_in_bins_singleton_prob(2, 4, trials=10**5, seed=1)
    sigma = math.sqrt(0.75 * 0.25 / 10**5)
    assert abs(est.p_hat - exact) < 3 * sigma


def test_balls_analytic_lower_bound_reported():
    est = balls_in_bins_singleton_prob(4, 64, trials=10**4, seed=2)
    assert est.analytic_lower_bound == pytest.approx(1 - (16 / 64) ** 2)
    assert est.p_hat >= est.analytic_lower_bound - 0.02


def test_balls_monotone_in_bins():
    # more bins, fewer collisions; shared seed keeps the comparison tight
    prev = 0.0
    for b in (8, 16, 32, 64):
        est = balls_in_bins_singleton_prob(4, b, trials=2 * 10**4, seed=3)
        assert est.p_hat >= prev - 0.01
        prev = est.p_hat


def test_balls_precondition_checks():
    with pytest.raises(ValueError):
        balls_in_bins_singleton_prob(0, 8, trials=10**4)  # no balls
    with pytest.raises(ValueError):
        balls_in_bins_singleton_prob(8, 8, trials=10**4)  # needs 2n <= b
    with pytest.raises(ValueError):
        balls_in_bins_singleton_prob(2, 8, trials=100)  # too few trials


def test_singleton_lower_bound_formula():
    assert singleton_lower_bound(2, 16) == 1 - (8 / 16) ** 1
    assert singleton_lower_bound(4, 64) == 1 - (16 / 64) ** 2
