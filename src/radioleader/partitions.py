"""Random partition families with a covering guarantee.

A family is K partitions of the id space [1..N] into b parts.  It is "good"
for subset sizes up to n_max when every nonempty subset V with |V| <= n_max
has, in at least one partition, some part containing exactly one member of
V.  That singleton is what lets a transmitter hear itself alone on the
channel, so verified families turn a randomized argument into a
deterministic protocol input.

A family is a K x N label table: partitions[i][x - 1] in 1..b is the part
of id x under partition i, and its certificate is the token "unverified",
"exhaustive:<n_max>" or "sampled:<trials>".  Every family is checked on
construction, whether drawn, parsed or built by hand; a malformed one is
refused with ValueError.

Families are generated Las Vegas style: draw K uniform partitions from a
counter-based splitmix64 stream, verify the covering property, and retry
with seed+1 on failure.  The stream is position-indexed,

    value(seed, p) = mix64((seed + (p+1) * GAMMA) mod 2^64)
    partitions[i][x - 1] = 1 + value(seed, i*N + x - 1) mod b

with mix64 the standard splitmix64 finalizer, so generation is reproducible
from (seed, N, b, K) alone, in any order and under any parallel split, and
the first K' rows of a draw are the draw of K' rows.
Serialized families carry the explicit part assignments, so files stay
portable even across implementations that never heard of the stream.

Verification is exhaustive (all subsets, within a work budget) or sampled
(`trials` uniform subsets per size m = 1..min(n_max, N)).  Sampled subsets
come from the same splitmix64 stream, started at seed splitmix64_at(rng_seed,
0) so that it does not coincide with the stream of a family drawn with a
small seed.  Each subset is drawn with Floyd's algorithm, vectorised across
a batch of subsets: for j = N-m+1..N take t = 1 + (v mod j) for the next
stream value v, and j instead when the subset already holds t.  That is
uniform over m-subsets up to a modulo bias of at most N / 2^64 per step,
with no rejection loop.  Batches hold about 2^16 ids whatever m is, and are
checked one partition at a time: sort each subset's parts, and a part
differing from both neighbours is a singleton.  The counterexample is the
first failing subset in draw order, as a sorted tuple.  These subsets differ
from those of versions that sampled with Python's `random`, so a
`sampled:T` certificate refers to this sampler.  A failed check returns the
offending subset; it is a value, not an exception.

balls_in_bins_singleton_prob estimates the probability that throwing n
balls into b bins uniformly leaves at least one bin with exactly one ball,
together with the analytic lower bound 1 - (4n/b)^(n/2) valid for n <= b/2.
Bins are v mod b for values v of the splitmix64 stream started at
splitmix64_at(seed, 0), scored in batches like sampled verification.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional, Sequence, Tuple

import numpy as np

C_CONST = 8  # the constant c of family_size's K = ceil((c / epsilon) log_b N)
EXHAUSTIVE_BUDGET = 10**7  # most subsets verify_family walks exhaustively
LABEL_BUDGET = 1 << 25  # most labels a seeded family draws (about 25 B each)
_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_BATCH_IDS = 1 << 16  # ids per sampled batch, so memory stays flat in n_max


class RetriesExhausted(RuntimeError):
    """No good family found within the retry budget."""


def splitmix64_at(seed: int, position: int) -> int:
    """The position-th value of the splitmix64 stream started at seed."""
    z = (seed + (position + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_block(seed: int, start: int, count: int) -> np.ndarray:
    positions = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = (np.uint64(seed & _MASK64) + positions * np.uint64(_GAMMA)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class PartitionFamily:
    N: int
    b: int
    epsilon_tilde: float
    n_max: int
    seed: int
    c_const: int
    partitions: Tuple[Tuple[int, ...], ...]
    certificate: str

    def __post_init__(self):
        if not self.partitions:
            raise ValueError("a partition family needs at least one partition")
        for row in self.partitions:
            if len(row) != self.N or not row or min(row) < 1 or max(row) > self.b:
                raise ValueError(f"a partition row must hold N={self.N} labels "
                                 f"in 1..{self.b}")
        if not re.fullmatch(r"unverified|(exhaustive|sampled):[0-9]+",
                            self.certificate):
            raise ValueError(f"unknown certificate token {self.certificate!r}")

    @property
    def K(self) -> int:
        return len(self.partitions)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    certificate: Optional[str]
    counterexample: Optional[Tuple[int, ...]]


def family_size(N: int, b: int, epsilon_tilde: float, c_const: int = C_CONST) -> int:
    if b < 2:
        raise ValueError("families need b >= 2 parts")
    if not (0.0 < epsilon_tilde < 1.0):
        raise ValueError("epsilon_tilde must lie strictly between 0 and 1")
    if N <= 1:
        return 1
    ratio = math.log(N) / math.log(b)
    return max(1, math.ceil((c_const / epsilon_tilde) * ratio - 1e-9))


def _draw_partitions(N: int, b: int, K: int, seed: int) -> Tuple[Tuple[int, ...], ...]:
    values = _splitmix64_block(seed, 0, K * N)
    grid = ((values % np.uint64(b)).astype(np.int64) + 1).reshape(K, N)
    return tuple(map(tuple, grid.tolist()))


def _rows_have_singleton(labels: np.ndarray) -> np.ndarray:
    """Per row of a 2-D label array: does some label occur exactly once?"""
    ordered = np.sort(labels, axis=1)
    same = ordered[:, 1:] == ordered[:, :-1]
    lone = np.ones(ordered.shape, dtype=bool)
    lone[:, 1:] &= ~same
    lone[:, :-1] &= ~same
    return lone.any(axis=1)


def _floyd_subsets(stream_seed: int, start: int, rows: int, N: int, m: int) -> np.ndarray:
    """rows uniform m-subsets of [1..N] (unsorted), from stream positions start.."""
    values = _splitmix64_block(stream_seed, start, rows * m).reshape(rows, m)
    out = np.empty((rows, m), dtype=np.int64)
    for col, j in enumerate(range(N - m + 1, N + 1)):
        t = (values[:, col] % np.uint64(j)).astype(np.int64) + 1
        taken = (out[:, :col] == t[:, None]).any(axis=1)
        out[:, col] = np.where(taken, j, t)
    return out


def _missed_rows(grid: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of subsets that no partition isolates a
    member of: subset_hits_family for a batch, with grid the K x N parts."""
    missed = np.arange(len(subsets))
    for parts in grid:
        if missed.size == 0:
            break
        missed = missed[~_rows_have_singleton(parts[subsets[missed] - 1])]
    return missed


def subset_hits_family(partitions: Sequence[Sequence[int]],
                       subset: Sequence[int]) -> bool:
    """True when some partition row isolates one member of the subset."""
    for row in partitions:
        seen = {}
        for ident in subset:
            p = row[ident - 1]
            seen[p] = seen.get(p, 0) + 1
        if 1 in seen.values():
            return True
    return False


def exhaustive_budget(N: int, n_max: int) -> int:
    return sum(math.comb(N, m) for m in range(1, n_max + 1))


def verify_family(
    family: PartitionFamily,
    mode: str = "auto",
    trials: int = 10**5,
    rng_seed: int = 0,
) -> VerifyResult:
    """Check the covering property for all subset sizes 1..n_max.

    mode 'exhaustive' walks every subset (at most EXHAUSTIVE_BUDGET of
    them), 'sampled' draws `trials` >= 1 uniform subsets per size (see the
    module docstring), 'auto' picks exhaustive when affordable.  The
    first failing subset is returned as the counterexample."""
    affordable = exhaustive_budget(family.N, family.n_max) <= EXHAUSTIVE_BUDGET
    if mode == "auto":
        mode = "exhaustive" if affordable else "sampled"
    if mode == "exhaustive":
        if not affordable:
            raise ValueError("exhaustive verification exceeds the work budget")
        for m in range(1, family.n_max + 1):
            for subset in combinations(range(1, family.N + 1), m):
                if not subset_hits_family(family.partitions, subset):
                    return VerifyResult(False, None, subset)
        return VerifyResult(True, f"exhaustive:{family.n_max}", None)
    if mode == "sampled":
        if trials < 1:
            raise ValueError("sampled verification needs trials >= 1")
        grid = np.array(family.partitions, dtype=np.int64)
        stream_seed = splitmix64_at(rng_seed, 0)
        position = 0
        for m in range(1, min(family.n_max, family.N) + 1):
            rows = max(1, _BATCH_IDS // m)
            for first in range(0, trials, rows):
                count = min(rows, trials - first)
                subsets = _floyd_subsets(stream_seed, position, count, family.N, m)
                position += count * m
                missed = _missed_rows(grid, subsets)
                if missed.size:
                    subset = tuple(sorted(int(x) for x in subsets[missed[0]]))
                    return VerifyResult(False, None, subset)
        return VerifyResult(True, f"sampled:{trials}", None)
    raise ValueError(f"unknown verification mode {mode!r}")


def generate_family(
    N: int,
    b: int,
    epsilon_tilde: float,
    n_max: int,
    seed: int = 0,
    max_retries: int = 8,
    verify_mode: str = "auto",
    trials: int = 10**5,
) -> PartitionFamily:
    """Draw and verify a good family; Las Vegas with seed+1 retries.

    The returned family records the seed that actually produced it.  Raises
    RetriesExhausted when max_retries consecutive draws fail verification."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > b ** (1.0 - epsilon_tilde) + 1e-9:
        raise ValueError(
            f"n_max={n_max} exceeds b^(1-epsilon_tilde)={b ** (1.0 - epsilon_tilde):.3f}"
        )
    K = family_size(N, b, epsilon_tilde)
    for attempt in range(max_retries):
        attempt_seed = seed + attempt
        family = PartitionFamily(
            N=N,
            b=b,
            epsilon_tilde=epsilon_tilde,
            n_max=n_max,
            seed=attempt_seed,
            c_const=C_CONST,
            partitions=_draw_partitions(N, b, K, attempt_seed),
            certificate="unverified",
        )
        result = verify_family(family, mode=verify_mode, trials=trials)
        if result.ok:
            return replace(family, certificate=result.certificate)
    raise RetriesExhausted(
        f"no good family for N={N} b={b} n_max={n_max} after {max_retries} seeds"
    )


# ---------------------------------------------------------------------------
# serialization: header line `N b K epsilon_tilde n_max seed C verifier`,
# then K lines of N space-separated part indices.


def dump_family(family: PartitionFamily) -> str:
    header = (
        f"{family.N} {family.b} {family.K} {family.epsilon_tilde!r} "
        f"{family.n_max} {family.seed} {family.c_const} {family.certificate}"
    )
    rows = [" ".join(map(str, row)) for row in family.partitions]
    return "\n".join([header] + rows) + "\n"


def save_family(family: PartitionFamily, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_family(family))


def parse_family(text: str) -> PartitionFamily:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or len(lines[0]) != 8:
        raise ValueError("a family file starts with a header of 8 fields")
    N, b, K, epsilon_tilde, n_max, seed, c_const, certificate = lines[0]
    if len(lines) != 1 + int(K):
        raise ValueError(f"expected {K} partition rows, found {len(lines) - 1}")
    return PartitionFamily(
        N=int(N),
        b=int(b),
        epsilon_tilde=float(epsilon_tilde),
        n_max=int(n_max),
        seed=int(seed),
        c_const=int(c_const),
        partitions=tuple(tuple(map(int, row)) for row in lines[1:]),
        certificate=certificate,
    )


def load_family(path) -> PartitionFamily:
    with open(path, "r", encoding="ascii") as fh:
        return parse_family(fh.read())


# ---------------------------------------------------------------------------
# balls into bins


@dataclass(frozen=True)
class SingletonEstimate:
    n: int
    b: int
    trials: int
    seed: int
    p_hat: float
    analytic_lower_bound: float


def singleton_lower_bound(n: int, b: int) -> float:
    return 1.0 - (4.0 * n / b) ** (n / 2.0)


def balls_in_bins_singleton_prob(
    n: int, b: int, trials: int = 10**5, seed: int = 0
) -> SingletonEstimate:
    """Monte Carlo estimate of Pr[some bin holds exactly one of n balls]."""
    if n < 1:
        raise ValueError("need at least one ball")
    if 2 * n > b:
        raise ValueError("the analytic bound needs n <= b/2")
    if trials < 10**4:
        raise ValueError("use at least 10^4 trials")
    stream_seed = splitmix64_at(seed, 0)
    rows = max(1, _BATCH_IDS // n)
    hits = 0
    for first in range(0, trials, rows):
        count = min(rows, trials - first)
        values = _splitmix64_block(stream_seed, first * n, count * n)
        bins = (values % np.uint64(b)).reshape(count, n)
        hits += int(np.count_nonzero(_rows_have_singleton(bins)))
    return SingletonEstimate(
        n=n,
        b=b,
        trials=trials,
        seed=seed,
        p_hat=hits / trials,
        analytic_lower_bound=singleton_lower_bound(n, b),
    )
