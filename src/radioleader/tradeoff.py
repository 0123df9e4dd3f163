"""Time-energy trade-off election driven by a partition family.

partition_tradeoff_election runs K iterations.  In iteration i a device
transmits once, in the slot of its part under partition i; with sender-side
feedback it hears its own message exactly when it was alone in that part,
and only those self-heard devices enter a compact knockout election on the
part-index space [1..b].  The iteration ends with an announcement slot that
every device listens to, so one good iteration finishes the whole run and
everyone goes permanently idle after it.  A verified family guarantees some
iteration isolates a device, hence election; with a sampled or unverified
family a run may isolate nobody, and then it is an ordinary failed election
whose report has strict_success False.  Time grows with K*b while
per-device energy stays near 2K + log b.

choose_params picks the family (its part count b and size K) for a known
device count n and a time budget knob k, mirroring the analysis the
protocol comes from: b is the least part count with b^k >= N, which is
ceil(N^(1/k)), and n <= b^(1-epsilon).
"""

from __future__ import annotations

from typing import Optional

from .channel import CdModel, transmit
from .partitions import InvalidParams, PartitionFamily, generate_family
from .protocols_core import ceil_log2, pairing_tournament_phase
from .runtime import (
    DeviceProgram,
    ProtocolConfig,
    RunReport,
    run_programs,
)


def choose_params(
    N: int,
    n: int,
    k: int,
    epsilon: float,
    seed: int = 0,
    family: Optional[PartitionFamily] = None,
    verify_mode: str = "auto",
    verify_trials: int = 10**5,
) -> PartitionFamily:
    """Pick the part count and family for a run with n devices on [1..N].

    Requires 0 < epsilon < 1 and k at least ceil(log log N).  From k =
    ceil(log N) up, b = 2 already has b^k >= N, so a larger k changes no b."""
    if not (0.0 < epsilon < 1.0):
        raise InvalidParams("epsilon must lie strictly between 0 and 1")
    if not (1 <= n <= N):
        raise InvalidParams("need 1 <= n <= N")
    min_k = max(1, ceil_log2(max(1, ceil_log2(N))))
    if k < min_k:
        raise InvalidParams(f"k={k} is below ceil(log log N)={min_k}")

    # b is the least b >= 2 with b^k >= N and b^(1-epsilon) >= n: both tests
    # only grow with b, so one bisection finds it.  Labels are drawn mod b and
    # stored as int64, so b stops at 2^62 (top + 1 stands for any larger b)
    top = 1 << 62
    if n > top or top ** (1.0 - epsilon) < n - 1e-9:
        raise InvalidParams(f"epsilon={epsilon} needs more than 2^62 parts for n={n}")
    bits = N.bit_length()
    b, hi = 2, top + 1
    while b < hi:
        mid = (b + hi) // 2
        # 2^(m-1) <= mid < 2^m and 2^(bits-1) <= N < 2^bits settle mid^k >= N
        # unless m * k is near bits, so the power taken has under 2 * bits bits
        m = mid.bit_length()
        covers = (m - 1) * k >= bits or (m * k >= bits and mid**k >= N)
        if covers and mid ** (1.0 - epsilon) >= n - 1e-9:
            hi = mid
        else:
            b = mid + 1
    if b > top:
        raise InvalidParams(f"k={k} needs more than 2^62 parts for N of {bits} bits")

    if family is None:
        family = generate_family(
            N,
            b,
            epsilon,
            n_max=n,
            seed=seed,
            verify_mode=verify_mode,
            trials=verify_trials,
        )
    if family.N != N or family.b != b:
        raise InvalidParams("supplied family does not match the chosen (N, b)")
    return family


class PartitionTradeoffProgram(DeviceProgram):
    """K iterations of (marking, compact knockout on part indices,
    announcement) over the partition family `config.family`.  Each takes 2b
    rounds: b marking slots, b - 1 knockout slots (a compact knockout over b
    ids plays b - 1 matches) and the announcement."""

    models = (CdModel.STRONG_CD, CdModel.SENDER_CD)

    @classmethod
    def schedule_length(cls, config: ProtocolConfig) -> int:
        if config.family is None:
            raise ValueError("partition trade-off needs a partition family")
        return 2 * config.family.b * config.family.K

    def run(self):
        family = self.config.family
        b = family.b
        for i in range(family.K):
            base = i * 2 * b
            my_part = family.partitions[i][self.device_id - 1]
            fb = yield (base + my_part - 1, transmit(self.device_id))
            # alone in the part <=> the device hears its own message back
            marked = fb.kind == "received" and fb.payload == self.device_id
            winner = False
            if marked:
                winner = yield from pairing_tournament_phase(
                    my_part, b, base + b, compact=True
                )
            if (yield from self.announce(base + 2 * b - 1, winner)):
                return


def partition_tradeoff_election(
    devices,
    family: PartitionFamily,
    model: CdModel = CdModel.SENDER_CD,
) -> RunReport:
    """Run the partition trade-off.  A run in which no iteration isolates a
    device reports strict_success False; that cannot happen with a verified
    family and |V| <= n_max."""
    ids = set(devices)
    if len(ids) > family.n_max:
        raise ValueError(
            f"the family only covers subsets up to n_max={family.n_max}, got {len(ids)}"
        )
    config = ProtocolConfig(model=model, N=family.N, family=family)
    return run_programs(PartitionTradeoffProgram, ids, config)[0]

