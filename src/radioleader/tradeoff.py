"""Time-energy trade-off election driven by a partition family.

partition_tradeoff_election runs K iterations.  In iteration i a device
transmits once, in the slot of its part under partition i; with sender-side
feedback it hears its own message exactly when it was alone in that part,
and only those self-heard devices enter a compact knockout election on the
part-index space [1..b].  The iteration ends with an announcement slot that
every device listens to, so one good iteration finishes the whole run and
everyone goes permanently idle after it.  A verified family guarantees some
iteration isolates a device, hence election; time grows with K*b while
per-device energy stays near 2K + log b.

choose_params picks (b, family size K) for a known device count n and a
time budget knob k, mirroring the analysis the protocol comes from: when n
is small against N^(1/k) the id space dictates b = ceil(N^(1/k));
otherwise b is the smallest part count that keeps n below b^(1-epsilon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .channel import LISTEN, CdModel, transmit
from .partitions import PartitionFamily, generate_family
from .protocols_core import (
    HalvingTradeoffProgram,
    ceil_log2,
    halving_tradeoff_election,
    pairing_phase_len,
    pairing_tournament_phase,
)
from .runtime import (
    BoundFactory,
    DeviceProgram,
    ProtocolConfig,
    RunReport,
    execute,
    run_programs,  # noqa: F401  (kept importable here: perfbench wraps this copy)
)


class InvalidParams(ValueError):
    """Parameter combination outside the trade-off's domain."""


class NoLeader(RuntimeError):
    """No iteration isolated a device; possible only without a verified family."""

    def __init__(self, message: str, report: RunReport):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class TradeoffParams:
    b: int
    K: int
    epsilon_tilde: float
    case: int
    family: PartitionFamily


def _integer_kth_root_ceiling(N: int, k: int) -> int:
    """Smallest b with b^k >= N."""
    b = max(1, round(N ** (1.0 / k)))
    while b**k < N:
        b += 1
    while b > 1 and (b - 1) ** k >= N:
        b -= 1
    return b


def choose_params(
    N: int,
    n: int,
    k: int,
    epsilon: float,
    seed: int = 0,
    c_const: int = 8,
    family: Optional[PartitionFamily] = None,
    verify_mode: str = "auto",
    verify_trials: int = 10**5,
    max_retries: int = 8,
) -> TradeoffParams:
    """Pick the part count and family for a run with n devices on [1..N].

    Requires 0 < epsilon < 1 and k at least ceil(log log N); k is clamped
    to 2*ceil(log N) since beyond that no further trade exists."""
    if not (0.0 < epsilon < 1.0):
        raise InvalidParams("epsilon must lie strictly between 0 and 1")
    if not (1 <= n <= N):
        raise InvalidParams("need 1 <= n <= N")
    log_n_space = ceil_log2(N) if N >= 1 else 0
    loglog = ceil_log2(log_n_space) if log_n_space >= 1 else 0
    if k < max(1, loglog):
        raise InvalidParams(f"k={k} is below ceil(log log N)={max(1, loglog)}")
    k_eff = min(k, max(1, 2 * log_n_space))

    root = _integer_kth_root_ceiling(N, k_eff)  # ceil(N^(1/k))
    if n <= root ** (1.0 - epsilon) + 1e-9:
        case = 1
        b = root
    else:
        case = 2
        b = max(2, math.ceil(n ** (1.0 / (1.0 - epsilon)) - 1e-9))
        while b ** (1.0 - epsilon) < n - 1e-9:
            b += 1
        while b > 2 and (b - 1) ** (1.0 - epsilon) >= n - 1e-9:
            b -= 1
    b = max(2, b)

    if family is None:
        family = generate_family(
            N,
            b,
            epsilon,
            n_max=n,
            seed=seed,
            c_const=c_const,
            verify_mode=verify_mode,
            trials=verify_trials,
            max_retries=max_retries,
        )
    if family.N != N or family.b != b:
        raise InvalidParams("supplied family does not match the chosen (N, b)")
    return TradeoffParams(
        b=b, K=family.K, epsilon_tilde=epsilon, case=case, family=family
    )


class PartitionTradeoffProgram(DeviceProgram):
    """K rounds of (marking, compact knockout on part indices, announcement)."""

    def __init__(self, device_id, config, family: PartitionFamily):
        super().__init__(device_id, config)
        self.family = family

    @classmethod
    def schedule_length(cls, config, family: PartitionFamily) -> int:
        inner = pairing_phase_len(family.b, compact=True)
        return family.K * (family.b + inner + 1)

    def run(self):
        b = self.family.b
        inner_len = pairing_phase_len(b, compact=True)
        span = b + inner_len + 1
        done = False
        for i in range(self.family.K):
            if done:
                continue
            base = i * span
            my_part = self.family.partitions[i].part(self.device_id)
            fb = yield (base + my_part - 1, transmit(self.device_id))
            # alone in the part <=> the device hears its own message back
            marked = fb.kind == "received" and fb.payload == self.device_id
            winner = False
            if marked:
                winner = yield from pairing_tournament_phase(
                    my_part, b, base + b, compact=True
                )
            announce_slot = base + b + inner_len
            if winner:
                yield (announce_slot, transmit(self.device_id))
                self.won = True
                self.leader_id = self.device_id
                done = True
            else:
                fb = yield (announce_slot, LISTEN)
                if fb.kind == "received":
                    self.leader_id = fb.payload
                    done = True


def partition_tradeoff_election(
    devices,
    params: TradeoffParams,
    model: CdModel = CdModel.SENDER_CD,
    check_replay: bool = False,
) -> RunReport:
    """Run the partition trade-off; raises NoLeader when no iteration marks
    a device (cannot happen with a verified family and |V| <= n_max)."""
    if not model.sender_side:
        raise ValueError(
            "the partition trade-off needs sender-side feedback "
            "(strong_cd or sender_cd)"
        )
    ids = sorted(set(devices))
    family = params.family
    if len(ids) > family.n_max:
        raise ValueError(
            f"the family only covers subsets up to n_max={family.n_max}, got {len(ids)}"
        )
    config = ProtocolConfig(model=model, N=family.N, b=params.b)
    factory = BoundFactory(PartitionTradeoffProgram, family=family)
    report = execute(factory, ids, config, check_replay=check_replay)
    if not report.strict_success:
        raise NoLeader(
            "no partition isolated a device; the family is not good for this subset",
            report,
        )
    return report


def strong_cd_tradeoff_election(
    devices,
    N: int,
    n: int,
    k: int,
    epsilon: float,
    seed: int = 0,
) -> RunReport:
    """Dispatch between interval halving and the partition trade-off under
    strong_cd, picking whichever has the shorter schedule."""
    params = choose_params(N, n, k, epsilon, seed=seed)
    partition_len = PartitionTradeoffProgram.schedule_length(None, params.family)
    halving_len = HalvingTradeoffProgram.schedule_length(
        ProtocolConfig(model=CdModel.STRONG_CD, N=N, k=k)
    )
    if halving_len <= partition_len:
        return halving_tradeoff_election(devices, N, k, model=CdModel.STRONG_CD)
    return partition_tradeoff_election(devices, params, model=CdModel.STRONG_CD)
