"""Deterministic simulator and reference protocols for leader election on a
single-hop radio channel under four collision-detection feedback models."""

from .channel import (
    Action,
    CdModel,
    Feedback,
    resolve_slot,
)
from .dense import (
    census,
    choose_dense_b,
    dense_improved_election,
    dense_simple_election,
    exponential_search_election,
)
from .lowerbound import (
    BudgetExceeded,
    ViolationPair,
    canonical_sequence,
    matching_count,
    potential_active_slots,
    sequence_budget,
    uniqueness_check,
)
from .partitions import (
    PartitionFamily,
    RetriesExhausted,
    balls_in_bins_singleton_prob,
    family_size,
    generate_family,
    load_family,
    save_family,
    singleton_lower_bound,
    verify_family,
)
from .protocols_core import (
    binary_search_election,
    halving_tradeoff_election,
    pairing_election,
)
from .runtime import (
    DeviceProgram,
    EnergyLedger,
    ProtocolConfig,
    RunReport,
    Transcript,
    Verdict,
    execute,
    run_programs,
)
from .tradeoff import (
    InvalidParams,
    choose_params,
    partition_tradeoff_election,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "BudgetExceeded",
    "CdModel",
    "DeviceProgram",
    "EnergyLedger",
    "Feedback",
    "InvalidParams",
    "PartitionFamily",
    "ProtocolConfig",
    "RetriesExhausted",
    "RunReport",
    "Transcript",
    "Verdict",
    "ViolationPair",
    "balls_in_bins_singleton_prob",
    "binary_search_election",
    "canonical_sequence",
    "census",
    "choose_dense_b",
    "choose_params",
    "dense_improved_election",
    "dense_simple_election",
    "execute",
    "exponential_search_election",
    "family_size",
    "generate_family",
    "halving_tradeoff_election",
    "load_family",
    "matching_count",
    "pairing_election",
    "partition_tradeoff_election",
    "potential_active_slots",
    "resolve_slot",
    "run_programs",
    "save_family",
    "sequence_budget",
    "singleton_lower_bound",
    "uniqueness_check",
    "verify_family",
]
