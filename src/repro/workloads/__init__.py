"""Synthetic workload generators for experiments and examples."""

from repro.workloads.generator import (
    PaymentWorkload,
    CrossNetWorkload,
    WorkloadStats,
    sender_fund_spec,
)

__all__ = [
    "PaymentWorkload",
    "CrossNetWorkload",
    "WorkloadStats",
    "sender_fund_spec",
]
