"""Parallel execution substrate (serial / process-pool map, fault-tolerant
wrapper with retries, timeouts, and checkpoint/resume)."""

from repro.parallel.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    default_executor,
)
from repro.parallel.resilient import (
    CheckpointJournal,
    FaultInjector,
    ResilientExecutor,
    RetryPolicy,
    task_fingerprint,
)

__all__ = [
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "default_executor",
    "CheckpointJournal",
    "FaultInjector",
    "ResilientExecutor",
    "RetryPolicy",
    "task_fingerprint",
]
