"""The ECOSCALE runtime system (Fig. 5).

Per Section 4.2:

- one scheduler per Worker with local work queues
  (:mod:`repro.core.runtime.scheduler`, :mod:`repro.core.runtime.lazy`),
- a work-and-data distribution algorithm in the Execution Engine
  (:mod:`repro.core.runtime.distribution`,
  :mod:`repro.core.runtime.engine`),
- an Execution History store consulted by a periodic runtime daemon that
  "decides at runtime what functions should be loaded on the
  reconfiguration block" (:mod:`repro.core.runtime.history`,
  :mod:`repro.core.runtime.daemon`),
- input-dependent execution-time/energy models (ridge regression, PCA)
  used to "select the best device to execute a function"
  (:mod:`repro.core.runtime.models`).
"""

from repro.core.runtime.checkpoint import (
    SNAPSHOT_FORMAT_VERSION,
    CheckpointManager,
    CheckpointPolicy,
    JobProgress,
    Snapshot,
    SnapshotStore,
    daly_interval_ns,
    restore_rngs,
    young_interval_ns,
)
from repro.core.runtime.daemon import DaemonStats, ReconfigurationDaemon
from repro.core.runtime.distribution import DistributionPolicy, WorkDistributor
from repro.core.runtime.engine import ExecutionEngine, RunReport
from repro.core.runtime.faults import (
    FaultTolerancePolicy,
    TaskSupervisor,
    WorkerFailureRecord,
)
from repro.core.runtime.history import ExecutionHistory, ExecutionRecord
from repro.core.runtime.jobs import (
    JobHandle,
    JobManager,
    JobRecord,
    JobRegistry,
    JobState,
)
from repro.core.runtime.lazy import LazyStatusTracker, LocalWorkQueue
from repro.core.runtime.models import (
    DeviceSelector,
    LinearModel,
    PcaRegressor,
    kernel_features,
)
from repro.core.runtime.policy import (
    POLICIES,
    EnergyAwarePolicy,
    GreedyHardwarePolicy,
    LocalityPolicy,
    PolicyConfig,
    SchedulingPolicy,
    make_policy,
)
from repro.core.runtime.report import JobOutcome, MachineReport
from repro.core.runtime.scheduler import WorkItem, WorkerScheduler

__all__ = [
    "CheckpointManager",
    "CheckpointPolicy",
    "DaemonStats",
    "DeviceSelector",
    "DistributionPolicy",
    "ExecutionEngine",
    "ExecutionHistory",
    "ExecutionRecord",
    "FaultTolerancePolicy",
    "TaskSupervisor",
    "WorkerFailureRecord",
    "LazyStatusTracker",
    "LinearModel",
    "LocalWorkQueue",
    "PcaRegressor",
    "ReconfigurationDaemon",
    "RunReport",
    "WorkDistributor",
    "WorkItem",
    "WorkerScheduler",
    "kernel_features",
    # policy layer
    "POLICIES",
    "EnergyAwarePolicy",
    "GreedyHardwarePolicy",
    "LocalityPolicy",
    "PolicyConfig",
    "SchedulingPolicy",
    "make_policy",
    # session/job layer
    "JobHandle",
    "JobManager",
    "JobOutcome",
    "JobRecord",
    "JobRegistry",
    "JobState",
    "MachineReport",
    # checkpoint/restart
    "JobProgress",
    "SNAPSHOT_FORMAT_VERSION",
    "Snapshot",
    "SnapshotStore",
    "daly_interval_ns",
    "restore_rngs",
    "young_interval_ns",
]
