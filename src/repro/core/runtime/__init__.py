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

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "checkpoint": (
        "SNAPSHOT_FORMAT_VERSION CheckpointManager CheckpointPolicy JobProgress "
        "Snapshot SnapshotStore daly_interval_ns restore_rngs young_interval_ns"
    ),
    "daemon": "DaemonStats ReconfigurationDaemon",
    "distribution": "WorkDistributor",
    "engine": "ExecutionEngine",
    "faults": "FaultTolerancePolicy TaskSupervisor WorkerFailureRecord",
    "history": "ExecutionHistory ExecutionRecord",
    "jobs": "JobHandle JobManager JobRecord JobRegistry JobState",
    "lazy": "LazyStatusTracker LocalWorkQueue",
    "models": "DeviceSelector LinearModel PcaRegressor kernel_features",
    "policy": (
        "POLICIES DistributionPolicy EnergyAwarePolicy GreedyHardwarePolicy "
        "LocalityPolicy PolicyConfig SchedulingPolicy make_policy"
    ),
    "report": "JobOutcome MachineReport RunReport",
    "scheduler": "WorkItem WorkerScheduler",
})
