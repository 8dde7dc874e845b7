"""Machine-wide fault injection (chaos testing) for the simulated machine.

ECOSCALE argues resilience must be a first-class property of an exascale
machine ("to provide resilience, the Workers employ reconfigurable
accelerators", Section 2).  This package is the adversary that claim is
tested against: a :class:`ChaosController` injects crash-stop and
transient Worker failures, link degradation/outages and MPI message
loss from a seeded deterministic plan, and
:func:`run_chaos_experiment` wraps a baseline-vs-faulted pair of runs
into a :class:`ChaosReport` with a result-integrity verdict.

Correlated failures ride on the same controller: a
:class:`~repro.chaos.domains.DomainTree` models the enclosure hierarchy
(node -> blade -> rack -> PSU) so one seeded event takes down a whole
subtree at once, and :mod:`repro.chaos.checkpoint_experiment` closes the
loop -- kill a failure domain mid-run, restore from the latest snapshot
(:mod:`repro.core.runtime.checkpoint`) and verify only lost work was
replayed, plus the MTBF x checkpoint-interval sweep that validates
Daly's optimum cadence.
"""

from repro.chaos.checkpoint_experiment import (
    CheckpointRestoreReport,
    CheckpointSweepReport,
    JobRestoreVerdict,
    restore_from_snapshot,
    run_checkpoint_interval_sweep,
    run_checkpoint_restore_experiment,
    workload_spec,
)
from repro.chaos.controller import (
    ChaosConfig,
    ChaosController,
    PlannedFault,
)
from repro.chaos.domains import (
    TIERS,
    DomainChaosConfig,
    DomainTree,
    FailureDomain,
    build_domain_tree,
)
from repro.chaos.experiment import (
    CHAOS_PRESETS,
    ChaosPreset,
    ChaosReport,
    JobChaosVerdict,
    MultiJobChaosReport,
    chaos_preset,
    run_chaos_experiment,
    run_multi_job_chaos_experiment,
)

__all__ = [
    "CHAOS_PRESETS",
    "ChaosConfig",
    "ChaosController",
    "ChaosPreset",
    "ChaosReport",
    "CheckpointRestoreReport",
    "CheckpointSweepReport",
    "DomainChaosConfig",
    "DomainTree",
    "FailureDomain",
    "JobChaosVerdict",
    "JobRestoreVerdict",
    "MultiJobChaosReport",
    "PlannedFault",
    "TIERS",
    "build_domain_tree",
    "chaos_preset",
    "restore_from_snapshot",
    "run_chaos_experiment",
    "run_checkpoint_interval_sweep",
    "run_checkpoint_restore_experiment",
    "run_multi_job_chaos_experiment",
    "workload_spec",
]
