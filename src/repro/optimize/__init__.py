"""Automatic optimization scenarios enabled by the framework (paper §V)."""

from .selfopt import ControllerStats, SelfOptimizingController
from .multistream import (
    death_time_workload,
    CorrelationStreamAssigner,
    FlashConfig,
    FlashStats,
    MultiStreamSsd,
    SingleStreamAssigner,
    StreamAssigner,
    WearReport,
    run_waf_experiment,
)
from .openchannel import (
    CorrelationPlacement,
    OcssdConfig,
    ParallelIoStats,
    Placement,
    StripingPlacement,
    run_parallel_read_experiment,
    service_transaction,
)
from .scheduler import (
    CorrelationScheduler,
    FifoScheduler,
    SchedulerStats,
    run_dispatch_experiment,
)
from .energy import (
    CorrelationEnergyPlacement,
    DiskArrayEnergyModel,
    EnergyStats,
    PowerModel,
    StripingEnergyPlacement,
    run_energy_experiment,
)
from .zns import ZnsConfig, ZnsDevice, ZnsStats, run_zns_experiment

__all__ = [
    "ControllerStats",
    "SelfOptimizingController",
    "death_time_workload",
    "CorrelationEnergyPlacement",
    "CorrelationPlacement",
    "CorrelationScheduler",
    "DiskArrayEnergyModel",
    "EnergyStats",
    "FifoScheduler",
    "PowerModel",
    "SchedulerStats",
    "StripingEnergyPlacement",
    "run_dispatch_experiment",
    "run_energy_experiment",
    "CorrelationStreamAssigner",
    "FlashConfig",
    "FlashStats",
    "MultiStreamSsd",
    "OcssdConfig",
    "ParallelIoStats",
    "Placement",
    "SingleStreamAssigner",
    "StreamAssigner",
    "WearReport",
    "StripingPlacement",
    "ZnsConfig",
    "ZnsDevice",
    "ZnsStats",
    "run_zns_experiment",
    "run_parallel_read_experiment",
    "run_waf_experiment",
    "service_transaction",
]
