"""Fault-gated particle filtering with a cell-transmission freeway testbed.

A bootstrap particle filter whose measurement update is guarded by
per-measurement statistical gates: a Monte Carlo likelihood-ratio test for
when a fault model exists, and a Monte Carlo significance test for when
only the nominal sensor model is known.  A macroscopic freeway simulator,
synthetic sensing with labeled fault injection, and an experiment harness
reproduce the accompanying fault-detection/estimation study at desk scale.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    ContractViolation,
    DataError,
    GatedPfError,
    ModelConsistencyError,
    WeightCollapseError,
    WorkerError,
)
from .rng import RandomSource
from .particles import (
    ParticleEnsemble,
    effective_sample_size,
    posterior_mean,
    predict,
    resample_systematic,
    weight_update,
)
from .gates import GateKind, level_rule, likelihood_ratio_test, significance_test
from .ctm import (
    DemandProfile,
    DemandSchedule,
    FreewayNetwork,
    LinkParams,
    LinkPlan,
    Trajectory,
    equilibrium_state,
    link_plan,
    simulate,
    speed_map,
)
from .sensing import (
    CompiledLog,
    FaultConfig,
    GnssSpec,
    LoopDetectors,
    MeasurementLog,
    fault_log_density,
    inject_faults,
    measurement_rows,
    sample_gnss_speeds,
    sample_loop_detectors,
)
from .harness import (
    ExperimentConfig,
    FilterVariant,
    MetricsReport,
    RunMetrics,
    TrajectoryPair,
    compile_log,
    confusion_metrics,
    map_seeds,
    mape,
    run_experiment,
    run_traffic_filter,
    simulate_seed,
)
from .scenario import Scenario, default_scenario, default_scenario_dict, load_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
