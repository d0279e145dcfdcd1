"""Experiment harnesses regenerating every table and figure of the paper.

* Tables 1-4: :mod:`repro.experiments.running_examples`
* Figures 4-6: :mod:`repro.experiments.comparative`
* Figure 7: :mod:`repro.experiments.priorities`
* Figure 8: :mod:`repro.experiments.savings`
* Table 7: :mod:`repro.experiments.scalability`
* CLI: ``repro-experiments <table1|...|fig8|all>``
"""

from .campaigns import (
    CAMPAIGN_FAULTS,
    CampaignResult,
    CampaignRun,
    DEFAULT_CAMPAIGN_GOVERNORS,
    SoakResult,
    SoakRun,
    build_campaign_schedule,
    build_soak_schedule,
    merged_windows,
    run_fault_campaign,
    run_soak,
)
from .comparative import ComparativeResult, figure4, figure5, figure6, run_comparative
from .modelerror import (
    DEFAULT_DRIFT_RATES,
    DEFAULT_ERROR_MAGNITUDES,
    ModelErrorResult,
    ModelErrorRun,
    build_model_error_schedule,
    run_model_error_campaign,
)
from .harness import (
    DEFAULT_DURATION_S,
    DEFAULT_WARMUP_S,
    GOVERNOR_NAMES,
    RunResult,
    capped_tdp_w,
    make_governor,
    run_system,
    run_workload,
)
from .overload import (
    OVERLOAD_MULTIPLIER,
    OVERLOAD_TDP_W,
    OverloadResult,
    OverloadRun,
    OverloadSoakResult,
    OverloadSoakRun,
    build_overload_arrivals,
    run_overload,
    run_overload_soak,
)
from .priorities import PriorityResult, figure7, run_priority_experiment
from .reporting import Report, write_report
from .running_examples import SingleCoreScenario, table1, table2, table3, table4
from .savings import SavingsResult, figure8, run_savings_experiment
from .sweeps import SweepPoint, SweepResult, sweep_parameter
from .validation import ClaimResult, ValidationReport, validate_reproduction
from .scalability import (
    TABLE7_CONFIGS,
    ConstrainedCoreEmulator,
    ScalabilityPoint,
    measure_overhead,
    table7,
)

__all__ = [
    "CAMPAIGN_FAULTS",
    "CampaignResult",
    "CampaignRun",
    "DEFAULT_CAMPAIGN_GOVERNORS",
    "SoakResult",
    "SoakRun",
    "build_campaign_schedule",
    "build_soak_schedule",
    "merged_windows",
    "ComparativeResult",
    "DEFAULT_DRIFT_RATES",
    "DEFAULT_ERROR_MAGNITUDES",
    "ModelErrorResult",
    "ModelErrorRun",
    "build_model_error_schedule",
    "run_model_error_campaign",
    "run_fault_campaign",
    "run_soak",
    "ConstrainedCoreEmulator",
    "OVERLOAD_MULTIPLIER",
    "OVERLOAD_TDP_W",
    "OverloadResult",
    "OverloadRun",
    "OverloadSoakResult",
    "OverloadSoakRun",
    "build_overload_arrivals",
    "run_overload",
    "run_overload_soak",
    "DEFAULT_DURATION_S",
    "DEFAULT_WARMUP_S",
    "GOVERNOR_NAMES",
    "PriorityResult",
    "Report",
    "RunResult",
    "SavingsResult",
    "ScalabilityPoint",
    "SingleCoreScenario",
    "SweepPoint",
    "SweepResult",
    "ClaimResult",
    "ValidationReport",
    "TABLE7_CONFIGS",
    "capped_tdp_w",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "make_governor",
    "measure_overhead",
    "run_comparative",
    "run_priority_experiment",
    "run_savings_experiment",
    "run_system",
    "run_workload",
    "sweep_parameter",
    "table1",
    "table2",
    "table3",
    "table4",
    "table7",
    "validate_reproduction",
    "write_report",
]
