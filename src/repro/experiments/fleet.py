"""Fleet campaigns: many chips, one grid budget, injected process faults.

This is the experiment-facing wrapper around :mod:`repro.fleet`: it
builds a fleet of heterogeneous chips (workloads and regions cycled
deterministically from the seed), runs the supervised grid-budget market
for a number of epochs -- optionally under a schedule of worker
kills/stalls/message loss -- and renders the deterministic campaign
report.  ``resume_fleet_campaign`` continues an interrupted campaign
from its fleet manifest; a fault-free campaign resumed this way emits a
byte-identical report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..fleet import (
    ChipSpec,
    FleetBudgetConfig,
    FleetConfig,
    FleetFaultSchedule,
    FleetSupervisor,
    RetryPolicy,
    parse_fleet_fault,
)
from .reporting import Report

#: Relative electricity price per region (see PAPERS.md: performance-
#: based pricing in geo-distributed clouds).  Cheap regions clear more
#: watts per unit of demand under scarcity.
DEFAULT_REGION_PRICES: Dict[str, float] = {
    "ap-south": 0.9,
    "eu-west": 1.15,
    "us-east": 1.0,
}

#: Workload sets cycled across the fleet's chips.
DEFAULT_FLEET_WORKLOADS: Tuple[str, ...] = ("m1", "m2", "l1", "l2")

#: Default grid budget per chip; deliberately scarcer than the 8 W chip
#: TDP so the auction has something to arbitrate.
DEFAULT_BUDGET_PER_CHIP_W = 3.0

#: Where fleet campaign state (checkpoints, manifest) lives by default.
DEFAULT_FLEET_DIR = "results/fleet"


def build_fleet_config(
    chips: int = 8,
    epochs: int = 6,
    epoch_s: float = 0.5,
    grid_budget_w: Optional[float] = None,
    seed: int = 1,
    governor: str = "PPM",
    workloads: Sequence[str] = DEFAULT_FLEET_WORKLOADS,
    regions: Optional[Sequence[str]] = None,
    retry: Optional[RetryPolicy] = None,
    hysteresis_epochs: int = 1,
) -> FleetConfig:
    """A deterministic fleet: chip ids, seeds, workloads, regions.

    Chip ``i`` is ``chip0i`` with seed ``seed + i``, its workload and
    region cycled from the given sequences, so the same arguments always
    name the identical fleet (and hence the identical fingerprint).
    """
    if chips < 1:
        raise ValueError("a fleet needs at least one chip")
    region_names = tuple(regions or sorted(DEFAULT_REGION_PRICES))
    specs = tuple(
        ChipSpec(
            chip_id=f"chip{i:02d}",
            workload=workloads[i % len(workloads)],
            governor=governor,
            seed=seed + i,
            region=region_names[i % len(region_names)],
        )
        for i in range(chips)
    )
    budget = FleetBudgetConfig(
        grid_budget_w=(
            grid_budget_w
            if grid_budget_w is not None
            else chips * DEFAULT_BUDGET_PER_CHIP_W
        ),
        region_prices=dict(DEFAULT_REGION_PRICES),
        hysteresis_epochs=hysteresis_epochs,
    )
    kwargs: Dict[str, Any] = {}
    if retry is not None:
        kwargs["retry"] = retry
    return FleetConfig(
        chips=specs, epochs=epochs, epoch_s=epoch_s, budget=budget, **kwargs
    )


def build_fault_schedule(specs: Iterable[str]) -> FleetFaultSchedule:
    """Parse CLI-style fault specs into a schedule."""
    return FleetFaultSchedule(parse_fleet_fault(spec) for spec in specs)


@dataclass
class FleetCampaignResult(Report):
    """A finished fleet campaign: the supervisor's deterministic report.

    Rendered per chip rather than per run, so it keeps its own
    :meth:`as_table` and :meth:`to_json`.
    """

    report: Dict[str, Any]
    stem = "fleet"

    @property
    def epochs_completed(self) -> int:
        return int(self.report["epochs_completed"])

    @property
    def audit_violations(self) -> List[str]:
        return list(self.report["audit"]["violations"])

    @property
    def total_restarts(self) -> int:
        return int(self.report["total_restarts"])

    def all_chips_complete(self) -> bool:
        epochs = int(self.report["config"]["epochs"])
        return all(
            chip["completed_epochs"] == epochs
            for chip in self.report["chips"].values()
        )

    def as_table(self) -> str:
        rows = [
            f"{'chip':8s} {'region':10s} {'workload':8s} {'epochs':>6s} "
            f"{'restarts':>8s} {'rung':>4s} {'grant W':>8s} {'power W':>8s} "
            f"{'miss':>6s}"
        ]
        config = self.report["config"]
        specs = {spec["chip_id"]: spec for spec in config["chips"]}
        last_row = self.report["rows"][-1] if self.report["rows"] else None
        for chip_id in sorted(self.report["chips"]):
            chip = self.report["chips"][chip_id]
            spec = specs[chip_id]
            last = chip.get("last_result") or {}
            rung = (
                last_row["rungs"].get(chip_id) if last_row is not None else None
            )
            grant = (
                last_row["grants"].get(chip_id, 0.0)
                if last_row is not None
                else 0.0
            )
            rows.append(
                f"{chip_id:8s} {spec['region']:10s} {spec['workload']:8s} "
                f"{chip['completed_epochs']:6d} {chip['restarts']:8d} "
                f"{'-' if rung is None else rung:>4} {grant:8.2f} "
                f"{last.get('avg_power_w', 0.0):8.2f} "
                f"{last.get('miss_fraction', 0.0):6.2f}"
            )
        lines = [
            "fleet campaign "
            f"({len(specs)} chips, {config['epochs']} epochs of "
            f"{config['epoch_s']}s, grid budget "
            f"{config['budget']['grid_budget_w']:.1f} W)",
            "",
            "\n".join(rows),
            "",
            f"epochs completed : {self.epochs_completed}/{config['epochs']}",
            f"faults injected  : {self.report['faults_injected'] or 'none'}",
            f"failures detected: {len(self.report['failures'])}",
            f"worker restarts  : {self.total_restarts}",
            "budget audit     : "
            + (
                "clean"
                if not self.audit_violations
                else f"{len(self.audit_violations)} violation(s)"
            ),
        ]
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(self.report, sort_keys=True, indent=2)


def run_fleet_campaign(
    chips: int = 8,
    epochs: int = 6,
    epoch_s: float = 0.5,
    grid_budget_w: Optional[float] = None,
    seed: int = 1,
    governor: str = "PPM",
    fleet_dir: str = DEFAULT_FLEET_DIR,
    faults: Iterable[str] = (),
    retry: Optional[RetryPolicy] = None,
    strict_audit: bool = False,
    until_epoch: Optional[int] = None,
) -> FleetCampaignResult:
    """Run one fleet campaign from scratch; see :func:`build_fleet_config`."""
    config = build_fleet_config(
        chips=chips,
        epochs=epochs,
        epoch_s=epoch_s,
        grid_budget_w=grid_budget_w,
        seed=seed,
        governor=governor,
        retry=retry,
    )
    supervisor = FleetSupervisor(
        config,
        fleet_dir,
        schedule=build_fault_schedule(faults),
        strict_audit=strict_audit,
    )
    return FleetCampaignResult(supervisor.run(until_epoch=until_epoch))


def resume_fleet_campaign(
    fleet_dir: str = DEFAULT_FLEET_DIR, strict_audit: bool = False
) -> FleetCampaignResult:
    """Continue an interrupted fleet campaign from its manifest."""
    supervisor = FleetSupervisor.resume(fleet_dir, strict_audit=strict_audit)
    return FleetCampaignResult(supervisor.run())
