"""Incremental checkpoint history: each tick is encoded once per run.

``CheckpointManager`` keeps the canonical JSON of every tick record it has
written and splices the joined history into each save.  Every file must
still hold exactly what a from-scratch ``snapshot_simulation`` returns at
that tick, in canonical form; a restore or a replaced sample list must
force a full re-encode; and files in the earlier layout (spaced
separators, ``null`` optional fields) must still load and resume
bit-identically.
"""

import dataclasses
import json
import os

import pytest

from repro.checkpoint import (
    CheckpointManager,
    canonical_json,
    checkpoint_filename,
    payload_checksum,
    read_checkpoint,
    restore_simulation,
    resume_from,
    simulation_fingerprint,
    snapshot_simulation,
    tick_records,
)
from repro.checkpoint.snapshot import tick_record
from repro.core import AdmissionConfig, AdmissionController, OverloadManager
from repro.core.powerest import EstimationConfig
from repro.experiments.campaigns import campaign_thermal_config
from repro.experiments.harness import make_governor
from repro.faults import FaultInjector, FaultKind, single_fault
from repro.hw import TC2_CAPPED_TDP_W, tc2_chip
from repro.sim import SimConfig, Simulation
from repro.sim.columnar import ColumnarSimulation
from repro.tasks import ArrivalConfig, ArrivalStream, build_workload, random_tasks

INTERVAL_S = 0.1


def full_stack_sim(seed=7):
    """h2 under PPM at 4 W: thermal, estimation with drift, audit, noise."""
    chip = tc2_chip()
    sim = Simulation(
        chip,
        build_workload("h2"),
        make_governor("PPM", power_cap_w=TC2_CAPPED_TDP_W),
        config=SimConfig(
            seed=seed,
            metrics_warmup_s=0.5,
            sensor_noise_std_w=0.05,
            audit=True,
            thermal=campaign_thermal_config(chip),
            estimation=EstimationConfig(),
        ),
    )
    FaultInjector(
        sim,
        single_fault(
            FaultKind.POWER_MODEL_DRIFT, 1.0, 0.5, target="big", magnitude=3.0
        ),
    ).attach()
    return sim


def columnar_sim(seed=7):
    return Simulation(
        tc2_chip(),
        random_tasks(40, seed=seed),
        make_governor("PPM", power_cap_w=8.0),
        config=SimConfig(seed=seed, metrics_warmup_s=0.5),
    )


def arrivals_sim(seed=11):
    sim = Simulation(
        tc2_chip(),
        build_workload("l1"),
        make_governor("PPM", power_cap_w=10.0),
        config=SimConfig(seed=seed, metrics_warmup_s=1.0, audit=True),
    )
    crowd = ArrivalConfig(
        process="flash-crowd",
        rate_hz=2.0,
        burst_rate_hz=12.0,
        burst_start_s=1.0,
        burst_duration_s=2.0,
        lifetime_s=(0.5, 1.5),
    )
    OverloadManager(
        ArrivalStream(crowd, seed), AdmissionController(AdmissionConfig())
    ).attach(sim)
    return sim


def noisy_sim(seed=1):
    """m1 with sensor noise, so two seeds record different telemetry."""
    return Simulation(
        tc2_chip(),
        build_workload("m1"),
        make_governor("PPM", power_cap_w=4.0),
        config=SimConfig(seed=seed, metrics_warmup_s=0.5, sensor_noise_std_w=0.05),
    )


def attach(sim, tmp_path, retention=None):
    return CheckpointManager(
        str(tmp_path), interval_s=INTERVAL_S, retention=retention
    ).attach(sim)


def assert_file_matches(path, sim):
    """The file holds, in canonical form, a from-scratch snapshot of ``sim``."""
    expected = snapshot_simulation(sim)
    envelope = read_checkpoint(path)
    assert envelope.tick_index == sim.tick_index
    assert envelope.payload == json.loads(json.dumps(expected))
    with open(path) as handle:
        text = handle.read()
    assert text.endswith('"payload": ' + canonical_json(expected) + "}")
    assert json.loads(text)["payload_sha256"] == payload_checksum(expected)


def run_checking_saves(sim, manager, ticks):
    """Step ``sim``, checking every save it makes; returns the save count."""
    checked = 0
    for _ in range(ticks):
        before = manager.saves
        sim.step()
        if manager.saves != before:
            assert_file_matches(manager.checkpoints()[-1], sim)
            checked += 1
    return checked


class TestEverySaveEqualsSnapshot:
    def test_object_loop_full_stack(self, tmp_path):
        sim = full_stack_sim()
        assert not isinstance(sim, ColumnarSimulation)
        manager = attach(sim, tmp_path)
        assert run_checking_saves(sim, manager, 200) == 20
        assert sim.estimation.supervisor.transitions  # the drift fault bit

    def test_columnar_population(self, tmp_path):
        sim = columnar_sim()
        assert isinstance(sim, ColumnarSimulation)
        manager = attach(sim, tmp_path)
        assert run_checking_saves(sim, manager, 60) == 6

    def test_arrivals_run(self, tmp_path):
        sim = arrivals_sim()
        manager = attach(sim, tmp_path)
        assert run_checking_saves(sim, manager, 300) == 30
        assert sim.arrivals.spawned_tasks  # tasks joined mid-run


class TestResetGuard:
    def test_restore_forces_full_reencode(self, tmp_path):
        sim = noisy_sim(seed=1)
        manager = attach(sim, tmp_path)
        run_checking_saves(sim, manager, 30)
        donor = noisy_sim(seed=2)
        donor.run(0.5)
        # Vacuity guard: the ticks the manager encoded differ from the
        # donor's, so reusing them would write the wrong history.
        assert tick_records(sim.metrics) != tick_records(donor.metrics)[:30]
        restore_simulation(sim, snapshot_simulation(donor))
        assert run_checking_saves(sim, manager, 10) == 1

    @pytest.mark.parametrize("in_place", [False, True])
    def test_replaced_samples_force_full_reencode(self, tmp_path, in_place):
        """Equal-length different samples, as a new list or in the old one."""
        sim = noisy_sim()
        manager = attach(sim, tmp_path)
        run_checking_saves(sim, manager, 30)
        replaced = [
            dataclasses.replace(s, chip_power_w=s.chip_power_w + 1.0)
            for s in sim.metrics.samples
        ]
        if in_place:
            sim.metrics.samples[:] = replaced
        else:
            sim.metrics.samples = replaced
        assert run_checking_saves(sim, manager, 10) == 1


class TestResumeThenSave:
    def test_resume_then_saves_with_pruning(self, tmp_path):
        first = full_stack_sim()
        attach(first, tmp_path, retention=2)
        first.run(0.5)
        latest = os.path.join(str(tmp_path), checkpoint_filename(50))
        sim, envelope = resume_from(latest, full_stack_sim)
        assert envelope.tick_index == 50
        manager = attach(sim, tmp_path, retention=2)
        assert run_checking_saves(sim, manager, 50) == 5
        assert [os.path.basename(p) for p in manager.checkpoints()] == [
            checkpoint_filename(90),
            checkpoint_filename(100),
        ]
        baseline = full_stack_sim()
        baseline.run(1.0)
        assert tick_records(sim.metrics) == tick_records(baseline.metrics)


class TestEarlierLayout:
    def test_spaced_file_with_null_fields_resumes_bit_identically(self, tmp_path):
        donor = noisy_sim()
        donor.run(0.5)
        payload = snapshot_simulation(donor)
        payload["metrics"]["samples"] = [
            dataclasses.asdict(s) for s in donor.metrics.samples
        ]
        envelope = {
            "magic": "repro-checkpoint",
            "schema_version": 1,
            "fingerprint": simulation_fingerprint(noisy_sim()),
            "tick_index": donor.tick_index,
            "sim_time_s": donor.now,
            "payload_sha256": payload_checksum(payload),
            "payload": payload,
        }
        path = os.path.join(str(tmp_path), "old", checkpoint_filename(50))
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as handle:
            handle.write(json.dumps(envelope))
        with open(path) as handle:
            assert '"cluster_temperature_c": null' in handle.read()

        sim, _ = resume_from(path, noisy_sim)
        assert sim.metrics.samples == donor.metrics.samples
        manager = attach(sim, tmp_path / "new")
        assert run_checking_saves(sim, manager, 50) == 5
        baseline = noisy_sim()
        baseline.run(1.0)
        assert tick_records(sim.metrics) == tick_records(baseline.metrics)


class TestTickRecord:
    def test_matches_asdict_without_null_optionals(self):
        optional = ("cluster_temperature_c", "estimated_chip_power_w")
        for sim in (full_stack_sim(), noisy_sim()):
            sim.run(0.3)
            for sample in sim.metrics.samples:
                expected = {
                    k: v
                    for k, v in dataclasses.asdict(sample).items()
                    if not (k in optional and v is None)
                }
                assert tick_record(sample) == expected
