"""The batched LBT sweep against the scalar estimator, and its decisions.

Above ``VEC_MIN_TASKS`` market tasks the LBT evaluates a sweep as arrays
(:mod:`repro.core.vecestimate`).  Each test runs the four moving shapes
of ``tests/sim/test_move_patch.py`` under PPM at 4 W:

* every candidate's batched verdict is held to
  :meth:`SteadyStateEstimator.evaluate_move` followed by
  :func:`perf_improves` / :func:`perf_not_worse`, on the same frozen
  market: both flags and both mover ratios exactly, spends within the
  documented last-ulp fold freedom;
* the verdicts themselves are pinned bit for bit: spends pick the
  winner, so the fold freedom is no licence to change them;
* each shape's decision sequence (tick, task, source, target, mode) and
  candidate count are pinned;
* the array selection keeps the candidate loop's tie rule;
* a batched decision carries no estimates, and one that a failed
  migration holds for retry carries the estimates of its proposal.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from repro.core import MarketConfig, OverloadManager, PPMConfig, PPMGovernor
from repro.core import vecestimate as V
from repro.core.estimation import perf_improves, perf_not_worse
from repro.core.lbt import LBTModule, _first_lexmax
from repro.experiments.overload import build_overload_arrivals
from repro.faults import FaultInjector, FaultKind, single_fault
from repro.hw import tc2_chip
from repro.sim import SimConfig, Simulation
from repro.tasks import ArrivalStream, random_tasks

TICKS = 600  # 6 s

#: (tasks, task seed, fault window, arrivals), as in test_move_patch.py.
SHAPES = {
    "128": (128, 5, None, False),
    "96-hotplug": (96, 2, (FaultKind.HOTPLUG, 2.0, 1.0, "big"), False),
    "96-migration-fail": (96, 4, (FaultKind.MIGRATION_FAIL, 1.0, 2.0, None), False),
    "96-arrivals": (96, 2, None, True),
}

#: Per shape: (candidates evaluated, decisions, sha256 prefix of the
#: decision sequence), captured with the per-candidate evaluator that
#: the array sweep replaced.
PINNED = {
    "128": (1242, 30, "523811f47e1455e8"),
    "96-hotplug": (978, 23, "5e72777300d6d6ee"),
    "96-migration-fail": (1166, 21, "43859e48263528e7"),
    "96-arrivals": (705, 30, "2c5073219be045a0"),
}


#: Per shape: sha256 prefix of every sweep's verdicts (flags, then
#: ratios and spends as ``float.hex``), captured with the same evaluator.
VERDICT_DIGESTS = {
    "128": "0e72736d23510cb6",
    "96-hotplug": "8acafe0fa3443c30",
    "96-migration-fail": "c76e5a916d8ea3e3",
    "96-arrivals": "8c44da02d020c70a",
}


def _verdict_lines(perf_improves, perf_not_worse, *floats):
    """One line per candidate, bit for bit."""
    for flags in zip(perf_improves, perf_not_worse, *floats):
        yield ",".join(
            [str(int(flag)) for flag in flags[:2]]
            + [float(value).hex() for value in flags[2:]]
        )


def _build(shape, governor=None):
    n, seed, fault, arrivals = SHAPES[shape]
    chip = tc2_chip()
    sim = Simulation(
        chip,
        random_tasks(n, seed=seed),
        governor or PPMGovernor(PPMConfig(market=MarketConfig(wtdp=4.0))),
        config=SimConfig(seed=seed, metrics_warmup_s=1.0, audit=True),
    )
    if fault is not None:
        kind, start, duration, target = fault
        FaultInjector(sim, single_fault(kind, start, duration, target=target)).attach()
    if arrivals:
        stream = ArrivalStream(build_overload_arrivals(chip, 12.0, 1.0), seed=seed)
        OverloadManager(stream, None).attach(sim)
    return sim


def _run(sim, each_tick=None):
    """Step ``TICKS`` ticks; returns the decisions the LBT proposed."""
    sim.step()  # prepare() builds the LBT module
    lbt = sim.governor.lbt
    decisions = []
    tick = 0

    def recording(name):
        propose = getattr(lbt, name)

        def call(*args, **kwargs):
            decision = propose(*args, **kwargs)
            if decision is not None:
                decisions.append([
                    tick, decision.task_id, decision.source_core_id,
                    decision.target_core_id, decision.mode,
                ])
            return decision

        setattr(lbt, name, call)

    recording("propose_migration")
    recording("propose_load_balance")
    for tick in range(1, TICKS):
        sim.step()
        if each_tick is not None:
            each_tick(sim)
    return decisions


@pytest.mark.parametrize("shape", list(SHAPES))
def test_batched_verdicts_match_the_scalar_estimator(shape, monkeypatch):
    evaluate_blocks = V.BatchMappingEvaluator.evaluate_blocks
    compared = []

    def checked(self, blocks):
        verdicts = evaluate_blocks(self, blocks)
        market = self._market
        priorities = {tid: agent.priority for tid, agent in market.tasks.items()}
        candidates = [
            (task_id, target)
            for block in blocks
            for task_id in block.movers
            for target in block.target_cores
        ]
        assert len(verdicts.spend_candidate) == len(candidates)
        for i, (task_id, target) in enumerate(candidates):
            current, candidate = self._est.evaluate_move(task_id, target)
            where = f"{task_id} -> {target}"
            assert verdicts.perf_improves[i] == perf_improves(
                current.ratios, candidate.ratios, priorities
            ), where
            assert verdicts.perf_not_worse[i] == perf_not_worse(
                current.ratios, candidate.ratios, priorities
            ), where
            assert verdicts.mover_priority[i] == priorities[task_id], where
            assert verdicts.mover_ratio_current[i] == current.ratios.get(task_id, 0.0), where
            assert verdicts.mover_ratio_candidate[i] == candidate.ratios.get(task_id, 0.0), where
            assert math.isclose(verdicts.spend_current[i], current.spend, rel_tol=1e-12), where
            assert math.isclose(verdicts.spend_candidate[i], candidate.spend, rel_tol=1e-12), where
        compared.append(len(candidates))
        return verdicts

    monkeypatch.setattr(V.BatchMappingEvaluator, "evaluate_blocks", checked)
    sim = _build(shape)
    _run(sim)
    assert sum(compared) == PINNED[shape][0]


@pytest.mark.parametrize("shape", list(SHAPES))
def test_verdicts_are_pinned(shape, monkeypatch):
    evaluate_blocks = V.BatchMappingEvaluator.evaluate_blocks
    digest = hashlib.sha256()

    def hashed(self, blocks):
        verdicts = evaluate_blocks(self, blocks)
        for line in _verdict_lines(
            verdicts.perf_improves, verdicts.perf_not_worse,
            verdicts.mover_ratio_current, verdicts.mover_ratio_candidate,
            verdicts.spend_current, verdicts.spend_candidate,
        ):
            digest.update(line.encode() + b"\n")
        return verdicts

    monkeypatch.setattr(V.BatchMappingEvaluator, "evaluate_blocks", hashed)
    _run(_build(shape))
    assert digest.hexdigest()[:16] == VERDICT_DIGESTS[shape]


@pytest.mark.parametrize("shape", list(SHAPES))
def test_decisions_are_pinned(shape):
    sim = _build(shape)
    decisions = _run(sim)
    digest = hashlib.sha256(json.dumps(decisions).encode()).hexdigest()[:16]
    assert (sim.governor.lbt.evaluations, len(decisions), digest) == PINNED[shape]


def test_selection_keeps_the_first_of_tied_candidates():
    """``_first_lexmax`` against the candidate loop's strict-greater scan."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        ok = rng.random(n) < 0.7
        keys = [rng.integers(0, 3, n).astype(float) for _ in range(int(rng.integers(1, 4)))]
        best = None
        for i in range(n):
            key = tuple(k[i] for k in keys)
            if ok[i] and (best is None or key > best[0]):
                best = (key, i)
        assert _first_lexmax(ok, *keys) == (None if best is None else best[1])


class RecordingLBT(LBTModule):
    """Records, inside each proposal's batch, the winner's estimates."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.estimates = {}  # id(decision) -> (decision, JSON with estimates)

    def _propose_inner(self, cross_cluster, exclude_tasks):
        decision = super()._propose_inner(cross_cluster, exclude_tasks)
        if decision is not None:
            assert decision.current is None and decision.candidate is None
            current, candidate = self._estimator.evaluate_move(
                decision.task_id, decision.target_core_id
            )
            record = PPMGovernor._move_decision_to_json(
                dataclasses.replace(decision, current=current, candidate=candidate)
            )
            self.estimates[id(decision)] = (decision, record)
        return decision


class RecordingPPM(PPMGovernor):
    def prepare(self, sim):
        super().prepare(sim)
        self.lbt = RecordingLBT(self.market, self.estimator)


def test_a_held_move_carries_its_proposal_estimates():
    governor = RecordingPPM(PPMConfig(market=MarketConfig(wtdp=4.0)))
    sim = _build("96-migration-fail", governor)
    held = []

    def check_pending(sim):
        pending = sim.governor._pending_moves
        for decision in pending.values():
            proposed, record = sim.governor.lbt.estimates[id(decision)]
            assert proposed is decision
            assert PPMGovernor._move_decision_to_json(decision) == record
        if pending:
            held.append(len(pending))

    decisions = _run(sim, check_pending)
    digest = hashlib.sha256(json.dumps(decisions).encode()).hexdigest()[:16]
    assert (len(decisions), digest) == PINNED["96-migration-fail"][1:]
    assert len(held) == 284  # ticks with a move held for retry
