"""Grouped vs dense LBT row evaluator: live differential check.

:meth:`BatchMappingEvaluator._eval_cluster_rows` collapses candidate
rows onto signature groups when ``rows x tasks`` is large; the dense
per-row evaluation (``_eval_cluster_rows_dense``) is its documented
oracle.  Rather than hand-crafting specs, this test forces the grouped
path during a real simulation (gate patched to zero) and compares every
call's grouped result against the dense oracle on the very same
evaluator state: ``max`` reductions and per-row flags must match
bit-for-bit, ``spend`` up to the documented last-ulp fold freedom.
"""

import math

from repro.core import vecestimate as V
from repro.experiments.harness import make_governor
from repro.hw import tc2_chip
from repro.sim import SimConfig, Simulation
from repro.tasks import random_tasks

_EXACT_KEYS = (
    "present",
    "maxprio_imp",
    "maxprio_wor",
    "maxabs",
    "mv_ok",
    "mv_ratio",
    "mv_bid",
)


def test_grouped_rows_match_dense_oracle(monkeypatch):
    # Force the grouped path regardless of population size...
    monkeypatch.setattr(V, "_GROUPED_MIN_ELEMS", 0)
    grouped_impl = V.BatchMappingEvaluator._eval_cluster_rows
    dense_impl = V.BatchMappingEvaluator._eval_cluster_rows_dense
    compared = []

    def differential(self, cluster_id, specs):
        grouped = grouped_impl(self, cluster_id, specs)
        dense = dense_impl(self, cluster_id, specs)
        compared.append((cluster_id, len(specs)))
        assert set(grouped) == set(dense)
        for key in _EXACT_KEYS:
            assert grouped[key] == dense[key], (
                f"{key} diverged for {cluster_id} ({len(specs)} rows)"
            )
        for g, d in zip(grouped["spend"], dense["spend"]):
            assert math.isclose(g, d, rel_tol=1e-12, abs_tol=1e-12)
        # ...but hand the dense result back, so the run's decisions are
        # the stock small-population behaviour.
        return dense

    monkeypatch.setattr(
        V.BatchMappingEvaluator, "_eval_cluster_rows", differential
    )

    # Enough tasks that the batch evaluator engages (>= VEC_MIN_TASKS)
    # and the LBT proposes candidate rows on most invocations.
    sim = Simulation(
        tc2_chip(),
        random_tasks(40, seed=23),
        make_governor("PPM", power_cap_w=7.0),
        config=SimConfig(seed=23, metrics_warmup_s=0.0),
    )
    sim.run(1.5)
    assert compared, "batch evaluator never ran; the gate moved?"
