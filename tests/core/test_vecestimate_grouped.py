"""Grouped vs dense LBT row reductions: live differential check.

:meth:`BatchMappingEvaluator._reduce_grouped` collapses a cluster's
candidate rows onto signature groups when ``rows x tasks`` is large; the
dense per-row reduction (``_reduce_dense``) is its documented oracle.
Rather than hand-crafting rows, this test forces the grouped branch
during a real simulation (gate patched to zero) and compares every
call's grouped result against the dense oracle on the very same row
arrays and evaluator state: the ``max`` reductions must match
bit-for-bit, ``spend`` up to the documented last-ulp fold freedom.
"""

import math

from repro.core import vecestimate as V
from repro.experiments.harness import make_governor
from repro.hw import tc2_chip
from repro.sim import SimConfig, Simulation
from repro.tasks import random_tasks

_EXACT = ("maxprio_imp", "maxprio_wor", "maxabs")


def test_grouped_rows_match_dense_oracle(monkeypatch):
    # Force the grouped branch regardless of population size...
    monkeypatch.setattr(V, "_GROUPED_MIN_ELEMS", 0)
    grouped_impl = V.BatchMappingEvaluator._reduce_grouped
    dense_impl = V.BatchMappingEvaluator._reduce_dense
    compared = []

    def differential(self, base, rows, state):
        grouped = grouped_impl(self, base, rows, state)
        dense = dense_impl(self, base, rows, state)
        n_rows = len(rows.mask)
        compared.append(
            (int((rows.mask >= 0).sum()), int((rows.a2_slot >= 0).sum()),
             int((rows.mv_slot >= 0).sum()))
        )
        for name, g, d in zip(_EXACT, grouped, dense):
            assert g.tolist() == d.tolist(), (
                f"{name} diverged for {base.cluster_id} ({n_rows} rows)"
            )
        for g, d in zip(grouped[3].tolist(), dense[3].tolist()):
            assert math.isclose(g, d, rel_tol=1e-12, abs_tol=1e-12)
        # ...but hand the dense result back, so the run's decisions are
        # the stock small-population behaviour.
        return dense

    monkeypatch.setattr(V.BatchMappingEvaluator, "_reduce_grouped", differential)

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
    # Rows that mask a leaving mover, rows that move a task within its
    # cluster (two adjustments) and rows that add a mover all went through.
    masked, intra, adding = (sum(column) for column in zip(*compared))
    assert masked and intra and adding, (masked, intra, adding)
