"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/test_bench.py -q

The smoke test spawns one short untraced and one short traced pass per
workload (about 10 s); the rest run in-process in a second or two.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run  # puts src/ on sys.path
from spans import HookMissing, SpanTracer, self_time_gap
from workloads import WORKLOADS, SimSpec, check_outcome, paper_sim, summarize

DECLARED = run.load_declared()


def _fake_pass(nominal=200_000):
    """A pass result of 200 one-microsecond ticks and 0.1 s set-ups."""
    return {"step_ns": [1000] * 200, "probes": [(0, nominal)], "probe_nominal_ns": nominal,
            "cold_setup_s": 0.2, "setup_s": [0.1, 0.1, 0.1],
            "setup_probes": [2 * nominal] * 3, "setup_probe_nominal_ns": nominal, "peak_rss_mb": 10.0}


def _traced_sim(set_id="l1", governor="PPM", ticks=40):
    sim = paper_sim(set_id, governor, 7, ticks * 0.01, "")
    sim.step()
    tracer = SpanTracer()
    tracer.install(sim, f"{set_id}/{governor}")
    try:
        for _ in range(ticks - 1):
            sim.step()
    finally:
        tracer.uninstall()
    return sim, tracer


class TestDeclaration:
    def test_workloads_match(self):
        assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)

    def test_end_to_end_metrics_match(self):
        produced = run.end_to_end([_fake_pass(), _fake_pass()], attempted=4, failed=1)
        assert [m["name"] for m in DECLARED["end_to_end"]] == list(produced)
        assert produced["ticks_per_s"] == 1e6
        assert produced["setup_s"] == pytest.approx(0.05)  # probes ran at twice nominal
        assert produced["success_frac"] == 0.75

    def test_per_layer_metrics_match_a_traced_pass(self):
        sim, tracer = _traced_sim()
        produced = run._layer_metrics(tracer, 39, [summarize(sim)])["metrics"]
        produced["trace_overhead_frac"] = 0.0
        assert set(produced) == {m["name"] for m in DECLARED["per_layer"]}


class TestTracer:
    def test_self_times_sum_to_root_spans(self):
        _sim, tracer = _traced_sim()
        totals = tracer.layer_totals()
        assert totals["sim.step"]["calls"] == 39
        assert self_time_gap(totals) == 0.0
        assert all(entry["self_ns"] >= 0 for entry in totals.values())

    def test_idle_layers_record_no_calls(self):
        _sim, tracer = _traced_sim(governor="HL")
        totals = tracer.layer_totals()
        for layer in ("core.market", "core.lbt", "core.admission", "checkpoint", "hw.thermal"):
            assert totals[layer]["calls"] == 0, layer
        assert totals["sim.dispatch"]["calls"] == 39

    def test_uninstall_restores_every_method(self):
        sim, _tracer = _traced_sim()
        owners = (sim, sim.governor, sim.governor.market, sim.governor.lbt, sim.chip, sim.metrics)
        for owner in owners:
            assert not [v for v in vars(owner).values() if getattr(v, "__name__", "") == "traced"]

    def test_tracing_changes_no_outcome(self):
        traced, _ = _traced_sim()
        plain = paper_sim("l1", "PPM", 7, 0.4, "")
        for _ in range(40):
            plain.step()
        assert summarize(traced) == summarize(plain)

    def test_missing_hook_aborts(self):
        with pytest.raises(HookMissing):
            SpanTracer()._wrap(object(), "_dispatch", "sim.dispatch")

    def test_lbt_must_exist_before_wrapping(self):
        sim = paper_sim("l1", "PPM", 7, 1.0, "")  # not stepped: no LBT yet
        tracer = SpanTracer()
        with pytest.raises(HookMissing):
            tracer.install(sim, "l1/PPM")
        tracer.uninstall()


class TestOutcomeCheck:
    SPEC = SimSpec("x", 100, lambda _scratch: None)
    GOOD = {"ticks": 100, "energy_j": 1.0, "average_power_w": 1.0, "miss_fraction": 0.5}

    def test_good_outcome_passes(self):
        assert check_outcome(self.SPEC, dict(self.GOOD), dict(self.GOOD)) == []

    def test_pinned_mismatch_fails(self):
        errors = check_outcome(self.SPEC, dict(self.GOOD), {**self.GOOD, "energy_j": 1.5})
        assert errors and "energy_j" in errors[0]

    def test_invariants_hold_without_a_pin(self):
        bad = {**self.GOOD, "ticks": 99, "miss_fraction": 1.5}
        assert len(check_outcome(self.SPEC, bad, None)) == 2

    def test_admission_must_balance(self):
        adm = {"offered": 10, "admitted": 5, "rejected": 1, "queue_timeouts": 1, "queue_depth": 1}
        assert check_outcome(self.SPEC, {**self.GOOD, "admission": adm}, None)


def test_passes_must_agree():
    def result(energy):
        return {"failed": 0, "sims": [{"name": "x", "errors": [], "summary": {"energy_j": energy}}]}

    same, other = result(1.0), result(2.0)
    run._check_repeats([result(1.0), same, other])
    assert same["failed"] == 0 and other["failed"] == 1
    assert "differs" in other["sims"][0]["errors"][0]


class TestCompare:
    @pytest.mark.parametrize(
        "a,b,better,spread,expected",
        [
            (100.0, 80.0, "higher", 0.01, "worse"),
            (100.0, 120.0, "higher", 0.01, "better"),
            (100.0, 95.0, "higher", 0.01, "within bound"),
            (100.0, 80.0, "lower", 0.01, "better"),
            (100.0, 120.0, "lower", 0.01, "worse"),
            (100.0, 50.0, "lower", 0.20, "unresolved"),
            (100.0, 50.0, "lower", None, "unresolved"),
        ],
    )
    def test_verdict(self, a, b, better, spread, expected):
        assert run.verdict(a, b, better, 0.1, spread) == expected

    @staticmethod
    def _write(path, tps=1000.0, setup_s=0.1, success=1.0, pairs=3):
        metrics = {"ticks_per_s": tps, "tick_us_p50": 10.0, "tick_us_p99": 20.0,
                   "setup_s": setup_s, "peak_rss_mb": 50.0, "success_frac": success}
        report = {"end_to_end": metrics, "pairs": [metrics] * pairs,
                  "raw": {"peak_rss_mb": [50.0] * 2 * pairs},
                  "raw_setup_s": [[setup_s] * 2] * 2 * pairs}
        path.write_text(json.dumps({"workloads": {"paper_sets": report}}))
        return path

    @staticmethod
    def _rows(capsys):
        """Verdict per metric, from the printed table."""
        lines = capsys.readouterr().out.splitlines()[1:]
        return {line.split()[1]: line.rsplit("  ", 1)[1] for line in lines}

    def test_compare_flags_a_regression(self, tmp_path, capsys):
        a = self._write(tmp_path / "a.json")
        b = self._write(tmp_path / "b.json", tps=700.0)
        assert run.compare(a, b) == 1
        assert self._rows(capsys)["ticks_per_s"] == "worse"
        assert run.compare(a, a) == 0
        assert set(self._rows(capsys).values()) == {"within bound"}

    def test_one_pair_is_unresolved(self, tmp_path, capsys):
        a = self._write(tmp_path / "a.json")
        b = self._write(tmp_path / "b.json", tps=700.0, pairs=1)
        assert run.compare(a, b) == 0
        rows = self._rows(capsys)
        assert rows["ticks_per_s"] == rows["tick_us_p99"] == "unresolved"
        assert rows["setup_s"] == "within bound"  # two passes still repeat set-up

    def test_setup_changes_below_the_floor_count_for_nothing(self, tmp_path, capsys):
        a = self._write(tmp_path / "a.json", setup_s=0.010)
        b = self._write(tmp_path / "b.json", setup_s=0.014)
        c = self._write(tmp_path / "c.json", setup_s=0.016)
        assert run.compare(a, b) == 0
        assert self._rows(capsys)["setup_s"] == "within bound"
        assert run.compare(a, c) == 1
        assert self._rows(capsys)["setup_s"] == "worse"

    def test_any_failed_simulation_is_worse(self, tmp_path, capsys):
        a = self._write(tmp_path / "a.json")
        b = self._write(tmp_path / "b.json", success=188 / 189)
        assert run.compare(a, b) == 1
        assert self._rows(capsys)["success_frac"] == "worse"


def test_peak_rss_is_the_childs_own():
    ballast = b"x" * (64 << 20)  # written, so resident in this process
    child = subprocess.run(
        [sys.executable, "-c", "import run; print(run.peak_rss_kb())"],
        cwd=run.BENCH_DIR, capture_output=True, text=True, check=True,
    )
    assert int(child.stdout) < (48 << 10) < len(ballast) >> 10


def test_refuses_engine_override(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "object")
    assert run.main(["--workload", "paper_sets", "--seconds", "1"]) == 2


def test_smoke_checks_every_workload():
    assert run.smoke(7) == 0
