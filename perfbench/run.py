"""Repository benchmark: end-to-end and per-layer cost of the simulator.

One client drives ``Simulation.step()`` back to back (a closed loop) and
times every call with ``perf_counter_ns``.  Each pass of a workload runs
in a fresh child process, one child at a time.  Untraced passes give the
end-to-end metrics; a traced pass wraps the layers ``step()`` calls into
(see ``spans.py``) and gives the per-layer metrics.  Every pass checks
each simulation's outcome (``expected.json`` pins seeds 7 and 11;
invariants hold under every seed).

Usage, from the repository root::

    python3 perfbench/run.py                          # all workloads -> out/results.json
    python3 perfbench/run.py --workload paper_sets --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --compare A.json B.json  # verdict per workload and metric
    python3 perfbench/run.py --smoke                  # short pass per workload, < 30 s
    python3 perfbench/run.py --pin 7 11               # rewrite expected.json

With ``--workload`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"
sys.path.insert(0, str(ROOT / "src"))

DEFAULT_SEED = 7
#: Full run: untraced passes per workload (three pairs), then one traced.
UNTRACED_PASSES = 6
#: After its timed ticks, a pass repeats the set-up of all its simulations
#: (build + first step) for the set-up median: at least ``_MIN`` times, and
#: on for ``SETUP_REPEAT_S`` seconds up to ``_MAX`` times, because a
#: one-millisecond set-up read once is mostly noise.
SETUP_REPEATS_MIN = 8
SETUP_REPEATS_MAX = 200
SETUP_REPEAT_S = 0.5
#: Each set-up repetition is scaled by the median of this many readings of
#: the ``interpreter`` probe taken just before it and as many just after.
#: Set-up builds Python objects whatever the workload.  Over ten seeds,
#: against one probe per repetition scaled by the pass's median, this
#: bracketing cut the spread of the set-up median from 6.7% to 2.6% on
#: ``population_10k`` and from 2.8% to 1.1% on ``full_stack``, and moved
#: the other two by under a point.
SETUP_PROBE = "interpreter"
SETUP_PROBE_READS = 3
#: A run (every pass of it) must finish within this many seconds.
RUN_DEADLINE_S = 170.0
#: Every PROBE_INTERVAL_NS of timed ticks a pass times the workload's host
#: probe (``probes.py``); each tick is scaled by the probe's nominal time
#: over the median of the probes within PROBE_WINDOW of it.
PROBE_INTERVAL_NS = 50_000_000
PROBE_WINDOW = 10
#: Variables that change which engine or how many workers run.
FORBIDDEN_ENV = ("REPRO_ENGINE", "REPRO_COLUMNAR_SYNC", "REPRO_JOBS")
#: ``--compare``: a change smaller than this, in the metric's unit, is
#: never better or worse, whatever its share of the baseline.
ABSOLUTE_FLOOR = {"setup_s": 0.005}

#: Counts and ratios a traced pass reports beside the layer times; units
#: of every metric come from ``BENCHMARK.json``.
COUNTS = (
    "core.lbt.move_ratio",
    "core.admission.admit_ratio",
    "core.admission.peak_queue_depth",
    "core.admission.queue_timeouts",
    "checkpoint.bytes_per_save",
    "sim.failed_migrations",
    "hw.sensor.read_failures",
    "trace_overhead_frac",
)


# =============================================================================
# Child process: one pass of one workload
# =============================================================================
def _layer_metrics(tracer, timed_ticks: int, summaries: List[dict]) -> Dict[str, object]:
    from spans import LAYERS, self_time_gap

    totals = tracer.layer_totals()
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        entry = totals[layer]
        calls = entry["calls"]
        metrics[f"{layer}.self_us_per_tick"] = entry["self_ns"] / 1e3 / timed_ticks
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.us_per_call"] = entry["total_ns"] / 1e3 / calls if calls else 0.0
    moves = sum(s.get("lbt_moves", 0) for s in summaries)
    admission = [s["admission"] for s in summaries if "admission" in s]
    offered = sum(a["offered"] for a in admission)
    admitted = sum(a["admitted"] for a in admission)
    lbt_calls = totals["core.lbt"]["calls"]
    writes = tracer.checkpoint_writes
    metrics.update(
        {
            "core.lbt.move_ratio": moves / lbt_calls if lbt_calls else 0.0,
            "core.admission.admit_ratio": admitted / offered if offered else 0.0,
            "core.admission.peak_queue_depth": max((a["peak_queue_depth"] for a in admission), default=0),
            "core.admission.queue_timeouts": sum(a["queue_timeouts"] for a in admission),
            "checkpoint.bytes_per_save": tracer.checkpoint_bytes / writes if writes else 0.0,
            "sim.failed_migrations": sum(s["failed_migrations"] for s in summaries),
            "hw.sensor.read_failures": sum(s["sensor_read_failures"] for s in summaries),
        }
    )
    return {
        "metrics": metrics,
        "bases": {
            "core.lbt.move_ratio": {"moves": moves, "lbt_calls": lbt_calls},
            "core.admission.admit_ratio": {"admitted": admitted, "offered": offered},
            "checkpoint.bytes_per_save": {"bytes": tracer.checkpoint_bytes, "saves": writes},
        },
        "layer_totals_ns": totals,
        "self_time_gap": self_time_gap(totals),
    }


def peak_rss_kb() -> int:
    """Peak resident set of this process since it started its program.

    ``ru_maxrss`` is not that on Linux: it keeps the peak across
    ``execve``, and a child forked from the runner starts with the
    runner's pages mapped, so a child smaller than its parent reads the
    parent's size.  ``VmHWM`` belongs to the memory map ``execve`` made.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_pass(workload: str, seed: int, traced: bool, smoke: bool) -> Dict[str, object]:
    """Run every simulation of ``workload`` once; return timings and outcomes."""
    from probes import PROBES
    from spans import HookMissing, SpanTracer
    from workloads import DIGEST_KEY, WORKLOADS, check_outcome, summarize, telemetry_digest

    spec_list = WORKLOADS[workload].specs(seed, smoke)
    host_probe_ns, probe_nominal_ns = PROBES[WORKLOADS[workload].probe]
    setup_probe_ns, setup_nominal_ns = PROBES[SETUP_PROBE]
    pinned = {} if smoke else _pinned(workload, seed)
    tracer = SpanTracer() if traced else None
    clock = time.perf_counter_ns
    step_ns: List[int] = []
    #: (index in step_ns of the tick that followed, probe ns)
    probes: List[Tuple[int, int]] = []
    next_probe = 0
    setup_ns = 0
    sims: List[dict] = []
    summaries: List[dict] = []
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="pass-", dir=OUT_DIR)
    started = time.perf_counter()
    try:
        for index, spec in enumerate(spec_list):
            record = {"name": spec.name, "errors": []}
            sims.append(record)
            try:
                sim_dir = os.path.join(scratch, str(index))
                t0 = clock()
                sim = spec.build(sim_dir)
                sim.step()
                setup_ns += clock() - t0
                if tracer is not None:
                    tracer.install(sim, spec.name)
                try:
                    step = sim.step
                    for _ in range(spec.ticks - 1):
                        t0 = clock()
                        if t0 >= next_probe:
                            probes.append((len(step_ns), host_probe_ns()))
                            next_probe = clock() + PROBE_INTERVAL_NS
                            t0 = clock()
                        step()
                        step_ns.append(clock() - t0)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                summary = summarize(sim)
                if traced and not smoke and len(sim.tasks) == 6:
                    summary[DIGEST_KEY] = telemetry_digest(sim)
                del sim
                gc.collect()  # so the next simulation's ticks do not collect this one's garbage
                record["summary"] = summary
                summaries.append(summary)
                record["errors"] = check_outcome(spec, summary, pinned.get(spec.name))
            except HookMissing:
                raise  # the benchmark no longer fits the program: abort the pass
            except Exception:  # a failed simulation is a failed operation
                record["errors"].append(traceback.format_exc())
        wall_s = time.perf_counter() - started
        peak_rss_mb = peak_rss_kb() / 1024.0
        setups: List[float] = []
        setup_probes: List[int] = []
        if not any(s["errors"] for s in sims):
            repeat_until = time.perf_counter() + SETUP_REPEAT_S
            while len(setups) < SETUP_REPEATS_MIN or (
                time.perf_counter() < repeat_until and len(setups) < SETUP_REPEATS_MAX
            ):
                gc.collect()  # a first set-up has no earlier repetition's garbage to collect
                readings = [setup_probe_ns() for _ in range(SETUP_PROBE_READS)]
                total = 0
                for index, spec in enumerate(spec_list):
                    t0 = clock()
                    sim = spec.build(os.path.join(scratch, f"setup-{index}"))
                    sim.step()
                    total += clock() - t0
                    del sim
                readings += [setup_probe_ns() for _ in range(SETUP_PROBE_READS)]
                setups.append(total / 1e9)
                setup_probes.append(statistics.median(readings))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = sum(1 for s in sims if s["errors"])
    result: Dict[str, object] = {
        "wall_s": wall_s,
        "attempted": len(spec_list),
        "failed": failed,
        "cold_setup_s": setup_ns / 1e9,
        "setup_s": setups,
        "setup_probes": setup_probes,
        "setup_probe_nominal_ns": setup_nominal_ns,
        "peak_rss_mb": peak_rss_mb,
        "sims": sims,
        "step_ns": step_ns,
        "probes": probes,
        "probe_nominal_ns": probe_nominal_ns,
    }
    if tracer is not None and step_ns:
        result["trace"] = _layer_metrics(tracer, len(step_ns), summaries)
        trace_path = OUT_DIR / f"trace_{workload}{'_smoke' if smoke else ''}.jsonl.gz"
        tracer.write(str(trace_path))
        result["trace"]["file"] = str(trace_path.relative_to(ROOT))
    return result


def _pinned(workload: str, seed: int) -> Dict[str, dict]:
    from workloads import WORKLOADS

    if not EXPECTED_PATH.exists():
        return {}
    expected = json.loads(EXPECTED_PATH.read_text())
    by_seed = expected.get(str(seed))
    if by_seed is None and not WORKLOADS[workload].seeded:
        by_seed = expected.get(str(DEFAULT_SEED))  # the seed changes nothing here
    return (by_seed or {}).get(workload, {})


# =============================================================================
# Parent process: schedule passes, aggregate, report
# =============================================================================
class PassCrashed(RuntimeError):
    """A pass's child process died or produced no result."""


def spawn_pass(workload: str, seed: int, traced: bool, smoke: bool, timeout_s: float) -> Dict[str, object]:
    """Run one pass in a fresh interpreter and wait for it to end."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, timeout_s), cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        reason = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        reason = f"pass exceeded {timeout_s:.0f} s"
    raise PassCrashed(f"{workload} pass (seed {seed}, traced={traced}) failed: {reason}")


def tick_stats(step_ns: List[int]) -> Dict[str, float]:
    """Throughput, median and p99 of per-tick host times (ns)."""
    if not step_ns:
        raise PassCrashed("no pass timed a single tick")
    ordered = sorted(step_ns)
    rank = math.ceil(0.99 * len(ordered))
    return {
        "ticks_per_s": len(ordered) / (sum(ordered) / 1e9),
        "tick_us_p50": statistics.median(ordered) / 1e3,
        "tick_us_p99": ordered[rank - 1] / 1e3,
        "p99_samples_beyond": len(ordered) - rank,
    }


def scaled_ticks(result: dict) -> List[float]:
    """A pass's tick times scaled to the nominal host speed (see PROBE_*)."""
    probes = result["probes"]
    sizes = [n for _, n in probes]
    bounds = [i for i, _ in probes[1:]] + [len(result["step_ns"])]
    scaled: List[float] = []
    for j, (start, end) in enumerate(zip([i for i, _ in probes], bounds)):
        local = statistics.median(sizes[max(0, j - PROBE_WINDOW): j + PROBE_WINDOW + 1])
        scale = result["probe_nominal_ns"] / local
        scaled.extend(t * scale for t in result["step_ns"][start:end])
    return scaled


def pass_scale(result: dict) -> float:
    """Nominal over the pass's median tick-phase probe: scales its layer times."""
    if not result["probes"]:
        raise PassCrashed("no pass timed a single tick")
    return result["probe_nominal_ns"] / statistics.median(n for _, n in result["probes"])


def scaled_setups(result: dict) -> List[float]:
    """A pass's set-up repetitions (s), each scaled by the probes around it.

    A pass with a failed simulation repeats nothing; its one cold set-up
    stands in, scaled like its ticks.
    """
    if not result["setup_probes"]:
        return [result["cold_setup_s"] * pass_scale(result)]
    nominal = result["setup_probe_nominal_ns"]
    return [s * nominal / probe for s, probe in zip(result["setup_s"], result["setup_probes"])]


def paired_tick_stats(passes: List[dict]) -> List[Dict[str, float]]:
    """Tick statistics of each consecutive pair of passes, fastest per tick.

    Every pass of a run repeats the same deterministic simulations, so
    tick ``i`` does the same work in both passes of a pair; host noise only
    adds time, and its bursts rarely cover one tick in both.  Taking the
    fastest of two, not of all passes, keeps the estimate's downward bias
    the same however many passes a run fits.
    """
    full = max(len(p["step_ns"]) for p in passes)
    scaled = [scaled_ticks(p) for p in passes if full and len(p["step_ns"]) == full]
    if not scaled:
        raise PassCrashed("no pass timed a single tick")
    pairs = [scaled[i:i + 2] for i in range(0, len(scaled) - 1, 2)] or [scaled]
    return [tick_stats([min(times) for times in zip(*pair)]) for pair in pairs]


def end_to_end(untraced: List[dict], attempted: int, failed: int) -> Dict[str, float]:
    """The declared end-to-end metrics, in ``BENCHMARK.json`` order.

    Times come from the untraced passes; ``success_frac`` counts every
    simulation the run attempted, the traced pass's too.
    """
    per_pair = paired_tick_stats(untraced)
    return {
        **{name: statistics.median(s[name] for s in per_pair)
           for name in ("ticks_per_s", "tick_us_p50", "tick_us_p99")},
        "setup_s": statistics.median(s for p in untraced for s in scaled_setups(p)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "success_frac": (attempted - failed) / attempted,
    }


def per_layer(traced: dict, untraced: List[dict]) -> Dict[str, float]:
    if "trace" not in traced:
        raise PassCrashed("the traced pass timed no tick")
    scale = pass_scale(traced)
    metrics = {
        name: value * scale if name.endswith(("_us_per_tick", ".us_per_call")) else value
        for name, value in traced["trace"]["metrics"].items()
    }
    best = max(tick_stats(scaled_ticks(p))["ticks_per_s"] for p in untraced)
    metrics["trace_overhead_frac"] = best / tick_stats(scaled_ticks(traced))["ticks_per_s"] - 1.0
    return metrics


def _check_repeats(passes: List[dict]) -> None:
    """Fail a simulation whose outcome differs from an earlier pass's.

    Every pass of a run uses the same seed and the simulator is
    deterministic, so this holds under seeds that ``expected.json`` does
    not pin.
    """
    from workloads import DIGEST_KEY

    first: Dict[str, dict] = {}
    for result in passes:
        for sim in result["sims"]:
            if sim["errors"]:
                continue
            outcome = {k: v for k, v in sim["summary"].items() if k != DIGEST_KEY}
            if first.setdefault(sim["name"], outcome) != outcome:
                sim["errors"].append("outcome differs from an earlier pass with the same seed")
                result["failed"] += 1


def _workload_report(untraced: List[dict], traced: Optional[dict]) -> Dict[str, object]:
    passes = untraced + ([traced] if traced else [])
    _check_repeats(passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    per_pass = [{**tick_stats(scaled_ticks(p)), "peak_rss_mb": p["peak_rss_mb"], "wall_s": p["wall_s"],
                 "timed_ticks": len(p["step_ns"]), "host_scale": pass_scale(p),
                 "unscaled_ticks_per_s": tick_stats(p["step_ns"])["ticks_per_s"],
                 "cold_setup_s": p["cold_setup_s"]} for p in untraced]
    report: Dict[str, object] = {
        "end_to_end": end_to_end(untraced, attempted, failed),
        "attempted": attempted,
        "failed": failed,
        "passes": len(untraced),
        "pairs": paired_tick_stats(untraced),
        "raw": {name: [p[name] for p in per_pass] for name in per_pass[0]},
        "raw_setup_s": [scaled_setups(p) for p in untraced],
        "errors": {s["name"]: s["errors"] for p in passes for s in p["sims"] if s["errors"]},
    }
    if traced is not None:
        report["per_layer"] = per_layer(traced, untraced)
        report["trace"] = {k: v for k, v in traced["trace"].items() if k != "metrics"}
    return report


def _meta(seed: int) -> Dict[str, object]:
    from probes import PROBES

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "untraced_passes": UNTRACED_PASSES,
        "probe": {"interval_ns": PROBE_INTERVAL_NS, "window": PROBE_WINDOW,
                  "nominal_ns": {name: nominal for name, (_probe, nominal) in PROBES.items()}},
        "setup_repeats": {"min": SETUP_REPEATS_MIN, "max": SETUP_REPEATS_MAX, "seconds": SETUP_REPEAT_S,
                          "probe": SETUP_PROBE, "probe_reads": 2 * SETUP_PROBE_READS},
    }


def _write_json(path: Path, document: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One timed run of one workload; prints the result line last."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S

    def remaining() -> float:
        return deadline - time.monotonic()

    untraced: List[dict] = []
    if trace:
        untraced.append(spawn_pass(workload, seed, False, False, remaining()))
        traced = spawn_pass(workload, seed, True, False, remaining())
    else:
        traced = None
        # One pair of passes, then more while another pair fits in ``seconds``.
        while True:
            pair_started = time.monotonic()
            for _ in range(2):
                untraced.append(spawn_pass(workload, seed, False, False, remaining()))
            now = time.monotonic()
            if now - started + (now - pair_started) > min(seconds, remaining()):
                break
    report = _workload_report(untraced, traced)
    metrics = report["per_layer"] if trace else report["end_to_end"]
    _write_json(
        OUT_DIR / f"run_{workload}_seed{seed}_trace{int(trace)}.json",
        {"meta": _meta(seed), "workloads": {workload: report}},
    )
    for name, errors in report["errors"].items():
        print(f"FAILED {name}: {errors[0].strip().splitlines()[-1]}", file=sys.stderr)
    units = declared_units()
    line = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _print_report(name: str, report: dict, units: Dict[str, str]) -> None:
    from spans import LAYERS

    print(f"\n== {name}: {report['failed']}/{report['attempted']} simulations failed")
    for metric, value in report["end_to_end"].items():
        print(f"  {metric:<32} {value:>12.6g} {units[metric]}")
    print(f"  (p99 over timed ticks; {report['pairs'][0]['p99_samples_beyond']} samples lie beyond it)")
    layers = report["per_layer"]
    print(f"  {'layer (traced pass)':<20} {'self us/tick':>12} {'calls':>9} {'us/call':>10}")
    for layer in LAYERS:
        print(f"  {layer:<20} {layers[layer + '.self_us_per_tick']:>12.3f} "
              f"{layers[layer + '.calls']:>9} {layers[layer + '.us_per_call']:>10.2f}")
    for metric in COUNTS:
        print(f"  {metric:<32} {layers[metric]:>12.6g} {units[metric]}")


def run_all(seed: int, out_path: Path) -> int:
    """Every workload: untraced passes round-robin, then one traced pass each."""
    from workloads import WORKLOADS

    untraced: Dict[str, List[dict]] = {w: [] for w in WORKLOADS}
    traced: Dict[str, dict] = {}
    for round_index in range(UNTRACED_PASSES + 1):
        for workload in WORKLOADS:
            is_traced = round_index == UNTRACED_PASSES
            print(f"pass {round_index + 1}: {workload}{' (traced)' if is_traced else ''}", file=sys.stderr)
            result = spawn_pass(workload, seed, is_traced, False, RUN_DEADLINE_S)
            if is_traced:
                traced[workload] = result
            else:
                untraced[workload].append(result)
    reports = {w: _workload_report(untraced[w], traced[w]) for w in WORKLOADS}
    _write_json(out_path, {"meta": _meta(seed), "workloads": reports})
    units = declared_units()
    for name, report in reports.items():
        _print_report(name, report, units)
    print(f"\nwrote {out_path}")
    return 0 if all(r["failed"] == 0 for r in reports.values()) else 1


# =============================================================================
# --compare, --smoke, --pin
# =============================================================================
def load_declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units() -> Dict[str, str]:
    declared = load_declared()
    return {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in declared[kind]}


def _spread(values: List[float]) -> Optional[float]:
    """Interquartile range over the median; None with fewer than two values.

    Quartiles interpolate between the values (``inclusive``): a file holds
    only a few repetitions, and the default method extrapolates past them.
    """
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / median if median else 0.0


def _repeat_spread(report: dict, metric: str) -> Optional[float]:
    """Spread of ``metric`` over the repetitions inside one result file.

    The tick metrics repeat once per pair of passes, set-up and memory once
    per pass.  ``success_frac`` is a count, not a measurement: it has no
    spread.
    """
    if metric == "success_frac":
        return 0.0
    if metric == "setup_s":
        return _spread([statistics.median(setups) for setups in report["raw_setup_s"]])
    if metric == "peak_rss_mb":
        return _spread(report["raw"][metric])
    return _spread([pair[metric] for pair in report["pairs"]])


def verdict(a: float, b: float, better: str, tolerance: float, spread: Optional[float]) -> str:
    """``tolerance`` is the share of ``a`` a change must exceed to count.

    Unresolved when either file's own repetitions spread wider than that,
    or when one of them has too few repetitions to tell.
    """
    if spread is None or spread > tolerance:
        return "unresolved"
    change = (b - a) / a if a else 0.0
    if better == "lower":
        change = -change
    if change > tolerance:
        return "better"
    if change < -tolerance:
        return "worse"
    return "within bound"


def compare(path_a: Path, path_b: Path) -> int:
    """Print one row per workload and end-to-end metric; 1 if any is worse."""
    declared = load_declared()["end_to_end"]
    a = json.loads(path_a.read_text())["workloads"]
    b = json.loads(path_b.read_text())["workloads"]
    worse = 0
    print(f"{'workload':<16} {'metric':<14} {'A':>12} {'B':>12} {'change':>8} {'spread':>7}  verdict")
    for workload in sorted(set(a) & set(b)):
        for metric in declared:
            name = metric["name"]
            va = a[workload]["end_to_end"][name]
            vb = b[workload]["end_to_end"][name]
            spreads = [_repeat_spread(r[workload], name) for r in (a, b)]
            spread = None if None in spreads else max(spreads)
            tolerance = max(metric["bound"], ABSOLUTE_FLOOR.get(name, 0.0) / va if va else 0.0)
            result = verdict(va, vb, metric["better"], tolerance, spread)
            worse += result == "worse"
            change = (vb - va) / va if va else 0.0
            shown = "n/a" if spread is None else f"{spread:.1%}"
            print(f"{workload:<16} {name:<14} {va:>12.6g} {vb:>12.6g} {change:>+8.1%} {shown:>7}  {result}")
    return 1 if worse else 0


def smoke(seed: int) -> int:
    """One short untraced and one short traced pass per workload, checked."""
    from workloads import WORKLOADS

    declared = load_declared()
    problems: List[str] = []
    for name, workload in WORKLOADS.items():
        untraced = [spawn_pass(name, seed, False, True, RUN_DEADLINE_S)]
        traced = spawn_pass(name, seed, True, True, RUN_DEADLINE_S)
        report = _workload_report(untraced, traced)
        problems += [f"{name}: {sim}: {errs[0]}" for sim, errs in report["errors"].items()]
        for kind, metrics in (("end_to_end", report["end_to_end"]), ("per_layer", report["per_layer"])):
            missing = [m["name"] for m in declared[kind] if m["name"] not in metrics]
            problems += [f"{name}: {kind} metric {m} missing" for m in missing]
        for layer, busy in workload.expected_calls.items():
            calls = report["per_layer"][f"{layer}.calls"]
            if busy != (calls > 0):
                problems.append(f"{name}: {layer} made {calls} calls, expected {'some' if busy else 'none'}")
        gap = report["trace"]["self_time_gap"]
        if gap is None or gap > 0.01:
            problems.append(f"{name}: layer self times miss the root spans by {gap}")
        print(f"smoke {name}: {report['failed']}/{report['attempted']} failed, "
              f"{report['end_to_end']['ticks_per_s']:.0f} ticks/s", file=sys.stderr)
    for problem in problems:
        print(f"SMOKE FAILED {problem}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def pin(seeds: List[int]) -> int:
    """Rewrite expected.json from one traced pass per workload and seed."""
    from workloads import WORKLOADS

    expected: Dict[str, dict] = {}
    for seed in seeds:
        for name in WORKLOADS:
            result = spawn_pass(name, seed, True, False, RUN_DEADLINE_S)
            expected.setdefault(str(seed), {})[name] = {s["name"]: s["summary"] for s in result["sims"]}
    _write_json(EXPECTED_PATH, expected)
    print(f"wrote {EXPECTED_PATH}")
    return 0


# =============================================================================
# Entry point
# =============================================================================
def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (result line on stdout)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time of one run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT_DIR / "results.json", help="full-run result file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pin", nargs="+", type=int, metavar="SEED")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.compare:
        return compare(*args.compare)
    set_env = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if set_env:
        print(f"refusing to run with {', '.join(set_env)} set", file=sys.stderr)
        return 2
    if importlib.util.find_spec("repro") is None:
        print(f"cannot import repro from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace), args.smoke)))
        return 0
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(args.seed)
        if args.pin:
            return pin(args.pin)
        if args.workload is not None:
            seconds = args.seconds if args.seconds is not None else load_declared()["run_seconds"]
            return run_one(args.workload, args.seed, seconds, bool(args.trace))
        return run_all(args.seed, args.out)
    except PassCrashed as exc:
        print(exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
