#!/usr/bin/env python
"""Write every observable output of a fixed CLI command set into one tree.

Usage::

    python scripts/ci_output_tree.py OUT

Runs the nineteen command lines below with this checkout's ``repro``
package on the path: fault campaigns, soak, overload, overload-soak,
model-error, two fleets (one with a worker kill), and two checkpointed
runs (sensor dropout, then heartbeat loss) each resumed, the first also
replayed.  Reports, checkpoints, journals and
fleet manifests land under ``OUT``, and each command's stdout is saved
as ``OUT/stdout/NN_<verb>.txt`` with ``OUT`` replaced by ``<O>``.

Outputs embed no paths and no wall-clock content, so two trees from
the same code must be identical under ``diff -r`` whatever the worker
count or hash seed.  Two trees from a parent commit and a refactor of
it must be identical too; that is the bar for a behaviour-preserving
change.  CI's ``output-determinism`` job runs the script twice, the
second time with ``REPRO_JOBS=2 PYTHONHASHSEED=1``, and diffs the trees.

Exits 0 when every command succeeded, 1 naming the first that failed.
"""

import os
import shlex
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.watchdog import WallClockWatchdog  # noqa: E402

#: One CLI invocation per line; ``$O`` is the output directory.
COMMANDS = """
campaign --fault hotplug --governors PPM,HL --campaign-duration 20 --campaign-warmup 4 --intensity 0.25 --out $O
campaign --fault counter-bias --governors PPM --campaign-duration 15 --campaign-warmup 3 --out $O
campaign --fault thermal-runaway --governors HPM --campaign-duration 15 --campaign-warmup 3 --seed 2 --out $O
soak --governors PPM,HPM --soak-duration 25 --campaign-warmup 2 --seed 4 --out $O
overload --governors PPM,HL --overload-duration 12 --campaign-warmup 2 --seed 3 --out $O
overload-soak --governors PPM --soak-duration 25 --campaign-warmup 3 --seed 2 --out $O
model-error --governors PPM --campaign-duration 20 --campaign-warmup 3 --error-magnitudes 0,2 --drift-rates 0,0.5 --out $O
fleet --fleet-chips 3 --fleet-epochs 2 --fleet-dir $O/fleetdir --out $O
checkpoint --fault sensor-dropout --governors PPM,HL --workload m1 --campaign-duration 10 --campaign-warmup 2 --intensity 0.4 --seed 5 --checkpoint-dir $O/ckpt --out $O
replay --checkpoint-dir $O/ckpt --verify
resume --checkpoint-dir $O/ckpt --out $O
checkpoint --fault thermal-runaway --governors PPM --campaign-duration 15 --campaign-warmup 3 --seed 2 --checkpoint-dir $O/ckpt_thermal --out $O/x1
checkpoint --fault power-model-drift --governors PPM --campaign-duration 15 --campaign-warmup 3 --seed 2 --checkpoint-dir $O/ckpt_est --out $O/x2
fleet --fleet-chips 3 --fleet-epochs 5 --epoch-duration 0.3 --fleet-fault worker-kill@1:chip01 --fleet-dir $O/fleetdir_fault --fleet-timeout 5 --out $O/x3
campaign --fault heartbeat-loss --governors PPM,HPM --campaign-duration 15 --campaign-warmup 3 --out $O
campaign --fault dvfs-delay --governors PPM,HL --campaign-duration 15 --campaign-warmup 3 --out $O
campaign --fault migration-fail --governors PPM,HPM --campaign-duration 15 --campaign-warmup 3 --out $O
checkpoint --fault heartbeat-loss --governors PPM,HL --workload m1 --campaign-duration 12 --campaign-warmup 2 --seed 5 --checkpoint-dir $O/ckpt_hb --out $O/x4
resume --checkpoint-dir $O/ckpt_hb --out $O/x4
"""

#: Hard wall-clock budget; a hung command exits 2 with thread stacks
#: instead of stalling the CI job (override: REPRO_SMOKE_TIMEOUT_S).
WALL_BUDGET_S = 900.0


def main(out: str) -> int:
    out = os.path.abspath(out)
    stdout_dir = os.path.join(out, "stdout")
    for name in ("stdout", "x1", "x2", "x3", "x4"):
        os.makedirs(os.path.join(out, name), exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    lines = COMMANDS.strip().splitlines()
    for index, line in enumerate(lines, start=1):
        argv = [token.replace("$O", out) for token in shlex.split(line)]
        print(f"[{index:02d}/{len(lines)}] {line}", flush=True)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", *argv],
            cwd=out,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        name = f"{index:02d}_{argv[0]}.txt"
        with open(os.path.join(stdout_dir, name), "w", encoding="utf-8") as fh:
            fh.write(proc.stdout.replace(out, "<O>"))
        if proc.returncode != 0:
            print(f"FAILED (exit {proc.returncode}): {line}")
            return 1
    print(f"output tree written to {out}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python scripts/ci_output_tree.py OUT")
    with WallClockWatchdog(WALL_BUDGET_S, label="output tree"):
        sys.exit(main(sys.argv[1]))
