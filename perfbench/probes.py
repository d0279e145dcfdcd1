"""Host-speed probes: fixed jobs that run no repository code.

The shared VM the benchmark was tuned on (2 Intel Xeon vCPUs) runs 20-70%
slower for minutes at a time.  A pass times a probe every 50 ms of timed
ticks and scales each tick by the probe's nominal time over the probes
around it, so a tick reads as it would on that host when quiet.  A probe
must slow the way the workload's ticks slow, so a workload names the one
that resembles its ticks:

* ``interpreter`` -- dict updates and float arithmetic.  Ticks of a few
  dozen tasks are interpreter-bound like this.
* ``numpy`` -- arithmetic, gathers and a partial sort on 10,000-element
  arrays.  Ticks of the 10,000-task population spend their time in such
  array work; over ten seeds, scaling them by this probe instead of the
  interpreter one halved the spread of their throughput.

Set-up always uses ``interpreter``: building a simulation is object
construction whatever the workload.  Each nominal time is the probe's
reading on that host when quiet.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, Tuple

import numpy as np


def interpreter_probe_ns() -> int:
    """Host time of a fixed interpreter-bound job."""
    start = time.perf_counter_ns()
    table: Dict[int, float] = {}
    total = 0.0
    for i in range(1500):
        key = i & 63
        table[key] = table.get(key, 0.0) * 0.5 + i
        total += table[key] * 1e-6
    return time.perf_counter_ns() - start


@functools.lru_cache(maxsize=None)
def _arrays() -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(1)
    return rng.random(10_000), rng.integers(0, 10_000, 10_000)


def numpy_probe_ns() -> int:
    """Host time of a fixed job on 10,000-element arrays."""
    values, index = _arrays()
    start = time.perf_counter_ns()
    total = 0.0
    for _ in range(6):
        scaled = values * 1.0001 + 0.5
        gathered = scaled[index]
        order = np.argsort(gathered[:2000])
        total += float(gathered[order[:10]].sum()) + float((scaled > 0.7).sum())
    return time.perf_counter_ns() - start


#: name -> (probe, nominal ns)
PROBES: Dict[str, Tuple[Callable[[], int], int]] = {
    "interpreter": (interpreter_probe_ns, 200_000),
    "numpy": (numpy_probe_ns, 380_000),
}
