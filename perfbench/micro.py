"""Micro-measures of single layers, printed as one JSON object.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH)::

    python perfbench/micro.py [--tiny]

Each figure is the median of several timed calls at a fixed input:

* ``rng.uniforms_per_s``: `uniforms_np` over one fixed 1000 x 1000 array;
* ``model.any_block_degrade_prob.us_n1e2`` / ``us_n1e4`` / ``us_n1e6``: one
  closed-form call at n = 1e2, 1e4, 1e6 with b = 10 (n - 1);
* ``trials.workers_speedup.assumption``: wall time of the assumption sampler
  at n=50, b=490 with 1 worker divided by its time with 2 workers;
* ``trials.workers_speedup.protocol``: the same for the protocol sampler at
  n=30, b_total=2900.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from limpprob.model import any_block_degrade_prob
from limpprob.params import RegenParams
from limpprob.rng import trial_states_np, uniforms_np
from limpprob.trials import run_assumption_trials, run_protocol_trials

SEED = 42


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(tiny: bool) -> dict[str, float]:
    side = 100 if tiny else 1000
    states = trial_states_np(SEED, np.arange(side, dtype=np.int64))[:, None]
    positions = np.arange(side, dtype=np.uint64)
    metrics = {
        "rng.uniforms_per_s": side * side / _median_time(lambda: uniforms_np(states, positions), 9),
    }
    sizes = {"us_n1e2": (100, 51), "us_n1e4": (10_000, 9), "us_n1e6": (1_000_000, 3)}
    for name, (n, repeats) in sizes.items():
        if tiny:
            n, repeats = min(n, 2_000), 1
        params = RegenParams(n, 10 * (n - 1))
        seconds = _median_time(lambda: any_block_degrade_prob(params), repeats)
        metrics[f"model.any_block_degrade_prob.{name}"] = seconds * 1e6
    samplers = {
        "assumption": lambda w: run_assumption_trials(RegenParams(50, 490), 200 if tiny else 8_000, SEED, w),
        "protocol": lambda w: run_protocol_trials(30, 2900, 5 if tiny else 300, SEED, w),
    }
    for name, run in samplers.items():
        one, two = (_median_time(lambda: run(w), 1 if tiny else 3) for w in (1, 2))
        metrics[f"trials.workers_speedup.{name}"] = one / two
    return metrics


if __name__ == "__main__":
    print(json.dumps(measure("--tiny" in sys.argv[1:])))
