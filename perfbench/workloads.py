"""The four benchmark workloads, as `limpprob` command lines built from a seed.

Each workload is a list of CLI invocations (argv after ``python -m
limpprob.cli``) that together make one iteration.  The benchmark seed picks
one of ``REF_SEEDS`` reference inputs, so every seed has a committed reference
output (see ``check.py``); the same seed always gives the same command lines.

Sizes are chosen so that one iteration takes roughly 1 to 3 seconds on a
2-core machine: large enough that the named layer dominates Python start-up,
small enough that a run of ``--seconds`` holds several iterations.
"""

from __future__ import annotations

import os

# Number of distinct reference inputs per workload; benchmark seed s uses
# input index s % REF_SEEDS.
REF_SEEDS = 8

# Why each workload exists; the text is mirrored in BENCHMARK.json.
WHY = {
    "compare-assumption": "default compare grid with the assumption sampler: rng and vectorised sampling dominate, sim is idle",
    "compare-protocol": "same grid with the protocol sampler: the per-trial Python loop through sim dominates, rng draws small vectors",
    "figures-both-w2": "every figure panel at n=10..50 plus the n=100 anchor, analytic and simulated, 2 threads: many small rng calls, repeated sampler points",
    "closed-forms-large-n": "analytic regen-block and regen-any-block sweep at n = 1e4, 1e5, 3e5: only the O(n) closed forms and the cli row path run",
}
NAMES = tuple(WHY)

# Full-size and tiny (self-test) parameters per workload.
_TRIALS = {
    "full": {"compare-assumption": 4000, "compare-protocol": 100, "figures-both-w2": 100},
    "tiny": {"compare-assumption": 200, "compare-protocol": 5, "figures-both-w2": 10},
}
_LARGE_NODES = {"full": (10_000, 100_000, 300_000), "tiny": (1_000, 2_000)}
_FIGURE_NODES = {"full": "10..50:10", "tiny": "10,20"}


def program_seed(seed: int) -> int:
    """The `--seed` handed to the program for a benchmark seed."""
    return 1 + seed % REF_SEEDS


def commands(name: str, seed: int, out_dir: str, scale: str = "full") -> list[list[str]]:
    """CLI argv lists for one iteration of workload `name`, writing under out_dir."""
    pseed = program_seed(seed)
    common = ["--seed", str(pseed)]
    if name in ("compare-assumption", "compare-protocol"):
        sim = name.split("-")[1]
        return [[
            "compare", "--sim", sim, "--workers", "1", "--trials", str(_TRIALS[scale][name]),
            *common, "--out", os.path.join(out_dir, "compare.csv"),
        ]]
    if name == "figures-both-w2":
        return [[
            "figures", "--mode", "both", "--workers", "2", "--trials", str(_TRIALS[scale][name]),
            "--nodes", _FIGURE_NODES[scale], *common, "--out", out_dir,
        ]]
    if name == "closed-forms-large-n":
        # The offset varies the evaluated points with the seed while keeping the
        # O(n) cost, and so the wall time, the same for every seed.
        offset = 7 * (pseed - 1)
        nodes = ",".join(str(n + offset) for n in _LARGE_NODES[scale])
        return [
            [
                "sweep", "--mode", "analytic", "--protocol", protocol, "--nodes", nodes,
                *common, "--out", os.path.join(out_dir, f"{protocol}.csv"),
            ]
            for protocol in ("regen-block", "regen-any-block")
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def workers(name: str) -> int:
    """Worker threads the workload asks the program for."""
    return 2 if name == "figures-both-w2" else 1
