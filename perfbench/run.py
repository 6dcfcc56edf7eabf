"""limpprob benchmark: end-to-end and per-layer metrics for four CLI workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every iteration runs the workload's commands as fresh
``python -m limpprob.cli ...`` processes on the checkout's ``src`` and checks
their CSVs and exit codes against the committed reference (``check.py``).
A run is a closed loop: one process at a time, the next once the previous has
ended, for about ``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics (``E2E``): set-up time, wall
and CPU time and peak memory of the child processes, and CSV rows per second.
Times are scaled by ``calibrate.py`` runs made beside them, so that they read
as seconds on the reference machine at a fixed speed; the times as measured
are printed and kept in the result file too.
``--trace 1`` reports the per-layer metrics (``PER_LAYER``): half the time
untraced, half with ``trace.py`` wrapping each layer, plus ``micro.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the run
produces goes under ``.bench_out/`` in the checkout.  ``--tiny`` shrinks every
workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import check
import workloads

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_out")

# name -> unit; "better" and bounds live in BENCHMARK.json.
E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "rows_per_s": "1/s",
}
PER_LAYER = {
    "rng.uniforms": "count",
    "rng.calls": "count",
    "rng.busy_s": "s",
    "rng.ns_per_uniform": "ns",
    "rng.uniforms_per_s": "1/s",
    "trials.assumption.self_s": "s",
    "trials.assumption.trials_per_s": "1/s",
    "trials.rw.self_s": "s",
    "trials.protocol.self_s": "s",
    "trials.protocol.us_per_trial": "us",
    "trials.trials_per_s": "1/s",
    "trials.distinct_points_ratio": "ratio",
    "trials.parallel_cpu_util": "ratio",
    "trials.workers_speedup.assumption": "x",
    "trials.workers_speedup.protocol": "x",
    "sim.gen_placement.self_s": "s",
    "sim.make_scenario.self_s": "s",
    "sim.plan_regeneration.self_s": "s",
    "sim.classify_outcome.self_s": "s",
    "sim.calls": "count",
    "sim.blocks_placed": "count",
    "model.calls": "count",
    "model.busy_s": "s",
    "model.block_degrade_breakdown.self_s": "s",
    "model.repeat_call_ratio": "ratio",
    "model.any_block_degrade_prob.us_n1e2": "us",
    "model.any_block_degrade_prob.us_n1e4": "us",
    "model.any_block_degrade_prob.us_n1e6": "us",
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.csv_bytes": "bytes",
    "trace.overhead_s": "s",
    "check.csv_identical": "bool",
}
# Per-layer metrics that must repeat exactly between traced iterations.
EXACT = (
    "rng.uniforms", "rng.calls", "sim.calls", "sim.blocks_placed", "model.calls",
    "model.repeat_call_ratio", "trials.distinct_points_ratio", "cli.rows", "cli.csv_bytes",
)

SETUP_RUNS = 7  # at least, plus one warm-up run
# calibrate.py's start-up time, and its kernel time with 1 or 2 threads, on
# the reference machine (2-core Xeon, Python 3.11.7, numpy 2.4.6).  End-to-end
# times are scaled by nominal / measured calibration time, i.e. reported as
# seconds on that machine at a fixed speed.
STARTUP_S = 0.15
KERNEL_S = {1: 0.13, 2: 0.26}
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0  # stop starting iterations after this, whatever --seconds says


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int | None  # None: timed out or crashed with a traceback


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    rss_mb: float
    check: check.CheckResult
    traces: list[dict] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    return env


def run_child(argv: list[str], log_path: str) -> Child:
    """Run one process to completion and return its own rusage."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8", errors="replace") as log:
        crashed = "Traceback (most recent call last)" in log.read()
    code = None if timed_out.is_set() or crashed else proc.returncode
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code)


def run_calibration(threads: int, log_path: str) -> tuple[float, float] | None:
    """(start-up, kernel) seconds of one calibrate.py process; None on failure."""
    child = run_child([sys.executable, os.path.join(HERE, "calibrate.py"), str(threads)], log_path)
    if child.exit_code != 0:
        return None
    with open(log_path, encoding="utf-8") as log:
        kernel = float(log.read().split()[-1])
    return child.wall_s - kernel, kernel


def run_iteration(name: str, seed: int, scale: str, reference: dict, traced: bool) -> Iteration:
    out_dir = os.path.join(OUT, name, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    children, traces = [], []
    for index, argv in enumerate(workloads.commands(name, seed, out_dir, scale)):
        trace_path = os.path.join(out_dir, f"trace-{index}.json")
        if traced:
            prefix = [sys.executable, os.path.join(HERE, "trace.py"), trace_path, "--"]
        else:
            prefix = [sys.executable, "-m", "limpprob.cli"]
        children.append(run_child(prefix + argv, os.path.join(OUT, name, f"log-{index}.txt")))
        if traced and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as handle:
                traces.append(json.load(handle))
    result = check.compare_outputs(
        check.read_outputs(out_dir), [child.exit_code for child in children], reference
    )
    if traced and len(traces) != len(children):
        result.fail("a traced command wrote no trace")
    return Iteration(
        wall_s=sum(child.wall_s for child in children),
        cpu_s=sum(child.cpu_s for child in children),
        rss_mb=max(child.rss_mb for child in children),
        check=result,
        traces=traces,
    )


def run_loop(run_once, seconds: float, minimum: int) -> list:
    """Closed loop: iterate until the next iteration would end after `seconds`."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(run_once())
        elapsed = time.perf_counter() - start
        if len(samples) >= minimum and (
            elapsed + elapsed / len(samples) > seconds or elapsed > RUN_LIMIT_S
        ):
            return samples


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it, if above the median."""
    ordered = sorted(values)
    index = len(ordered) - 11
    if 2 * index <= len(ordered) - 1:
        return f"n/a (no percentile above the median has ten of {len(ordered)} runs beyond it)"
    return f"p{100.0 * (index + 1) / len(ordered):.0f} {ordered[index]:.4f} s"


def setup_command(name: str, seed: int, scale: str) -> list[str]:
    """The workload's first command with --show-config: start-up, parsing, no work."""
    argv = workloads.commands(name, seed, os.path.join(OUT, name, "out"), scale)[0]
    return [sys.executable, "-m", "limpprob.cli", *argv, "--show-config"]


def _merge(traces: list[dict]) -> dict:
    """Sum the traces of one iteration's commands."""
    merged = {"spans": {}, "layer_busy_s": {}, "counters": {}, "sampler_points": []}
    for trace in traces:
        for name, span in trace["spans"].items():
            into = merged["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += span[key]
        for section in ("layer_busy_s", "counters"):
            for key, value in trace[section].items():
                merged[section][key] = merged[section].get(key, 0) + value
        merged["sampler_points"] += trace["sampler_points"]
    return merged


def layer_metrics(trace: dict, iteration: Iteration, plain_wall: float, plain_cpu: float, workers: int) -> dict:
    """Per-layer metrics of one traced iteration; wall and CPU come from untraced runs."""
    spans, counters, busy = trace["spans"], trace["counters"], trace["layer_busy_s"]

    def self_s(name: str) -> float:
        return sum(spans.get(key, {}).get("self_s", 0.0) for key in (name, name + "/task"))

    def calls(layer: str) -> int:
        return sum(span["calls"] for key, span in spans.items() if key.startswith(layer + ".") and "/" not in key)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    uniforms = counters.get("rng.uniforms", 0)
    protocol_trials = counters.get("trials.protocol.trials", 0)
    all_trials = sum(counters.get(f"trials.{s}.trials", 0) for s in ("assumption", "protocol", "rw"))
    points = [tuple(point) for point in trace["sampler_points"]]
    return {
        "rng.uniforms": uniforms,
        "rng.calls": calls("rng"),
        "rng.busy_s": busy.get("rng", 0.0),
        "rng.ns_per_uniform": ratio(busy.get("rng", 0.0) * 1e9, uniforms),
        "trials.assumption.self_s": self_s("trials.assumption"),
        "trials.assumption.trials_per_s": ratio(
            counters.get("trials.assumption.trials", 0),
            spans.get("trials.assumption", {}).get("total_s", 0.0),
        ),
        "trials.rw.self_s": self_s("trials.rw"),
        "trials.protocol.self_s": self_s("trials.protocol"),
        "trials.protocol.us_per_trial": ratio(
            spans.get("trials.protocol", {}).get("total_s", 0.0) * 1e6, protocol_trials
        ),
        "trials.trials_per_s": ratio(all_trials, plain_wall),
        "trials.distinct_points_ratio": ratio(len(set(points)), len(points)),
        "trials.parallel_cpu_util": ratio(plain_cpu, plain_wall * workers),
        "sim.gen_placement.self_s": self_s("sim.gen_placement"),
        "sim.make_scenario.self_s": self_s("sim.make_scenario"),
        "sim.plan_regeneration.self_s": self_s("sim.plan_regeneration"),
        "sim.classify_outcome.self_s": self_s("sim.classify_outcome"),
        "sim.calls": calls("sim"),
        "sim.blocks_placed": counters.get("sim.blocks_placed", 0),
        "model.calls": calls("model"),
        "model.busy_s": busy.get("model", 0.0),
        "model.block_degrade_breakdown.self_s": self_s("model.block_degrade_breakdown"),
        "model.repeat_call_ratio": ratio(counters.get("model.repeat_calls", 0), calls("model")),
        "cli.self_s": self_s("cli.main"),
        "cli.rows": iteration.check.rows,
        "cli.csv_bytes": iteration.check.csv_bytes,
        "trace.overhead_s": iteration.wall_s - plain_wall,
    }


def run_micro(scale: str) -> dict[str, float] | None:
    command = [sys.executable, os.path.join(HERE, "micro.py")] + (["--tiny"] if scale == "tiny" else [])
    log_path = os.path.join(OUT, "micro.txt")
    if run_child(command, log_path).exit_code != 0:
        return None
    with open(log_path, encoding="utf-8") as log:
        lines = log.read().strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def machine_facts(seed: int) -> dict:
    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as info:
                for line in info:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or platform.machine()

    def numpy_version() -> str:
        try:
            return importlib.metadata.version("numpy")
        except importlib.metadata.PackageNotFoundError:
            return "unknown"

    def git_revision() -> str:
        head = os.path.join(ROOT, ".git", "HEAD")
        try:
            with open(head, encoding="utf-8") as handle:
                ref = handle.read().strip()
            if ref.startswith("ref: "):
                with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                    return handle.read().strip()
            return ref
        except OSError:
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "git_revision": git_revision(),
        "seed": seed,
        "program_seed": workloads.program_seed(seed),
    }


@dataclass
class Measured:
    metrics: dict[str, float]
    iterations: list[Iteration]
    attempted: int
    failed: int
    raw_times: dict[str, list] = field(default_factory=dict)  # calibration and set-up times as measured


def measure_end_to_end(name: str, seed: int, scale: str, reference: dict, seconds: float) -> Measured:
    # Probes run before every iteration and once after the last, so that they
    # sample the machine over the same stretch of time as the iterations.  A
    # probe is a one-thread calibration, a set-up run right after it, and, for
    # a workload with more worker threads, a calibration with that many
    # threads.
    workers = workloads.workers(name)
    probe_log = os.path.join(OUT, name, "probe.txt")
    Calibration = tuple[float, float] | None  # (start-up, kernel) seconds
    probes: list[tuple[Calibration, Calibration, Child]] = []  # (1 thread, `workers` threads, set-up)

    def probe() -> None:
        single = run_calibration(1, probe_log)
        setup = run_child(setup_command(name, seed, scale), probe_log)
        parallel = single if workers == 1 else run_calibration(workers, probe_log)
        probes.append((single, parallel, setup))

    def probe_then_iterate() -> Iteration:
        probe()
        return run_iteration(name, seed, scale, reference, traced=False)

    iterations = run_loop(probe_then_iterate, seconds, MIN_ITERATIONS)
    probe()
    while len(probes) <= SETUP_RUNS:
        probe()
    failed = sum(single is None or parallel is None or setup.exit_code != 0 for single, parallel, setup in probes)
    failed += sum(not it.check.ok for it in iterations)

    # The first probe warms the file cache and is not counted.  The machine's
    # speed changes within seconds, and start-up and computation slow down by
    # different amounts, so every time is scaled by the matching part of the
    # calibrations taken right beside it: a set-up run by the start-up of the
    # calibration just before it, an iteration by the mean kernel time of the
    # `workers`-thread calibrations just before and just after it.
    setups = [setup.wall_s * STARTUP_S / single[0] for single, _, setup in probes[1:] if single is not None]
    walls, cpus = [], []
    for index, it in enumerate(iterations):
        beside = [p[1] for _, p, _ in probes[max(index, 1):index + 2] if p is not None]
        if beside:
            scale_to_nominal = KERNEL_S[workers] / statistics.mean(beside)
            walls.append(it.wall_s * scale_to_nominal)
            cpus.append(it.cpu_s * scale_to_nominal)
    if not setups or not walls:
        print("FAIL no calibration finished; times are reported as measured")
        setups = [setup.wall_s for _, _, setup in probes[1:]]
        walls, cpus = [it.wall_s for it in iterations], [it.cpu_s for it in iterations]
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(it.rss_mb for it in iterations),
        "rows_per_s": iterations[0].check.rows / wall,
    }
    measured_walls = [it.wall_s for it in iterations]
    print(
        f"as measured, before calibration: wall_s median {statistics.median(measured_walls):.4f} s over "
        f"{len(measured_walls)} runs, tail {tail(measured_walls)}; "
        f"setup_s median {statistics.median(s.wall_s for _, _, s in probes[1:]):.4f} s"
    )
    raw = {
        "calibration_1_startup_kernel_s": [single for single, _, _ in probes],
        f"calibration_{workers}_startup_kernel_s": [p for _, p, _ in probes],
        "setup_s": [setup.wall_s for _, _, setup in probes],
    }
    return Measured(metrics, iterations, len(probes) + len(iterations), failed, raw)


def measure_layers(name: str, seed: int, scale: str, reference: dict, seconds: float) -> Measured:
    plain = run_loop(lambda: run_iteration(name, seed, scale, reference, traced=False), seconds / 2, 2)
    traced = run_loop(lambda: run_iteration(name, seed, scale, reference, traced=True), seconds / 2, 2)
    plain_wall = statistics.median(it.wall_s for it in plain)
    plain_cpu = statistics.median(it.cpu_s for it in plain)
    per_iteration = [
        layer_metrics(_merge(it.traces), it, plain_wall, plain_cpu, workloads.workers(name)) for it in traced
    ]
    metrics = {key: statistics.median(m[key] for m in per_iteration) for key in per_iteration[0]}
    failed = sum(not it.check.ok for it in plain + traced)
    for key in EXACT:
        values = [m[key] for m in per_iteration]
        metrics[key] = values[0]
        if len(set(values)) != 1:
            print(f"FAIL {key} differs between traced runs: {values}")
            failed += 1
    metrics["check.csv_identical"] = float(all(it.check.identical for it in plain + traced))
    micro = run_micro(scale)
    if micro is None:
        print("FAIL micro.py did not finish; its metrics read 0")
        failed += 1
        micro = dict.fromkeys(set(PER_LAYER) - set(metrics), 0.0)
    metrics.update(micro)
    with open(os.path.join(OUT, f"trace-{name}.json"), "w", encoding="utf-8") as handle:
        json.dump({"traces": [it.traces for it in traced]}, handle, indent=1)
    return Measured(metrics, plain + traced, len(plain) + len(traced) + 1, failed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="shrunken workloads for self-tests")
    args = parser.parse_args(argv)
    scale = "tiny" if args.tiny else "full"

    if not os.path.isfile(os.path.join(ROOT, "src", "limpprob", "cli.py")):
        print(f"error: no limpprob sources under {ROOT}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    name, seed = args.workload, args.seed
    reference = check.load_reference(name, scale, workloads.program_seed(seed))
    os.makedirs(os.path.join(OUT, name), exist_ok=True)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)

    measure, units = (measure_layers, PER_LAYER) if args.trace else (measure_end_to_end, E2E)
    measured = measure(name, seed, scale, reference, args.seconds)
    metrics, iterations = measured.metrics, measured.iterations
    attempted, failed = measured.attempted, measured.failed
    facts = machine_facts(seed)
    for index, it in enumerate(iterations):
        for problem in it.check.problems[:5]:
            print(f"FAIL iteration {index}: {problem}")
    print(f"error_rate = {failed / attempted:.4f} ({failed} of {attempted} runs failed)")
    print(f"csv_identical = {all(it.check.identical for it in iterations)}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    for key, unit in units.items():
        print(f"{key} = {metrics[key]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    with open(os.path.join(OUT, f"result-{name}-{seed}-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump({"facts": facts, "walls": [it.wall_s for it in iterations], **measured.raw_times, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
