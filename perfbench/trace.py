"""Run one `limpprob` CLI invocation with per-layer tracing, then write the trace.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH)::

    python perfbench/trace.py TRACE.json -- compare --sim protocol ...

Spans are recorded from outside the program: before ``limpprob.cli.main``
runs, the public functions of each layer are replaced by timing wrappers at
the attribute the calling module looks them up through (see ``install``).  The
layers are the package's modules: cli, trials, sim, rng and model.

Every span knows its parent span and its thread.  A span's self time is its
duration minus the time its children cover: children on the same thread are
subtracted directly, children on other threads (the tasks of a
``--workers`` thread pool) by the union of their intervals, during which the
parent only waits.  Pool tasks become spans named ``<parent>/task`` in the
parent's layer, so a layer's self time adds up the work of all its threads.

Spans are aggregated in memory as they close and written out once, with the
layer counters, when the command ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_now = time.perf_counter
_thread_id = threading.get_ident


class Span:
    __slots__ = ("name", "layer", "parent", "thread", "start", "child_time", "cross")

    def __init__(self, name: str, layer: str, parent: "Span | None"):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = _thread_id()
        self.child_time = 0.0  # same-thread children
        self.cross: list[tuple[float, float]] = []  # other-thread children
        self.start = _now()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple, int] = {}  # (parent name, name, same thread) -> calls
        self.layer_busy: dict[str, float] = {}  # time in outermost spans of a layer
        self.counters: dict[str, float] = {}
        self.sampler_points: list[tuple] = []
        self.model_args: set = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def _run(self, span: Span, fn, args, kwargs):
        stack = self._stack()
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            self._close(span, end)

    def _close(self, span: Span, end: float) -> None:
        duration = end - span.start
        with self._lock:
            covered = span.child_time + _union_length(span.cross)
            stat = self.spans.setdefault(span.name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += duration
            stat[2] += max(0.0, duration - covered)
            parent = span.parent
            if parent is None or parent.layer != span.layer:
                self.layer_busy[span.layer] = self.layer_busy.get(span.layer, 0.0) + duration
            same_thread = parent is not None and parent.thread == span.thread
            edge = (parent.name if parent else None, span.name, same_thread)
            self.edges[edge] = self.edges.get(edge, 0) + 1
            if parent is not None:
                if same_thread:
                    parent.child_time += duration
                else:
                    parent.cross.append((span.start, end))

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording `fn` as span `name`; after(args, kwargs, result) counts."""
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._run(Span(name, layer, self.current()), fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def task(self, parent: Span, fn):
        """A wrapper running `fn` on a pool thread as a child span of `parent`."""

        def traced(*args, **kwargs):
            return self._run(Span(parent.name + "/task", parent.layer, parent), fn, args, kwargs)

        return traced

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": calls, "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s) in sorted(self.spans.items())
            },
            "edges": [
                {"parent": parent, "name": name, "same_thread": same, "calls": calls}
                for (parent, name, same), calls in sorted(self.edges.items(), key=str)
            ],
            "layer_busy_s": dict(sorted(self.layer_busy.items())),
            "counters": dict(sorted(self.counters.items())),
            "sampler_points": [list(point) for point in self.sampler_points],
        }


def _sampler_counter(tracer: Tracer, signature: inspect.Signature, sampler: str, point_args: tuple[str, ...]):
    def after(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        point = []
        for arg in point_args:
            value = bound[arg]
            point.extend((value.n, value.b) if arg == "params" else (value,))
        with tracer._lock:
            tracer.sampler_points.append((sampler, *point))
        tracer.count(f"trials.{sampler}.trials", bound["trials"])

    return after


def _model_counter(tracer: Tracer, name: str):
    def after(args, kwargs, result):
        key = (name, repr(args), repr(sorted(kwargs.items())))
        with tracer._lock:
            repeat = key in tracer.model_args
            tracer.model_args.add(key)
        tracer.count("model.repeat_calls", repeat)

    return after


def install(tracer: Tracer) -> list[str]:
    """Replace every traced attribute; returns the names that could not be found."""
    cli = importlib.import_module("limpprob.cli")
    trials = importlib.import_module("limpprob.trials")
    rng = importlib.import_module("limpprob.rng")
    model = importlib.import_module("limpprob.model")
    missing = []

    def patch(owner, attr: str, span: str, after=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{owner.__name__}.{attr}")
        else:
            setattr(owner, attr, tracer.wrap(span, fn, after))

    def count_uniforms(args, kwargs, result):
        tracer.count("rng.uniforms", result.size)

    def count_blocks(args, kwargs, result):
        tracer.count("sim.blocks_placed", result.b_total)

    patch(cli, "main", "cli.main")
    samplers = (
        ("run_assumption_trials", "assumption", ("params",)),
        ("run_protocol_trials", "protocol", ("n", "b_total")),
        ("run_rw_trials", "rw", ("protocol", "n", "r")),
    )
    for attr, sampler, point_args in samplers:
        fn = getattr(cli, attr, None)
        counter = fn and _sampler_counter(tracer, inspect.signature(fn), sampler, point_args)
        patch(cli, attr, f"trials.{sampler}", counter)
    patch(trials, "uniforms_np", "rng.uniforms_np", count_uniforms)
    patch(trials, "trial_states_np", "rng.trial_states_np")
    patch(rng.TrialStream, "uniforms", "rng.TrialStream.uniforms", count_uniforms)
    patch(trials, "gen_placement", "sim.gen_placement", count_blocks)
    for name in ("make_scenario", "plan_regeneration", "classify_outcome"):
        patch(trials, name, f"sim.{name}")
    for name, fn in sorted(vars(model).items()):
        if inspect.isfunction(fn) and fn.__module__ == model.__name__ and not name.startswith("_"):
            patch(model, name, f"model.{name}", _model_counter(tracer, name))

    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()
            if parent is not None:
                fn = tracer.task(parent, fn)
            return super().submit(fn, *args, **kwargs)

    if hasattr(trials, "ThreadPoolExecutor"):
        trials.ThreadPoolExecutor = TracedPool
    else:
        missing.append("limpprob.trials.ThreadPoolExecutor")
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace.py TRACE.json -- <limpprob cli args>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    missing = install(tracer)
    for name in missing:
        print(f"trace: {name} not found, not traced", file=sys.stderr)
    cli = importlib.import_module("limpprob.cli")
    start = _now()
    try:
        code = cli.main(cli_args)
    finally:
        report = tracer.report()
        report["wall_s"] = _now() - start
        report["not_traced"] = missing
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
