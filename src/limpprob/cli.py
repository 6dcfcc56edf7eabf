"""Command-line front end: parameter sweeps, figure datasets, and the
analytic-vs-simulation comparison gate.

Subcommands (``_COMMANDS`` holds each one's handler, help and flags):

* ``model``    - evaluate the closed forms at a single parameter point
* ``sweep``    - sweep a parameter grid, write one CSV dataset
* ``compare``  - run analytic and simulated estimators on a grid and gate the
  absolute gap; exit code 1 when any point fails, including a point whose
  estimate rests on no observations (status ``no-observations``)
* ``figures``  - write the canonical curve datasets, one CSV per panel; every
  panel is computed before the first file is written

A subcommand takes only the flags it reads.  Flags are plain strings that go
through the same conversion and checks as config-file values (``_effective``).

Exit codes: 0 success, 1 comparison failure (beyond tolerance or no
observations), 2 usage/config error.

CSV schema (exact column order)::

    protocol,n,r_or_b,metric,source,value,ci_low,ci_high,trials,seed

Analytic rows leave ci_low/ci_high/trials/seed empty; values carry 12
significant digits; rows are sorted by (protocol, n, r_or_b, source, metric),
with an empty r_or_b first.  Files are written atomically (temp file, then
rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass

from . import model
from .errors import InvalidParamsError, LowLoadWarning
from .params import ClusterParams, RegenParams, WorkloadParams
from .stats import EstimateSummary
from .trials import (
    ANY_BLOCK_DEGRADE,
    BLOCK_DEGRADE,
    CLUSTER_DEGRADE,
    NODE_DEGRADE,
    run_assumption_trials,
    run_protocol_trials,
    run_rw_trials,
)

CSV_HEADER = "protocol,n,r_or_b,metric,source,value,ci_low,ci_high,trials,seed"
CSV_COMMENT = (
    "# r_or_b: r = requests per operation period (period semantics are user-defined); "
    "b = blocks lost with the crashed node"
)

# protocol -> (parameter kind, headline metric)
PROTOCOLS = {
    "read": ("r", "read_user_degrade"),
    "write": ("r", "write_user_degrade"),
    "regen-node": ("b", NODE_DEGRADE),
    "regen-cluster": ("b", CLUSTER_DEGRADE),
    "regen-block": ("b", BLOCK_DEGRADE),
    "regen-any-block": ("b", ANY_BLOCK_DEGRADE),
}

DEFAULTS = {
    "nodes": "10..100:10",
    "requests": "1,10,100,1000",
    "blocks": None,  # derived per n: (n-1) * {1, 10, 50}
    "mode": "analytic",
    "trials": 100_000,
    "seed": 42,
    "tolerance": 0.02,
    "workers": 1,
    "sim": "assumption",
    "out": None,
}

_BLOCK_FACTORS = (1, 10, 50)
_FIGURE_BLOCK_FACTORS = (1, 5, 10, 50)
_FIGURE_ANCHOR = (100, 3200)  # the 20%-full 1TB node data point
_WRITE_R_ANCHOR = 40  # with n=50 this is the one-slow-write-per-40-requests point
_FIGURES = ("read", "write", "node-cluster", "block")
# regen-block's metrics, in the order `model` prints them
_BLOCK_METRICS = ("block_degrade_both", "block_degrade_one_slow", BLOCK_DEGRADE)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _breakdown(n: int, b: int) -> model.BlockDegradeBreakdown:
    return model.block_degrade_breakdown(RegenParams(n, b))


# metric -> closed form of (n, v), where v is r or b depending on the metric
_ANALYTIC = {
    "read_degrade": lambda n, r: model.read_degrade_prob(ClusterParams(n)),
    "read_user_degrade": lambda n, r: model.read_user_degrade_prob(ClusterParams(n), WorkloadParams(r)),
    "write_degrade": lambda n, r: model.write_degrade_prob(ClusterParams(n)),
    "write_user_degrade": lambda n, r: model.write_user_degrade_prob(ClusterParams(n), WorkloadParams(r)),
    NODE_DEGRADE: lambda n, b: model.node_degrade_prob(RegenParams(n, b)),
    CLUSTER_DEGRADE: lambda n, b: model.cluster_degrade_prob(RegenParams(n, b)),
    BLOCK_DEGRADE: lambda n, b: _breakdown(n, b).total,
    "block_degrade_both": lambda n, b: _breakdown(n, b).both_on_degraded,
    "block_degrade_one_slow": lambda n, b: _breakdown(n, b).one_on_slow,
    ANY_BLOCK_DEGRADE: lambda n, b: model.any_block_degrade_prob(RegenParams(n, b)),
}


def analytic_value(metric: str, n: int, v: int | None) -> float:
    """Evaluate one analytic metric; v is r or b depending on the metric."""
    if metric not in _ANALYTIC:
        raise InvalidParamsError(f"unknown metric {metric!r}")
    with warnings.catch_warnings():
        # sweeps intentionally cover low-load regimes; the API-level warning
        # stays for programmatic users
        warnings.simplefilter("ignore", LowLoadWarning)
        return _ANALYTIC[metric](n, v)


def _regen_b_total(n: int, b: int) -> int:
    """Cluster-wide block count whose crashed node holds b blocks on average."""
    return max(1, round(b * n / 3))


class _SimCache:
    """Deduplicates simulation runs within one command invocation."""

    def __init__(self, cfg: dict):
        self.sim = cfg["sim"]
        self._run_args = (cfg["trials"], cfg["seed"], cfg["workers"])
        self._runs: dict = {}

    def estimate(self, protocol: str, metric: str, n: int, v: int) -> EstimateSummary:
        rw = PROTOCOLS[protocol][0] == "r"
        key = (protocol if rw else "regen", n, v)
        if key not in self._runs:
            if rw:
                self._runs[key] = run_rw_trials(protocol, n, v, *self._run_args)
            elif self.sim == "protocol":
                self._runs[key] = run_protocol_trials(n, _regen_b_total(n, v), *self._run_args)
            else:
                self._runs[key] = run_assumption_trials(RegenParams(n, v), *self._run_args)
        return self._runs[key] if rw else self._runs[key][metric]


@dataclass
class Row:
    protocol: str
    n: int
    r_or_b: int | None
    metric: str
    source: str
    value: float
    ci_low: float | None = None
    ci_high: float | None = None
    trials: int | None = None
    seed: int | None = None

    def render(self) -> str:
        return ",".join(
            [
                self.protocol,
                str(self.n),
                "" if self.r_or_b is None else str(self.r_or_b),
                self.metric,
                self.source,
                _fmt(self.value),
                "" if self.ci_low is None else _fmt(self.ci_low),
                "" if self.ci_high is None else _fmt(self.ci_high),
                "" if self.trials is None else str(self.trials),
                "" if self.seed is None else str(self.seed),
            ]
        )


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".limpprob-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, rows: list[Row]) -> None:
    rows = sorted(rows, key=lambda r: (r.protocol, r.n, -1 if r.r_or_b is None else r.r_or_b, r.source, r.metric))
    lines = [CSV_COMMENT, CSV_HEADER, *(row.render() for row in rows)]
    _write_atomic(path, "\n".join(lines) + "\n")


def _parse_nodes(text) -> list[int]:
    """Accepts a range 'A..B:S' or 'A..B', or anything :func:`_parse_int_list` takes."""
    if isinstance(text, str) and ".." in text:
        span, _, stride_s = text.strip().partition(":")
        lo_s, _, hi_s = span.partition("..")
        lo, hi = _integer("nodes", lo_s), _integer("nodes", hi_s)
        stride = _integer("nodes", stride_s) if stride_s else 1
        if stride < 1 or hi < lo:
            raise InvalidParamsError(f"bad node range {text!r}")
        return list(range(lo, hi + 1, stride))
    return _parse_int_list(text, "nodes")


def _parse_int_list(text, what: str) -> list[int]:
    """Accepts an int, a comma list 'A,B,C' or a JSON list; a repeated value is kept once."""
    parts = text if isinstance(text, (list, tuple)) else [p for p in str(text).split(",") if p.strip()]
    values = list(dict.fromkeys(_integer(what, v) for v in parts))
    if not values:
        raise InvalidParamsError(f"empty {what} list {text!r}")
    if any(v < 0 for v in values):
        raise InvalidParamsError(f"{what} values must be >= 0, got {values}")
    return values


def _blocks_for(n: int, blocks: str | None, factors=_BLOCK_FACTORS) -> list[int]:
    if blocks is not None:
        return _parse_int_list(blocks, "blocks")
    return [(n - 1) * k for k in factors]


def _load_config(path: str) -> dict:
    with open(path) as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise InvalidParamsError(f"config {path!r} must hold a JSON object")
    unknown = set(config) - set(DEFAULTS) - {"protocol", "figure"}
    if unknown:
        raise InvalidParamsError(f"unknown config keys: {sorted(unknown)}")
    return config


def _integer(key: str, value) -> int:
    """A config or grid-list value as an int: an integral number or a string of digits, never a bool."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParamsError(f"{key} must be an integer, got {value!r}") from exc
    if isinstance(value, bool) or (isinstance(value, float) and value != number):
        raise InvalidParamsError(f"{key} must be an integer, got {value!r}")
    return number


def _effective(args: argparse.Namespace, command_defaults: dict) -> dict:
    """Merge CLI > config file > defaults, then convert and check every value; protocol and figure have no default."""
    defaults = {**DEFAULTS, **command_defaults}
    config = _load_config(args.config) if args.config else {}
    merged = {}
    for key in [*defaults, "protocol", "figure"]:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value
        elif key in config:
            merged[key] = config[key]
        elif key in defaults:
            merged[key] = defaults[key]
    for key in ("protocol", "figure", "mode", "sim", "out"):
        if not isinstance(merged.get(key), (str, type(None))):
            raise InvalidParamsError(f"{key} must be a string, got {merged[key]!r}")
    for key in ("trials", "seed", "workers"):
        merged[key] = _integer(key, merged[key])
    merged["seed"] &= (1 << 64) - 1
    try:
        merged["tolerance"] = float(merged["tolerance"])
    except (TypeError, ValueError) as exc:
        raise InvalidParamsError(f"tolerance must be a number, got {merged['tolerance']!r}") from exc
    if merged["mode"] not in ("analytic", "simulate", "both"):
        raise InvalidParamsError(f"bad mode {merged['mode']!r}")
    if merged["sim"] not in ("assumption", "protocol"):
        raise InvalidParamsError(f"bad sim flavor {merged['sim']!r}")
    if merged["trials"] < 1 or merged["workers"] < 1:
        raise InvalidParamsError("trials and workers must be >= 1")
    if not 0.0 < merged["tolerance"] < 1.0:
        raise InvalidParamsError(f"tolerance must lie in (0, 1), got {merged['tolerance']}")
    return merged


def _check_protocol(name) -> str:
    if name not in PROTOCOLS:
        raise InvalidParamsError(f"--protocol must be one of {sorted(PROTOCOLS)}, got {name!r}")
    return name


def _grid(cfg: dict, protocol: str):
    """Yield the (n, r_or_b) points of the configured grid for one protocol."""
    for n in _parse_nodes(cfg["nodes"]):
        if PROTOCOLS[protocol][0] == "r":
            values = _parse_int_list(cfg["requests"], "requests")
        else:
            values = _blocks_for(n, cfg["blocks"])
        for v in values:
            yield n, v


def _point_rows(cfg: dict, cache: _SimCache, protocol: str, metric: str, n: int, v: int | None) -> list[Row]:
    """The analytic and/or simulated rows that cfg["mode"] asks for at one point."""
    rows = []
    if cfg["mode"] in ("analytic", "both"):
        rows.append(Row(protocol, n, v, metric, "analytic", analytic_value(metric, n, v)))
    # only a protocol's headline metric has a sampler
    if cfg["mode"] in ("simulate", "both") and metric == PROTOCOLS[protocol][1]:
        est = cache.estimate(protocol, metric, n, v)
        rows.append(Row(protocol, n, v, metric, "simulated", est.point_estimate, est.ci_low, est.ci_high,
                        est.trials, cfg["seed"]))
    return rows


def cmd_model(cfg: dict) -> int:
    protocol = _check_protocol(cfg.get("protocol"))
    nodes = _parse_nodes(cfg["nodes"])
    if len(nodes) != 1:
        raise InvalidParamsError("model needs exactly one --nodes value")
    n = nodes[0]
    if PROTOCOLS[protocol][0] == "r":
        # every line is computed before any is printed, so an error leaves stdout empty
        lines = [f"{protocol}_degrade = {_fmt(analytic_value(f'{protocol}_degrade', n, None))}"]
        for r in _parse_int_list(cfg["requests"], "requests"):
            value = analytic_value(f"{protocol}_user_degrade", n, r)
            lines.append(f"{protocol}_user_degrade[r={r}] = {_fmt(value)}")
        print("\n".join(lines))
        return 0
    metrics = _BLOCK_METRICS if protocol == "regen-block" else [PROTOCOLS[protocol][1]]
    for b in _blocks_for(n, cfg["blocks"]):
        regen = RegenParams(n, b)
        print(f"regen_load[b={b}] = {_fmt(model.regen_load(regen))}")
        print(f"slow_dest_prob[b={b}] = {_fmt(model.slow_dest_prob(regen))}")
        for metric in metrics:
            print(f"{metric}[b={b}] = {_fmt(analytic_value(metric, n, b))}")
    return 0


def cmd_sweep(cfg: dict) -> int:
    protocol = _check_protocol(cfg.get("protocol"))
    if not cfg["out"]:
        raise InvalidParamsError("sweep needs --out PATH")
    metric = PROTOCOLS[protocol][1]
    cache = _SimCache(cfg)
    rows = [row for n, v in _grid(cfg, protocol) for row in _point_rows(cfg, cache, protocol, metric, n, v)]
    _write_csv(cfg["out"], rows)
    print(f"wrote {len(rows)} rows to {cfg['out']}")
    return 0


def _compare_protocols(cfg: dict) -> list[str]:
    raw = cfg.get("protocol")
    if raw is not None:
        protocols = list(dict.fromkeys(_check_protocol(p.strip()) for p in raw.split(",") if p.strip()))
        if not protocols:
            raise InvalidParamsError(f"empty protocol list {raw!r}")
        return protocols
    if cfg["sim"] == "protocol":
        # the closed form for "at least one degraded block" assumes blocks
        # degrade independently; full protocol replays expose that assumption,
        # so the any-block metric is not gated by default in protocol mode
        return ["read", "write", "regen-node", "regen-cluster", "regen-block"]
    return list(PROTOCOLS)


def cmd_compare(cfg: dict) -> int:
    protocols = _compare_protocols(cfg)
    cache = _SimCache(cfg)
    both = {**cfg, "mode": "both"}
    tolerance = cfg["tolerance"]
    rows: list[Row] = []
    lines: list[str] = []
    failures = beyond = 0
    for protocol in protocols:
        metric = PROTOCOLS[protocol][1]
        for n, v in _grid(cfg, protocol):
            analytic, simulated = _point_rows(both, cache, protocol, metric, n, v)
            gap = abs(analytic.value - simulated.value)
            if simulated.trials == 0:
                # nothing was observed (e.g. no block was lost), so the [0, 1] CI proves nothing
                status = "no-observations"
            else:
                status = "ok" if gap <= tolerance or simulated.ci_low <= analytic.value <= simulated.ci_high else "FAIL"
            failures += status != "ok"
            beyond += status == "FAIL"
            lines.append(
                f"{protocol:<16}{n:>5}{v:>8}  {metric:<20}{analytic.value:>12.6g}{simulated.value:>12.6g}"
                f"{gap:>10.2g}  {status}"
            )
            rows += (analytic, simulated)
    header = f"{'protocol':<16}{'n':>5}{'r_or_b':>8}  {'metric':<20}{'analytic':>12}{'estimate':>12}{'gap':>10}  status"
    print("\n".join([header, "-" * len(header), *lines]))
    verdict = "all within tolerance" if beyond == 0 else f"{beyond} point(s) beyond tolerance"
    if failures > beyond:
        verdict = f"{failures - beyond} point(s) without observations, {verdict}"
    print(f"compare: {len(lines) - failures}/{len(lines)} ok ({verdict} {tolerance:g}, sim={cfg['sim']}, trials={cfg['trials']})")
    if cfg["out"]:
        _write_csv(cfg["out"], rows)
        print(f"wrote {len(rows)} rows to {cfg['out']}")
    return 1 if failures else 0


def _figure_panels(cfg: dict, figures: list[str]) -> dict[str, list[Row]]:
    """Every panel's rows for the given figures, with one sampler cache for all of them."""
    nodes = _parse_nodes(cfg["nodes"])
    requests = _parse_int_list(cfg["requests"], "requests")
    cache = _SimCache(cfg)
    panels: dict[str, list[Row]] = {}

    def add(panel: str, protocol: str, metric: str, n: int, v: int | None):
        panels.setdefault(panel, []).extend(_point_rows(cfg, cache, protocol, metric, n, v))

    for figure in figures:
        if figure in ("read", "write"):
            user_requests = sorted({*requests, _WRITE_R_ANCHOR} if figure == "write" else requests)
            for n in nodes:
                add(f"{figure}_request_prob", figure, f"{figure}_degrade", n, None)
                for r in user_requests:
                    add(f"{figure}_user_prob", figure, f"{figure}_user_degrade", n, r)
            continue
        if figure not in _FIGURES:
            raise InvalidParamsError(f"unknown figure {figure!r}")
        points = [(n, b) for n in nodes for b in _blocks_for(n, cfg["blocks"], _FIGURE_BLOCK_FACTORS)]
        if _FIGURE_ANCHOR not in points:
            points.append(_FIGURE_ANCHOR)
        for n, b in points:
            if figure == "node-cluster":
                add("node_degrade_prob", "regen-node", NODE_DEGRADE, n, b)
                add("cluster_degrade_prob", "regen-cluster", CLUSTER_DEGRADE, n, b)
            else:
                for metric in _BLOCK_METRICS:
                    add("block_degrade_prob", "regen-block", metric, n, b)
                add("any_block_degrade_prob", "regen-any-block", ANY_BLOCK_DEGRADE, n, b)
    return panels


def cmd_figures(cfg: dict) -> int:
    out_dir = cfg["out"]
    if not out_dir:
        raise InvalidParamsError("figures needs --out DIR")
    figure = cfg.get("figure") or "all"
    panels = _figure_panels(cfg, list(_FIGURES) if figure == "all" else [figure])
    # a failing panel has raised by now, so an error writes no file
    os.makedirs(out_dir, exist_ok=True)
    paths = {panel: os.path.join(out_dir, f"{panel}.csv") for panel in panels}
    for panel, rows in panels.items():
        _write_csv(paths[panel], rows)
    print("\n".join(f"wrote {path}" for path in paths.values()))
    return 0


_FLAG_HELP = {
    "protocol": f"one of {', '.join(PROTOCOLS)} (compare: comma list)",
    "figure": f"one of {', '.join(_FIGURES)}, all (default all)",
    "nodes": "cluster sizes, e.g. 30 or 10..100:10 or 10,30,50",
    "requests": "comma list of request counts r",
    "blocks": "comma list of lost-block counts b (default: (n-1)*{1,10,50})",
    "trials": "Monte Carlo trials per point",
    "seed": "64-bit master seed",
    "mode": "analytic, simulate or both",
    "tolerance": "absolute gap gate",
    "workers": "parallel trial workers, at most the CPU count (results identical)",
    "sim": "regen simulator flavor: assumption or protocol",
    "out": "output CSV path (sweep/compare) or directory (figures)",
}

_RUN_FLAGS = "nodes requests blocks trials seed workers sim"
# subcommand -> (handler, help, the flags it reads besides --config and --show-config, its own defaults)
_COMMANDS = {
    "model": (cmd_model, "evaluate the closed forms at one point", "protocol nodes requests blocks", {}),
    "sweep": (cmd_sweep, "sweep a grid and write a CSV dataset", f"protocol {_RUN_FLAGS} mode out", {}),
    "compare": (
        cmd_compare, "gate simulated estimates against the closed forms", f"protocol {_RUN_FLAGS} tolerance out",
        {"nodes": "10,30,50", "requests": "1,10,100"},
    ),
    "figures": (cmd_figures, "write the canonical curve datasets", f"figure {_RUN_FLAGS} mode out", {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limpprob",
        description="Degraded read/write/regeneration probabilities for a replicated "
        "storage cluster with one slow node.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            command.add_argument(f"--{flag}", help=_FLAG_HELP[flag])
        command.add_argument("--config", help="JSON config file; command-line flags win")
        command.add_argument("--show-config", action="store_true", help="print effective config and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, _, command_defaults = _COMMANDS[args.command]
    try:
        cfg = _effective(args, command_defaults)
        if args.show_config:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return 0
        return handler(cfg)
    except InvalidParamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
