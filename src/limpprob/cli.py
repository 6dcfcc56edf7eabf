"""Command-line front end: parameter sweeps, figure datasets, and the
analytic-vs-simulation comparison gate.

Subcommands (``_COMMANDS`` holds each one's handler, help and flags):

* ``model``    - evaluate the closed forms at a single parameter point
* ``sweep``    - sweep a parameter grid, write one CSV dataset
* ``compare``  - run analytic and simulated estimators on a grid and gate the
  absolute gap; exit code 1 when any point fails, including a point whose
  estimate rests on no observations (status ``no-observations``)
* ``figures``  - write the canonical curve datasets, one CSV per panel; no
  panel is renamed into place before every panel is complete

A subcommand takes only the flags it reads; each flag is a config key with one
``_FLAGS`` row.  ``_effective`` converts and checks every key, whichever command
reads it (a bad ``--blocks`` fails ``sweep --protocol read``, and a config's
unknown ``protocol`` fails ``figures``).  It keeps ``protocol`` as a comma list of
known names, each once and stripped (``model`` and ``sweep`` take exactly one),
and turns the grid keys into ascending int lists, or a node range into a
``range``: a node range holds at most 1,000,000 values and a grid value is at
most 2**53.  ``--show-config`` prints those normalised values.

Every command walks its grid once, through ``_records``: a lazy stream of
records (panel, protocol, n, r_or_b, metric, source, value), one per closed
form (the ``_ANALYTIC`` table) or sampler estimate (``_estimates``), in the
command's walk order, which is CSV order for every CSV.  ``sweep``, ``figures``
and ``compare --out`` write them through ``_csv_row``, ``model`` prints them,
and ``compare`` judges each simulated record against the analytic one before
it.  A read or write sampler runs once per (protocol, n) column of r values,
and one regeneration run serves every regeneration protocol at its (n, b).  A
run is dropped when the next one starts, unless a later protocol of the walk
reads it (``compare``'s regeneration protocols share their points), so no
estimate outlives its column or regeneration point.
``main`` ignores ``LowLoadWarning`` once around the handler, since grids reach
low loads on purpose, and restores the warning filters on return.

A process imports only what its command runs.  Only a sampler run imports numpy
(through :mod:`limpprob.trials`), and ``_estimates`` sets
``OPENBLAS_NUM_THREADS=1`` first, unless it is set, since no sampler calls BLAS;
json loads only to read ``--config`` or print ``--show-config``, and tempfile only
to write files; the package root loads :mod:`limpprob.oracle` (fractions,
decimal) on first use; and the records are :class:`limpprob.params.Record`
subclasses, not dataclasses.  So ``model``, ``--mode analytic`` and ``--help``
start without numpy, ``dataclasses``, ``inspect``, ``fractions``, ``decimal`` or
``json``, and ``model`` and ``--help`` without ``tempfile``.  A process also skips
the interpreter's final collections: :func:`entry`, behind the ``limpprob`` script
and ``python -m limpprob.cli``, freezes the collector once ``main`` returns, which
saves about 6 ms of teardown per analytic process and 15 ms per sampler process;
``main`` itself never freezes.

Exit codes: 0 success, 1 comparison failure (beyond tolerance or no
observations), 2 usage/config error.

CSV schema (exact column order)::

    protocol,n,r_or_b,metric,source,value,ci_low,ci_high,trials,seed

Analytic rows leave ci_low/ci_high/trials/seed empty; values carry 12
significant digits; rows come in (protocol, n, r_or_b, source, metric) order
because each command walks its ascending grid lists in that order (``_grid``),
``compare`` with its protocols sorted; its table keeps the ``--protocol`` order.
``_write_csvs`` streams one walk of (path, row) pairs into a temp file per path
and renames those only once the walk is complete: flat memory, and no file on
error.  So an unwritable ``--out`` fails before the walk starts.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import itertools
import operator
import os
import sys
import warnings

from . import model
from .errors import InvalidParamsError, LowLoadWarning
from .model import (
    ANY_BLOCK_DEGRADE,
    BLOCK_DEGRADE,
    CLUSTER_DEGRADE,
    NODE_DEGRADE,
    READ_USER_DEGRADE,
    WRITE_USER_DEGRADE,
)
from .params import ClusterParams, RegenParams, WorkloadParams
from .stats import EstimateSummary

CSV_HEADER = "protocol,n,r_or_b,metric,source,value,ci_low,ci_high,trials,seed"
CSV_COMMENT = (
    "# r_or_b: r = requests per operation period (period semantics are user-defined); "
    "b = blocks lost with the crashed node"
)

# protocol -> (parameter kind, headline metric)
PROTOCOLS = {
    "read": ("r", READ_USER_DEGRADE),
    "write": ("r", WRITE_USER_DEGRADE),
    "regen-node": ("b", NODE_DEGRADE),
    "regen-cluster": ("b", CLUSTER_DEGRADE),
    "regen-block": ("b", BLOCK_DEGRADE),
    "regen-any-block": ("b", ANY_BLOCK_DEGRADE),
}

_BLOCK_FACTORS = (1, 10, 50)
_FIGURE_BLOCK_FACTORS = (1, 5, 10, 50)
_FIGURE_ANCHOR = (100, (3200,))  # the 20%-full 1TB node data point, as a grid column
_WRITE_R_ANCHOR = 40  # with n=50 this is the one-slow-write-per-40-requests point
# regeneration figure -> its protocols, one panel each
_REGEN_FIGURES = {"node-cluster": ("regen-node", "regen-cluster"), "block": ("regen-block", "regen-any-block")}
_FIGURES = ("read", "write", *_REGEN_FIGURES)

# flag (and config key) -> (default, help)
_FLAGS = {
    "protocol": (None, f"one of {', '.join(PROTOCOLS)} (compare: comma list)"),
    "figure": (None, f"one of {', '.join(_FIGURES)}, all (default all)"),
    "nodes": ("10..100:10", "cluster sizes, e.g. 30 or 10..100:10 or 10,30,50"),
    "requests": ("1,10,100,1000", "comma list of request counts r"),
    "blocks": (None, "comma list of lost-block counts b (default: (n-1)*{1,10,50})"),
    "trials": (100_000, "Monte Carlo trials per point"),
    "seed": (42, "64-bit master seed"),
    "mode": ("analytic", "analytic, simulate or both"),
    "tolerance": (0.02, "absolute gap gate"),
    "workers": (1, "parallel trial workers, at most one per usable CPU and 2**20 stream positions (results identical)"),
    "sim": ("assumption", "regen simulator flavor: assumption or protocol"),
    "out": (None, "output CSV path (sweep/compare) or directory (figures)"),
}
# regen-block's metrics, in the order `model` prints them
_BLOCK_METRICS = ("block_degrade_both", "block_degrade_one_slow", BLOCK_DEGRADE)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _breakdown(n: int, b: int) -> model.BlockDegradeBreakdown:
    return model.block_degrade_breakdown(RegenParams(n, b))


# name -> closed form of (n, v), where v is r or b depending on the name: every CSV metric, and the
# regeneration load and slow-destination probability that `model` also prints
_ANALYTIC = {
    "read_degrade": lambda n, r: model.read_degrade_prob(ClusterParams(n)),
    "read_user_degrade": lambda n, r: model.read_user_degrade_prob(ClusterParams(n), WorkloadParams(r)),
    "write_degrade": lambda n, r: model.write_degrade_prob(ClusterParams(n)),
    "write_user_degrade": lambda n, r: model.write_user_degrade_prob(ClusterParams(n), WorkloadParams(r)),
    "regen_load": lambda n, b: model.regen_load(RegenParams(n, b)),
    "slow_dest_prob": lambda n, b: model.slow_dest_prob(RegenParams(n, b)),
    NODE_DEGRADE: lambda n, b: model.node_degrade_prob(RegenParams(n, b)),
    CLUSTER_DEGRADE: lambda n, b: model.cluster_degrade_prob(RegenParams(n, b)),
    BLOCK_DEGRADE: lambda n, b: _breakdown(n, b).total,
    "block_degrade_both": lambda n, b: _breakdown(n, b).both_on_degraded,
    "block_degrade_one_slow": lambda n, b: _breakdown(n, b).one_on_slow,
    ANY_BLOCK_DEGRADE: lambda n, b: model.any_block_degrade_prob(RegenParams(n, b)),
}


def _regen_b_total(n: int, b: int) -> int:
    """Cluster-wide block count whose crashed node holds b blocks on average."""
    return max(1, round(b * n / 3))


def _kind(protocol: str) -> str:
    """A sampler run's kind: the protocol for read and write, "regen" for every regeneration protocol."""
    return protocol if PROTOCOLS[protocol][0] == "r" else "regen"


def _estimates(cfg: dict, protocol: str, n: int, v: int, column) -> dict[int, dict[str, EstimateSummary]]:
    """Sampler estimates by r_or_b: read and write give their headline metric at every r of column, the r values
    of n that hold v, from one walk; regeneration gives all four of its own metrics at v."""
    # numpy loads with the first sampler run; no sampler calls BLAS, so start no OpenBLAS thread pool
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import trials

    run_args = (cfg["trials"], cfg["seed"], cfg["workers"])
    if PROTOCOLS[protocol][0] == "r":
        estimates = trials._run_rw_column(protocol, n, column, *run_args)
        return {r: {PROTOCOLS[protocol][1]: est} for r, est in zip(column, estimates)}
    if cfg["sim"] == "protocol":
        return {v: trials.run_protocol_trials(n, _regen_b_total(n, v), *run_args)}
    return {v: trials.run_assumption_trials(RegenParams(n, v), *run_args)}


def _records(cfg: dict, walk: list, mode: str):
    """Lazily yield the records (panel, protocol, n, v, metric, source, value) of walk, a list of (columns, panels)
    steps, in its order.  At each v of each column (n, its ascending v values), every (panel, protocol, metrics) of
    the step yields, as mode asks, an analytic record per metric, in the given order, then a simulated record of the
    protocol's headline metric, when metrics hold it, whose value is an EstimateSummary.  Starting a sampler run
    drops the runs before it, unless a later step reads their kind (compare's regeneration protocols share points)."""
    runs: dict = {}  # (kind, n, v) -> that point's estimates by metric
    for index, (columns, panels) in enumerate(walk):
        later = {_kind(protocol) for _, step in walk[index + 1:] for _, protocol, _ in step}
        for n, values in columns:
            for v in values:
                for panel, protocol, metrics in panels:
                    if mode != "simulate":
                        for metric in metrics:
                            yield panel, protocol, n, v, metric, "analytic", _ANALYTIC[metric](n, v)
                    headline = PROTOCOLS[protocol][1]
                    if mode != "analytic" and headline in metrics:
                        kind = _kind(protocol)
                        if (kind, n, v) not in runs:
                            if kind not in later:
                                runs.clear()
                            estimates = _estimates(cfg, protocol, n, v, values)
                            runs.update(((kind, n, w), est) for w, est in estimates.items())
                        yield panel, protocol, n, v, headline, "simulated", runs[kind, n, v][headline]


def _csv_row(record, seed: int) -> str:
    """A record's CSV line; an analytic row leaves ci_low, ci_high, trials and seed empty."""
    _, protocol, n, v, metric, source, value = record
    key = f"{protocol},{n},{'' if v is None else v},{metric},{source}"
    if source == "analytic":
        return f"{key},{_fmt(value)},,,,"
    return f"{key},{_fmt(value.point_estimate)},{_fmt(value.ci_low)},{_fmt(value.ci_high)},{value.trials},{seed}"


def _write_csvs(paths: list[str], lines) -> dict[str, int]:
    """Stream the (path, row) pairs of lines into one temp file beside each of paths, and rename them all once
    the stream ends; an error unlinks every temp file.  Returns each path's row count."""
    import tempfile  # only the commands that write files need it

    umask = os.umask(0)  # os.umask only reads by setting; the CLI writes from one thread
    os.umask(umask)
    temps: list[str] = []
    handles: dict = {}
    counts = dict.fromkeys(paths, 0)
    try:
        for path in paths:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".limpprob-", suffix=".tmp")
            temps.append(tmp)
            handles[path] = handle = os.fdopen(fd, "w", newline="")
            # mkstemp makes the file 0600; give it the mode open() would have
            os.chmod(tmp, 0o666 & ~umask)
            handle.write(f"{CSV_COMMENT}\n{CSV_HEADER}\n")
        for path, row in lines:
            handles[path].write(f"{row}\n")
            counts[path] += 1
        for handle in handles.values():
            handle.close()
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException:
        for handle in handles.values():
            handle.close()
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
    return counts


def _write_csv(path: str, rows) -> int:
    """_write_csvs for one path; returns its row count."""
    return _write_csvs([path], ((path, row) for row in rows))[path]


def _parse_grid(key: str, text) -> list[int] | range:
    """A grid value as ascending ints: a number, a comma list 'A,B,C' or a JSON list, sorted with a repeated value
    kept once; nodes also take a range 'A..B:S' or 'A..B', kept as a range so that it costs no memory per value."""
    if key == "nodes" and isinstance(text, str) and ".." in text:
        span, _, stride_s = text.strip().partition(":")
        lo_s, _, hi_s = span.partition("..")
        lo, hi = _grid_value("nodes", lo_s), _grid_value("nodes", hi_s)
        stride = _integer("nodes", stride_s) if stride_s else 1
        if stride < 1 or hi < lo:
            raise InvalidParamsError(f"bad node range {text!r}")
        nodes = range(lo, hi + 1, stride)
        if len(nodes) > 1_000_000:
            raise InvalidParamsError(f"node range {text!r} holds {len(nodes)} values, more than 1000000")
        return nodes
    if isinstance(text, str):
        parts = [p for p in text.split(",") if p.strip()]
    else:  # a JSON number is one element, as in a list
        parts = text if isinstance(text, list) else [text]
    values = sorted({_grid_value(key, v) for v in parts})
    if not values:
        raise InvalidParamsError(f"empty {key} list {text!r}")
    return values


class _ConfigError(Exception):
    """A config file that is not UTF-8 or not JSON."""


def _load_config(path: str) -> dict:
    import json  # only --config reads JSON

    with open(path) as handle:
        try:
            config = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _ConfigError(exc) from exc
    if not isinstance(config, dict):
        raise InvalidParamsError(f"config {path!r} must hold a JSON object")
    unknown = set(config) - set(_FLAGS)
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


def _grid_value(key: str, value) -> int:
    """One grid value: an integer in 0..2**53, which the closed forms' float64 arithmetic holds exactly."""
    number = _integer(key, value)
    if not 0 <= number <= 2**53:
        raise InvalidParamsError(f"{key} values must lie in 0..2**53, got {number}")
    return number


def _effective(args: argparse.Namespace, command_defaults: dict) -> dict:
    """Merge CLI > config file > defaults, then convert and check every value, whichever command reads it."""
    config = _load_config(args.config) if args.config else {}
    merged = {key: config.get(key, command_defaults.get(key, default)) for key, (default, _) in _FLAGS.items()}
    merged.update((key, value) for key, value in vars(args).items() if key in _FLAGS and value is not None)
    for key in ("protocol", "figure", "mode", "sim", "out"):
        if not isinstance(merged[key], (str, type(None))):
            raise InvalidParamsError(f"{key} must be a string, got {merged[key]!r}")
    if merged["protocol"] is not None:  # a comma list, kept as one in the given order, each name once
        names = [name.strip() for name in merged["protocol"].split(",") if name.strip()]
        if not names:
            raise InvalidParamsError(f"empty protocol list {merged['protocol']!r}")
        for name in names:
            if name not in PROTOCOLS:
                raise InvalidParamsError(f"protocol must be one of {sorted(PROTOCOLS)}, got {name!r}")
        merged["protocol"] = ",".join(dict.fromkeys(names))
    for key in ("trials", "seed", "workers"):
        merged[key] = _integer(key, merged[key])
    merged["seed"] &= (1 << 64) - 1
    try:
        merged["tolerance"] = float(merged["tolerance"])
    except (TypeError, ValueError) as exc:
        raise InvalidParamsError(f"tolerance must be a number, got {merged['tolerance']!r}") from exc
    for key in ("nodes", "requests"):
        merged[key] = _parse_grid(key, merged[key])
    if merged["blocks"] is not None:  # None: (n-1) * factors at each n, see _grid
        merged["blocks"] = _parse_grid("blocks", merged["blocks"])
    if merged["mode"] not in ("analytic", "simulate", "both"):
        raise InvalidParamsError(f"bad mode {merged['mode']!r}")
    if merged["sim"] not in ("assumption", "protocol"):
        raise InvalidParamsError(f"bad sim flavor {merged['sim']!r}")
    if merged["figure"] not in (None, "all", *_FIGURES):
        raise InvalidParamsError(f"unknown figure {merged['figure']!r}")
    if merged["trials"] < 1 or merged["workers"] < 1:
        raise InvalidParamsError("trials and workers must be >= 1")
    if not 0.0 < merged["tolerance"] < 1.0:
        raise InvalidParamsError(f"tolerance must lie in (0, 1), got {merged['tolerance']}")
    return merged


def _grid(cfg: dict, protocol: str, factors=_BLOCK_FACTORS):
    """Yield the (n, its r_or_b values) columns of the configured grid for one protocol in ascending order, the
    CSV's, as _effective sorted the grid lists; b defaults to (n-1) * factors."""
    for n in cfg["nodes"]:
        if PROTOCOLS[protocol][0] == "r":
            yield n, cfg["requests"]
        else:
            yield n, cfg["blocks"] or [(n - 1) * k for k in factors]


def _metrics(protocol: str):
    """The metrics `model` and `figures` report for a protocol: its headline, or regen-block's split."""
    return _BLOCK_METRICS if protocol == "regen-block" else [PROTOCOLS[protocol][1]]


def cmd_model(cfg: dict) -> int:
    protocol = cfg["protocol"]
    if protocol not in PROTOCOLS:  # None, or a list of several
        raise InvalidParamsError(f"model needs exactly one --protocol, got {protocol!r}")
    if len(cfg["nodes"]) != 1:
        raise InvalidParamsError("model needs exactly one --nodes value")
    kind = PROTOCOLS[protocol][0]
    if kind == "r":  # the per-request probability opens, at v = None
        walk = [([(cfg["nodes"][0], [None])], [(None, protocol, [f"{protocol}_degrade"])]),
                (_grid(cfg, protocol), [(None, protocol, _metrics(protocol))])]
    else:  # every b starts with its load and slow-destination probability
        walk = [(_grid(cfg, protocol), [(None, protocol, ["regen_load", "slow_dest_prob", *_metrics(protocol)])])]
    # every line is computed before any is printed, so an error leaves stdout empty
    lines = [f"{metric}{'' if v is None else f'[{kind}={v}]'} = {_fmt(value)}"
             for _, _, _, v, metric, _, value in _records(cfg, walk, "analytic")]
    print("\n".join(lines))
    return 0


def cmd_sweep(cfg: dict) -> int:
    protocol = cfg["protocol"]
    if protocol not in PROTOCOLS:  # None, or a list of several
        raise InvalidParamsError(f"sweep needs exactly one --protocol, got {protocol!r}")
    if not cfg["out"]:
        raise InvalidParamsError("sweep needs --out PATH")
    walk = [(_grid(cfg, protocol), [(None, protocol, [PROTOCOLS[protocol][1]])])]
    rows = map(_csv_row, _records(cfg, walk, cfg["mode"]), itertools.repeat(cfg["seed"]))
    print(f"wrote {_write_csv(cfg['out'], rows)} rows to {cfg['out']}")
    return 0


def cmd_compare(cfg: dict) -> int:
    if cfg["protocol"] is not None:
        protocols = cfg["protocol"].split(",")
    else:
        # the any-block closed form assumes blocks degrade independently, which full protocol
        # replays do not, so protocol mode leaves regen-any-block out of its default gate
        protocols = [p for p in PROTOCOLS if cfg["sim"] != "protocol" or p != "regen-any-block"]
    tolerance = cfg["tolerance"]
    tables: dict[str, list[str]] = {protocol: [] for protocol in protocols}  # the table keeps the --protocol order
    statuses = dict.fromkeys(("ok", "FAIL", "no-observations"), 0)

    def judged(records):
        """records, giving each simulated one its status and table line; its analytic record comes just before."""
        for record in records:
            _, protocol, n, v, metric, source, value = record
            if source == "analytic":
                analytic = value
            else:
                gap = abs(analytic - value.point_estimate)
                if value.trials == 0:
                    # nothing was observed (e.g. no block was lost), so the [0, 1] CI proves nothing
                    status = "no-observations"
                else:
                    status = "ok" if gap <= tolerance or value.ci_low <= analytic <= value.ci_high else "FAIL"
                statuses[status] += 1
                tables[protocol].append(
                    f"{protocol:<16}{n:>5} {v:>7}  {metric:<20}{analytic:>12.6g}{value.point_estimate:>12.6g}"
                    f"{gap:>10.2g}  {status}"
                )
            yield record

    # one walk in CSV order: the CSV holds both rows of every table point.  It is written before anything is
    # printed, so a stdout that closes early (`| head -1`) still leaves the file
    walk = [(_grid(cfg, protocol), [(None, protocol, [PROTOCOLS[protocol][1]])]) for protocol in sorted(protocols)]
    records = judged(_records(cfg, walk, "both"))
    if cfg["out"]:
        written = _write_csv(cfg["out"], map(_csv_row, records, itertools.repeat(cfg["seed"])))
    else:
        for _ in records:
            pass
    lines = [line for protocol in protocols for line in tables[protocol]]
    failures, beyond = len(lines) - statuses["ok"], statuses["FAIL"]
    header = f"{'protocol':<16}{'n':>5} {'r_or_b':>7}  {'metric':<20}{'analytic':>12}{'estimate':>12}{'gap':>10}  status"
    print("\n".join([header, "-" * len(header), *lines]))
    verdict = "all within tolerance" if beyond == 0 else f"{beyond} point(s) beyond tolerance"
    if failures > beyond:
        verdict = f"{failures - beyond} point(s) without observations, {verdict}"
    print(f"compare: {len(lines) - failures}/{len(lines)} ok ({verdict} {tolerance:g}, sim={cfg['sim']}, trials={cfg['trials']})")
    if cfg["out"]:
        print(f"wrote {written} rows to {cfg['out']}")
    return 1 if failures else 0


def cmd_figures(cfg: dict) -> int:
    out_dir = cfg["out"]
    if not out_dir:
        raise InvalidParamsError("figures needs --out DIR")
    figures = _FIGURES if cfg["figure"] in (None, "all") else [cfg["figure"]]
    walk = []  # a read or write point occurs in one panel only, so each of those panels is a step of its own
    for figure in (f for f in figures if f not in _REGEN_FIGURES):
        requests = sorted({*cfg["requests"], _WRITE_R_ANCHOR}) if figure == "write" else cfg["requests"]
        for panel, metric, values in (("request", "degrade", [None]), ("user", "user_degrade", requests)):
            step = [(f"{figure}_{panel}_prob", figure, [f"{figure}_{metric}"])]
            walk.append((zip(cfg["nodes"], itertools.repeat(values)), step))
    # the regeneration panels are one step over their shared points, (n, (n-1)k) and the (100, 3200) anchor, so
    # each point's one sampler run serves its rows in every panel
    regen = [(f"{PROTOCOLS[p][1]}_prob", p, sorted(_metrics(p))) for f in figures for p in _REGEN_FIGURES.get(f, ())]
    if regen:
        first = operator.itemgetter(0)
        merged = heapq.merge(_grid(cfg, "regen-block", _FIGURE_BLOCK_FACTORS), [_FIGURE_ANCHOR], key=first)
        columns = itertools.groupby(merged, key=first)  # the anchor's n may be a grid column already
        walk.append((((n, sorted({v for _, values in same_n for v in values})) for n, same_n in columns), regen))
    paths = {panel: os.path.join(out_dir, f"{panel}.csv") for _, panels in walk for panel, _, _ in panels}
    created, parent = [], os.path.abspath(out_dir)  # the directories makedirs makes, deepest first
    while not os.path.exists(parent):
        created.append(parent)
        parent = os.path.dirname(parent)
    os.makedirs(out_dir, exist_ok=True)
    rows = ((paths[record[0]], _csv_row(record, cfg["seed"])) for record in _records(cfg, walk, cfg["mode"]))
    try:
        _write_csvs(list(paths.values()), rows)
    except BaseException:
        # an error leaves no file, and no directory that this run made
        for directory in created:
            os.rmdir(directory)
        raise
    print("\n".join(f"wrote {path}" for path in paths.values()))
    return 0


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
            command.add_argument(f"--{flag}", help=_FLAGS[flag][1])
        command.add_argument("--config", help="JSON config file; command-line flags win")
        command.add_argument("--show-config", action="store_true", help="print effective config and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, _, command_defaults = _COMMANDS[args.command]
    try:
        cfg = _effective(args, command_defaults)
        if args.show_config:
            import json

            print(json.dumps(cfg, indent=2, sort_keys=True, default=list))  # a node range prints as its list
            return 0
        with warnings.catch_warnings():
            # grids deliberately cover low-load points; the closed forms keep the warning for library callers
            warnings.simplefilter("ignore", LowLoadWarning)
            return handler(cfg)
    except InvalidParamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except _ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The process entry point, of the `limpprob` script and of `python -m limpprob.cli`: main(sys.argv[1:]), then
    exit with its code, skipping the interpreter's final cyclic collections."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    # gc.freeze() moves every live object to the permanent generation, so the collections at exit walk none of the
    # module objects, and the OS reclaims their memory: on a 2-vCPU Xeon the teardown of an analytic command takes
    # 2.5 ms in place of 8.5, and that of a sampler command, with numpy loaded, 5 ms in place of 20.  atexit
    # handlers and the flush of stdout and stderr still run.  No output waits on the finalizer of a frozen cycle:
    # _write_csvs closes every file it writes (and unlinks it on error), and --config's file and the samplers'
    # thread pool are used under `with`.  main itself never freezes, for library callers and tests.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
