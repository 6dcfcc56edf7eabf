"""Output check: compare a workload's CSVs and exit codes with the reference.

References live in ``ref/<scale>/<workload>.json.gz``, one entry per program
seed, written by ``make_refs.py`` from the commit that defined the benchmark:

    {"<program seed>": {"exit_codes": [...], "files": {"<name>.csv": "<text>"}}}

Rules, per row of every CSV (rows are sorted by the program, so row i of the
output pairs with row i of the reference):

* comment, header and analytic rows must be byte-identical;
* simulated rows must be byte-identical, or, after a declared change of the
  random-stream layout, estimate the same probability as the reference: the
  two-sample binomial z-score of the two estimates, each with its own
  observation count, must stay within ``BAND_SIGMAS``.  ``identical`` reports
  whether every simulated row was byte-identical;
* every command's exit code must equal the reference's.  `compare` exits 1
  when its gate fails (a verdict, not a failed run), so once a simulated row
  has moved, 0 and 1 may trade places; exit code 2, a crash or a timeout
  always fail.
"""

from __future__ import annotations

import gzip
import json
import math
import os
from dataclasses import dataclass, field

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")
BAND_SIGMAS = 5.0

# CSV columns (see the limpprob.cli module docstring).
_KEY_COLUMNS = 5  # protocol, n, r_or_b, metric, source
_SOURCE, _VALUE, _TRIALS, _SEED = 4, 5, 8, 9


@dataclass
class CheckResult:
    ok: bool = True
    identical: bool = True
    rows: int = 0
    csv_bytes: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.problems.append(message)


def ref_path(workload: str, scale: str) -> str:
    return os.path.join(REF_DIR, scale, f"{workload}.json.gz")


def load_reference(workload: str, scale: str, program_seed: int) -> dict:
    with gzip.open(ref_path(workload, scale), "rt", encoding="utf-8") as handle:
        return json.load(handle)[str(program_seed)]


def read_outputs(out_dir: str) -> dict[str, str]:
    """Every CSV under out_dir, by file name."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as handle:
                files[name] = handle.read()
    return files


def within_band(p1: float, n1: int, p2: float, n2: int, sigmas: float = BAND_SIGMAS) -> bool:
    """Two-sample binomial test: could both estimates share one probability?"""
    if n1 <= 0 or n2 <= 0:
        return p1 == p2
    pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
    sigma = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    if sigma == 0.0:
        return p1 == p2
    return abs(p1 - p2) <= sigmas * sigma


def _check_row(name: str, index: int, got: str, want: str, result: CheckResult) -> None:
    if got == want:
        return
    g, w = got.split(","), want.split(",")
    where = f"{name} row {index}"
    if len(g) != len(w) or g[:_KEY_COLUMNS] != w[:_KEY_COLUMNS]:
        result.fail(f"{where}: got {got!r}, want {want!r}")
        return
    if w[_SOURCE] != "simulated":
        result.fail(f"{where}: analytic row differs: got {got!r}, want {want!r}")
        return
    result.identical = False
    try:
        p1, n1 = float(w[_VALUE]), int(w[_TRIALS])
        p2, n2 = float(g[_VALUE]), int(g[_TRIALS])
    except ValueError:
        result.fail(f"{where}: unparsable simulated row {got!r}")
        return
    if g[_SEED] != w[_SEED] or not within_band(p1, n1, p2, n2):
        result.fail(f"{where}: simulated row outside the {BAND_SIGMAS:g} sigma band: got {got!r}, want {want!r}")


def compare_outputs(
    files: dict[str, str], exit_codes: list[int], reference: dict
) -> CheckResult:
    """Check produced CSV texts and exit codes against one reference entry."""
    result = CheckResult()
    want_files = reference["files"]
    if sorted(files) != sorted(want_files):
        result.fail(f"files {sorted(files)}, reference {sorted(want_files)}")
    for name in sorted(set(files) & set(want_files)):
        got_lines = files[name].split("\n")
        want_lines = want_files[name].split("\n")
        result.csv_bytes += len(files[name].encode("utf-8"))
        result.rows += sum(1 for line in got_lines[2:] if line)
        if len(got_lines) != len(want_lines) or got_lines[:2] != want_lines[:2]:
            result.fail(f"{name}: {len(got_lines)} lines or header differ from the reference's {len(want_lines)}")
            continue
        for index, (got, want) in enumerate(zip(got_lines[2:], want_lines[2:])):
            _check_row(name, index, got, want, result)
    # Moved estimates may flip a compare verdict (exit 0 <-> 1), nothing else.
    want_codes = reference["exit_codes"]
    verdicts_only = len(exit_codes) == len(want_codes) and all(
        got in (0, 1) and want in (0, 1) for got, want in zip(exit_codes, want_codes)
    )
    if exit_codes != want_codes and (result.identical or not verdicts_only):
        result.fail(f"exit codes {exit_codes}, reference {want_codes}")
    return result
