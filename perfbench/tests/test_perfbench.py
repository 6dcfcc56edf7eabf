"""Tests of the benchmark itself.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest -q perfbench/tests

The smoke runs use ``--tiny`` workloads and take about a minute in total.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _bench(workload: str, trace: int, cwd: str = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_seed_picks_the_inputs():
    out = "out"
    for name in workloads.NAMES:
        assert workloads.commands(name, 5, out) == workloads.commands(name, 5 + workloads.REF_SEEDS, out)
        assert workloads.commands(name, 5, out) != workloads.commands(name, 6, out)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_reports_every_metric(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("compare-assumption", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def _reference_and_outputs():
    reference = check.load_reference("compare-assumption", "tiny", workloads.program_seed(3))
    return reference, dict(reference["files"]), list(reference["exit_codes"])


def _perturb(text: str, source: str, change) -> str:
    """Apply change(fields) to the first data row from `source` in a CSV text."""
    lines = text.split("\n")
    for i, line in enumerate(lines[2:], start=2):
        fields = line.split(",")
        if len(fields) > 4 and fields[4] == source and 0.0 < float(fields[5]) < 1.0:
            change(fields)
            lines[i] = ",".join(fields)
            return "\n".join(lines)
    raise AssertionError(f"no {source} row with a value strictly inside (0, 1)")


def _nudge(fields):
    """Move a value by far less than its binomial error, changing its bytes."""
    fields[5] = repr(float(fields[5]) * (1 + 1e-9))


def test_check_accepts_the_reference():
    reference, files, codes = _reference_and_outputs()
    result = check.compare_outputs(files, codes, reference)
    assert result.ok and result.identical and result.rows > 0


@pytest.mark.parametrize("source", ["analytic", "simulated"])
def test_check_fails_on_one_perturbed_value(source):
    reference, files, codes = _reference_and_outputs()

    def flip(fields):
        fields[5] = repr(1.0 - float(fields[5]) if float(fields[5]) != 0.5 else 0.9)

    files["compare.csv"] = _perturb(files["compare.csv"], source, flip)
    result = check.compare_outputs(files, codes, reference)
    assert not result.ok


def test_check_tolerates_a_simulated_value_within_the_band():
    reference, files, codes = _reference_and_outputs()
    files["compare.csv"] = _perturb(files["compare.csv"], "simulated", _nudge)
    result = check.compare_outputs(files, codes, reference)
    assert result.ok and not result.identical


def test_check_fails_on_exit_code_and_missing_file():
    reference, files, codes = _reference_and_outputs()
    assert not check.compare_outputs(files, [2], reference).ok
    assert not check.compare_outputs(files, [1 - codes[0]], reference).ok
    assert not check.compare_outputs({}, codes, reference).ok


def test_moved_estimates_may_flip_the_verdict_only():
    reference, files, codes = _reference_and_outputs()
    files["compare.csv"] = _perturb(files["compare.csv"], "simulated", _nudge)
    assert check.compare_outputs(files, [1 - codes[0]], reference).ok
    assert not check.compare_outputs(files, [2], reference).ok


def test_band():
    assert check.within_band(0.10, 10_000, 0.11, 10_000)
    assert not check.within_band(0.10, 10_000, 0.15, 10_000)
    assert check.within_band(0.0, 100, 0.0, 50)
    assert not check.within_band(0.0, 100, 1e-3, 0)
