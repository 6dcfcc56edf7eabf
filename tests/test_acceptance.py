"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are the contract, pinned here; the Monte Carlo
gates use fixed master seeds so every run is reproducible.
"""

import math
import time
from fractions import Fraction

from limpprob import (
    ANY_BLOCK_DEGRADE,
    BLOCK_DEGRADE,
    CLUSTER_DEGRADE,
    NODE_DEGRADE,
    ClusterParams,
    RegenParams,
    WorkloadParams,
    any_block_degrade_prob,
    block_degrade_breakdown,
    cluster_degrade_prob,
    enum_read_prob,
    enum_slow_dest_prob,
    enum_write_prob,
    node_degrade_prob,
    read_degrade_prob,
    read_user_degrade_prob,
    run_assumption_trials,
    run_protocol_trials,
    slow_dest_prob,
    write_degrade_prob,
    write_user_degrade_prob,
)
from limpprob.cli import main
from limpprob.model import _binomial_window, assumption_targets

SEED = 20240917


def _report(criterion: str, failures: list, started: float, budget_s: float):
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < budget_s
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert not failures, f"{criterion}: {failures[:5]}"
    assert elapsed < budget_s, f"{criterion}: took {elapsed:.2f}s, budget {budget_s}s"


def _band(analytic: float, observations: int) -> float:
    return 4.0 * math.sqrt(analytic * (1.0 - analytic) / observations)


def test_criterion_1_exact_oracle_equality():
    started = time.perf_counter()
    failures = []
    for n in range(4, 17):
        if enum_read_prob(n) != Fraction(1, n):
            failures.append(("read", n))
        if enum_write_prob(n) != Fraction(3, n):
            failures.append(("write", n))
        read = read_degrade_prob(ClusterParams(n))
        write = write_degrade_prob(ClusterParams(n))
        if abs(read - float(enum_read_prob(n))) > math.ulp(read):
            failures.append(("read-ulp", n))
        if abs(write - float(enum_write_prob(n))) > math.ulp(write):
            failures.append(("write-ulp", n))
        if n >= 5:
            if enum_slow_dest_prob(n) != Fraction(1, n - 2):
                failures.append(("slow-dest", n))
            dest = slow_dest_prob(RegenParams(n, 1))
            if abs(dest - float(enum_slow_dest_prob(n))) > math.ulp(dest):
                failures.append(("slow-dest-ulp", n))
    _report("criterion 1 (exact-oracle equality)", failures, started, budget_s=1.0)


def test_criterion_2_write_claim():
    started = time.perf_counter()
    value = write_user_degrade_prob(ClusterParams(50), WorkloadParams(40))
    failures = [] if (0.9158 <= value <= 0.9160 and value >= 0.9) else [value]
    _report("criterion 2 (one slow write per 40 requests at n=50)", failures, started, budget_s=1.0)


def test_criterion_3_block_claim():
    started = time.perf_counter()
    value = any_block_degrade_prob(RegenParams(100, 3200))
    failures = [] if value >= 0.99 else [value]
    _report("criterion 3 (3200-block crash degrades a block)", failures, started, budget_s=1.0)


def test_criterion_4_moment_identity_oracle():
    started = time.perf_counter()
    failures = []
    for n in (5, 10, 30, 50, 100, 150):
        for b in (n - 1, 10 * (n - 1), 50 * (n - 1), 3200):
            params = RegenParams(n, b)
            split = block_degrade_breakdown(params)
            p_node = node_degrade_prob(params)
            pairs = math.comb(n - 1, 2)
            want_both = math.comb(n - 2, 2) * p_node * p_node / pairs
            want_slow = (n - 2) * p_node / pairs
            for got, want, tag in (
                (split.both_on_degraded, want_both, "both"),
                (split.one_on_slow, want_slow, "slow"),
            ):
                if want == 0.0:
                    if got != 0.0:
                        failures.append((tag, n, b, got))
                elif abs(got - want) / want > 1e-10:
                    failures.append((tag, n, b, abs(got - want) / want))
    _report("criterion 4 (factorial-moment identities, 1e-10 rel)", failures, started, budget_s=1.0)


def test_criterion_5_assumption_faithful_convergence():
    started = time.perf_counter()
    trials = 100_000
    failures = []

    def check(n, b, targets):
        estimates = run_assumption_trials(RegenParams(n, b), trials, master_seed=SEED)
        for metric, want in targets.items():
            # node_degrade averages trials * (n-2) node observations
            band = _band(want, estimates[metric].trials)
            gap = abs(estimates[metric].point_estimate - want)
            if gap > band:
                failures.append((n, b, metric, gap, band))

    for n in (10, 30, 50):
        for b in (n - 1, 10 * (n - 1), 50 * (n - 1)):
            params = RegenParams(n, b)
            check(n, b, {
                NODE_DEGRADE: node_degrade_prob(params),
                CLUSTER_DEGRADE: cluster_degrade_prob(params),
                BLOCK_DEGRADE: block_degrade_breakdown(params).total,
                ANY_BLOCK_DEGRADE: any_block_degrade_prob(params),
            })
    # the near-certain cluster-degrade anchor
    check(10, 500, {CLUSTER_DEGRADE: cluster_degrade_prob(RegenParams(10, 500))})
    # fractional load m = b/(n-1): the sampler's own law, at node probability q,
    # not the real-exponent closed forms (node 0.00868 vs 0.00702 at n=10, b=14);
    # (5, 13) has a visible cluster value, 0.026
    for n, b in ((5, 13), (10, 14), (10, 50), (30, 100)):
        check(n, b, assumption_targets(RegenParams(n, b)))
    _report("criterion 5 (assumption-faithful 4-sigma convergence)", failures, started, budget_s=120.0)


def test_criterion_6_protocol_faithful_agreement():
    started = time.perf_counter()
    trials = 10_000
    tolerance = 0.05
    failures = []
    for n in (10, 30):
        b = 10 * (n - 1)
        params = RegenParams(n, b)
        analytic = {
            NODE_DEGRADE: node_degrade_prob(params),
            CLUSTER_DEGRADE: cluster_degrade_prob(params),
            BLOCK_DEGRADE: block_degrade_breakdown(params).total,
        }
        estimates = run_protocol_trials(n, round(b * n / 3), trials, master_seed=SEED)
        for metric, want in analytic.items():
            gap = abs(estimates[metric].point_estimate - want)
            if gap > tolerance:
                failures.append((n, b, metric, gap))
    _report("criterion 6 (protocol-faithful agreement within 0.05)", failures, started, budget_s=300.0)


def test_criterion_7_curve_shapes():
    started = time.perf_counter()
    failures = []
    # strictly decreasing in n for fixed requests
    for r in (1, 10, 100):
        for fn, tag in ((read_user_degrade_prob, "read"), (write_user_degrade_prob, "write")):
            values = [fn(ClusterParams(n), WorkloadParams(r)) for n in range(10, 101)]
            if not all(a > b for a, b in zip(values, values[1:])):
                failures.append(("decrease-in-n", tag, r))
    # strictly increasing in requests for fixed n (and, where the probability
    # saturates in double precision, strictly on the complement)
    for n in (10, 50, 100):
        for base, tag in ((1.0 / n, "read"), (3.0 / n, "write")):
            values = [1.0 - (1.0 - base) ** r for r in range(1, 101)]
            if not all(a < b for a, b in zip(values, values[1:])):
                failures.append(("increase-in-r", tag, n))
            complements = [math.exp(r * math.log1p(-base)) for r in (1, 10, 100, 1000)]
            if not all(a > b for a, b in zip(complements, complements[1:])):
                failures.append(("complement", tag, n))
    # cluster probability never exceeds the single-node probability
    for n in (5, 10, 30, 50, 100):
        for b in (0, n - 1, 10 * (n - 1), 50 * (n - 1)):
            params = RegenParams(n, b)
            if cluster_degrade_prob(params) > node_degrade_prob(params):
                failures.append(("cluster<=node", n, b))
    # distribution of degraded-node counts stays normalized
    for n in range(5, 151):
        for b in (0, n - 1, 10 * (n - 1), 100 * (n - 1)):
            if abs(sum(_binomial_window(n - 2, node_degrade_prob(RegenParams(n, b)))[1]) - 1.0) > 1e-12:
                failures.append(("pmf", n, b))
    _report("criterion 7 (curve shapes and normalization)", failures, started, budget_s=1.0)


def test_criterion_8_cli_determinism(tmp_path, capsys, split_calls):
    started = time.perf_counter()
    failures = []
    sweep_args = [
        "sweep", "--protocol", "regen-node", "--nodes", "10", "--blocks", "90",
        "--mode", "both", "--trials", "5000", "--seed", str(SEED),
    ]
    paths = [tmp_path / name for name in ("s1.csv", "s2.csv", "s3.csv")]
    for path, workers in zip(paths, ("1", "1", "4")):
        if main(sweep_args + ["--workers", workers, "--out", str(path)]) != 0:
            failures.append(("sweep-exit", workers))
    if paths[0].read_bytes() != paths[1].read_bytes():
        failures.append("sweep rerun differs")
    if paths[0].read_bytes() != paths[2].read_bytes():
        failures.append("sweep workers differ")

    compare_args = [
        "compare", "--protocol", "read,regen-node", "--nodes", "10", "--blocks", "90",
        "--requests", "1", "--trials", "4000", "--tolerance", "0.05", "--seed", str(SEED),
    ]
    cmp_paths = [tmp_path / name for name in ("c1.csv", "c2.csv", "c3.csv")]
    for path, workers in zip(cmp_paths, ("1", "2", "3")):
        if main(compare_args + ["--workers", workers, "--out", str(path)]) != 0:
            failures.append(("compare-exit", workers))
    if len({p.read_bytes() for p in cmp_paths}) != 1:
        failures.append("compare outputs differ")

    # the (100, 3200) anchor reads about 151 positions a trial, so its 200 trials split at this budget
    figures_args = ["figures", "--mode", "both", "--nodes", "10,20", "--trials", "200", "--seed", str(SEED)]
    fig_dirs = [tmp_path / name for name in ("f1", "f4")]
    for path, workers in zip(fig_dirs, ("1", "4")):
        if main(figures_args + ["--workers", workers, "--out", str(path)]) != 0:
            failures.append(("figures-exit", workers))
    fig_files = [{p.relative_to(d): p.read_bytes() for p in d.rglob("*.csv")} for d in fig_dirs]
    if not fig_files[0] or fig_files[0] != fig_files[1]:
        failures.append("figures outputs differ")
    capsys.readouterr()  # swallow table output so the report line stands alone
    _report("criterion 8 (byte-identical outputs across runs and workers)", failures, started, budget_s=60.0)
