#!/usr/bin/env python3
"""CI gate for the parallel layer's perf trajectory.

Usage: check_scaling_regression.py BASELINE.json FRESH.json

Compares a fresh bench JSON artifact against its committed baseline and
fails on regressions. Three artifact families share this gate:

`bench_ablation_solvers` artifacts (BENCH_scaling.json) carry
`thread_scaling` / `budget_table_nested` / `scheduler` sections;
`bench_pool` artifacts (BENCH_pool.json) carry `pool_build` /
`snapshot` / `frontier` sections; `bench_serving` artifacts
(BENCH_serving.json) carry a `serving` section with one row per client
concurrency. Sections the baseline does not record are never demanded
of the fresh run, so one script gates all families without inventing
cross-family requirements.

For `bench_ablation_solvers` artifacts the gate fails when:

  * a solver's 4-thread speedup drops below 80% of the baseline's — but
    only for rows whose baseline actually scaled (speedup > 1.1): rows
    at or under that cutoff are indistinguishable from measurement noise
    (a 1-core baseline records ~1.0x +- a few percent) and make no
    scaling claim to defend, so they cannot flake the gate;
  * the nested budget-table improvement at 4 threads drops below 80% of a
    baseline improvement that exceeded 1.1 (same rationale);
  * the fresh run's scheduler counters show no nested regions at all —
    the budget-table rows must actually fan their inner solves out.

For `bench_pool` artifacts the gate defends two single-thread-valid
ratios, keyed by pool size `n` and filtered by the same >1.1x claim
cutoff:

  * `frontier` rows: `speedup_vs_full_scan` — the candidate-frontier
    pre-selection must keep beating the full O(N)-per-round scan;
  * `snapshot` rows: `speedup_vs_csv` — planning from an mmap-ed
    snapshot must keep beating a CSV re-parse.

Both ratios compare two code paths inside one process on one core:
bench_pool runs the frontier solve serially and pins the full scan to
`num_threads = 1`, so a multi-core runner cannot inflate the full
scan's side of the ratio. Unlike the thread-scaling gates they are
therefore NOT skipped for single-core baselines — a 1-core recorder
measures them fine. A baseline row whose
`n` is missing from the fresh artifact is skipped with a notice rather
than failed: JURY_BENCH_FAST runs legitimately drop the million-worker
rows.

For `bench_serving` artifacts the gate checks properties of the fresh
run alone, on every row not marked `fast_run`: the warm phase must be
all cache hits (`cache_hit_rate == 1`) with no failed request
(`errors == 0`), and a warm hit's `p99_ms` must stay below the cold
phase's per-request time, `1000 / cold_requests_per_second`. The
`warm_speedup_vs_cold` ratio stays in the artifact but is not gated: it
rises whenever the cold path gets slower, so it rewards the wrong
change.

The 20% tolerance absorbs runner-to-runner noise; real regressions (a
serialized path, a lost nested fan-out) overshoot it by far.

Baselines recorded on a host with a single hardware thread (the JSON's
"host.hardware_threads" field, written by the bench harness) make every
speedup/improvement row unreachable by construction — a 1-core box cannot
scale — so the row gates are skipped wholesale for such baselines; only
the hardware-independent nested-regions counter check remains. Baselines
without a host section (pre-field artifacts) keep the per-row >1.1x
claim filter, which already skipped 1-core noise rows in practice.

Rows pinned to a SIMD dispatch level (a "simd_level" field, e.g. rows
measured under a forced avx2 table) are comparable only between hosts
that can execute that level. The harness records the recording host's
executable tiers as "host.simd_levels"; a pinned row whose level is
missing from either the baseline's or the fresh host's list is skipped —
an AVX2 row recorded on an AVX2 box must not fail the gate on a runner
that cannot run the kernel at all (and vice versa). Artifacts
without the field (pre-field baselines) skip the level filter entirely.

Note on baseline provenance: a baseline recorded on a single-core box has
speedups ~1.0, so the speedup checks are mostly skipped until the
baseline is regenerated on multi-core hardware (commit the CI artifact
as BENCH_scaling.json). The nested-regions counter check is hardware-
independent and catches total serialization either way.
"""

import json
import math
import sys

TOLERANCE = 0.8
# Baseline rows at or below this are noise, not a scaling claim.
MIN_BASELINE_CLAIM = 1.1
THREADS = 4


def fail(msg: str) -> None:
    print(f"SCALING REGRESSION: {msg}")
    sys.exit(1)


def rows_at(report: dict, section: str, threads: int) -> dict:
    out = {}
    for row in report.get(section, []):
        if row.get("threads") == threads:
            key = row.get("solver") or row.get("workload")
            if row.get("simd_level"):
                key = f"{key}@{row['simd_level']}"
            out[key] = row
    return out


def host_simd_levels(report: dict):
    """The recording host's executable kernel tiers, or None when the
    artifact predates the field (then no level filtering is possible)."""
    levels = report.get("host", {}).get("simd_levels")
    return set(levels) if levels is not None else None


def level_unavailable(row: dict, baseline: dict, fresh: dict) -> bool:
    """True when the row is pinned to a SIMD level that either host's
    recorded tier list lacks — such rows make no cross-host claim."""
    level = row.get("simd_level")
    if not level:
        return False
    for report in (baseline, fresh):
        levels = host_simd_levels(report)
        if levels is not None and level not in levels:
            return True
    return False


def check_pool_ratios(baseline: dict, fresh: dict, section: str,
                      metric: str) -> int:
    """Gates a single-process ratio section (rows keyed by pool size `n`):
    the fresh ratio must hold >= TOLERANCE of every baseline row that
    makes a claim (> MIN_BASELINE_CLAIM). Single-core-valid — both sides
    of the ratio run in one process on however many cores exist — so no
    hardware_threads skip applies. Fresh artifacts may omit rows
    (JURY_BENCH_FAST drops large-n pool rows); those are skipped, not
    failed."""
    base_rows = {row.get("n"): row for row in baseline.get(section, [])}
    fresh_rows = {row.get("n"): row for row in fresh.get(section, [])}
    checked = 0
    for key in sorted(k for k in base_rows if k is not None):
        base_value = base_rows[key].get(metric, 0.0)
        label = f"{section}[n={key}].{metric}"
        if base_value <= MIN_BASELINE_CLAIM:
            print(f"skip   {label}: baseline {base_value:.2f} makes no claim")
            continue
        if key not in fresh_rows:
            print(f"skip   {label}: row absent from the fresh artifact "
                  "(fast run?)")
            continue
        fresh_value = fresh_rows[key].get(metric, 0.0)
        floor = TOLERANCE * base_value
        status = "ok" if fresh_value >= floor else "FAIL"
        print(f"{status:6} {label}: {fresh_value:.2f}x vs baseline "
              f"{base_value:.2f}x (floor {floor:.2f}x)")
        if fresh_value < floor:
            fail(f"{label} {fresh_value:.2f}x fell below {floor:.2f}x")
        checked += 1
    return checked


def check_serving(fresh: dict) -> int:
    """Gates each full-run `serving` row of the fresh artifact: every
    warm request hit the cache, none failed, and a warm hit's p99 beats
    the cold phase's per-request time. Fast-run rows use a reduced
    request mix and are skipped."""
    checked = 0
    for row in fresh.get("serving", []):
        label = f"serving[concurrency={row.get('concurrency')}]"
        if row.get("fast_run"):
            print(f"skip   {label}: fast run")
            continue
        hit_rate = row.get("cache_hit_rate", 0.0)
        errors = row.get("errors", 0)
        p99_ms = row.get("p99_ms", math.inf)
        cold_rps = row.get("cold_requests_per_second", 0.0)
        cold_ms = 1000.0 / cold_rps if cold_rps > 0.0 else 0.0
        ok = hit_rate == 1 and errors == 0 and p99_ms < cold_ms
        print(f"{'ok' if ok else 'FAIL':6} {label}: hit rate {hit_rate}, "
              f"errors {errors}, warm p99 {p99_ms:.3f} ms vs cold "
              f"{cold_ms:.3f} ms/request")
        if not ok:
            fail(f"{label}: needs hit rate 1, 0 errors and warm p99 below "
                 "the cold per-request time")
        checked += 1
    return checked


def main() -> None:
    if len(sys.argv) != 3:
        fail("usage: check_scaling_regression.py BASELINE.json FRESH.json")
    with open(sys.argv[1]) as f:
        baseline = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)

    baseline_threads = baseline.get("host", {}).get("hardware_threads")
    single_core_baseline = (baseline_threads is not None
                            and baseline_threads <= 1)
    if single_core_baseline:
        print("baseline host reports 1 hardware thread: speedup and "
              "nested-improvement gates skipped (rows unreachable by "
              "construction on a 1-core recorder)")

    base_rows = rows_at(baseline, "thread_scaling", THREADS)
    fresh_rows = rows_at(fresh, "thread_scaling", THREADS)
    if baseline.get("thread_scaling") and not fresh_rows:
        # Only a baseline of the same artifact family can demand the
        # section; a pool baseline has no thread_scaling rows at all.
        fail(f"fresh report has no thread_scaling rows at {THREADS} threads")
    if single_core_baseline:
        base_rows = {}
    checked = 0
    for solver, base in base_rows.items():
        if level_unavailable(base, baseline, fresh):
            print(f"skip   {solver}: pinned SIMD level unavailable on the "
                  "baseline or fresh host")
            continue
        base_speedup = base.get("speedup_vs_1_thread", 0.0)
        if base_speedup <= MIN_BASELINE_CLAIM:
            print(f"skip   {solver}: baseline speedup {base_speedup:.2f} "
                  "makes no scaling claim")
            continue
        if solver not in fresh_rows:
            fail(f"solver '{solver}' missing from the fresh report")
        fresh_speedup = fresh_rows[solver].get("speedup_vs_1_thread", 0.0)
        floor = TOLERANCE * base_speedup
        status = "ok" if fresh_speedup >= floor else "FAIL"
        print(f"{status:6} {solver}: {fresh_speedup:.2f}x vs baseline "
              f"{base_speedup:.2f}x (floor {floor:.2f}x)")
        if fresh_speedup < floor:
            fail(f"'{solver}' 4-thread speedup {fresh_speedup:.2f}x fell "
                 f"below {floor:.2f}x")
        checked += 1

    base_nested = ({} if single_core_baseline
                   else rows_at(baseline, "budget_table_nested", THREADS))
    fresh_nested = rows_at(fresh, "budget_table_nested", THREADS)
    for workload, base in base_nested.items():
        base_improvement = base.get("improvement_vs_fixed_pool", 0.0)
        if base_improvement <= MIN_BASELINE_CLAIM:
            print(f"skip   {workload}: baseline improvement "
                  f"{base_improvement:.2f} makes no claim")
            continue
        if workload not in fresh_nested:
            fail(f"nested workload '{workload}' missing from fresh report")
        fresh_improvement = fresh_nested[workload].get(
            "improvement_vs_fixed_pool", 0.0)
        floor = TOLERANCE * base_improvement
        status = "ok" if fresh_improvement >= floor else "FAIL"
        print(f"{status:6} {workload}: {fresh_improvement:.2f}x vs baseline "
              f"{base_improvement:.2f}x (floor {floor:.2f}x)")
        if fresh_improvement < floor:
            fail(f"nested improvement {fresh_improvement:.2f}x fell below "
                 f"{floor:.2f}x")

    nested_regions = 0
    if baseline.get("budget_table_nested") or baseline.get("scheduler"):
        scheduler = fresh.get("scheduler", {})
        nested_regions = scheduler.get("nested_regions", 0)
        print(f"scheduler counters: {scheduler}")
        if nested_regions < 1:
            fail("no nested regions recorded — budget-table rows did not "
                 "fan out their inner solves")

    checked += check_pool_ratios(baseline, fresh, "frontier",
                                 "speedup_vs_full_scan")
    checked += check_pool_ratios(baseline, fresh, "snapshot",
                                 "speedup_vs_csv")
    if baseline.get("serving"):
        checked += check_serving(fresh)

    print(f"scaling gate passed ({checked} rows checked, "
          f"{nested_regions} nested regions observed)")


if __name__ == "__main__":
    main()
