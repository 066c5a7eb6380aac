#!/usr/bin/env python3
"""End-to-end benchmark of the jury-selection service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds `jury_serve` and the
benchmark's probe (perfbench/probe.cc) as a Release build under
.bench_build/. Every process the benchmark starts gets JURYOPT_THREADS=2.

Workloads (inputs from perfbench/workloads.py, seeded by --seed):
  cold_optjs        jury_serve on a 120-worker pool. One keep-alive
                    connection sends a closed loop of all-distinct OPTJS
                    requests (every one a cache miss) while an open loop
                    sends 20 cache hits/s on three more connections, each
                    hit timed from its due time.
  hot_hits          the same server with its cache warmed from a fixed set
                    of optjs/greedy-mg/annealing/mvjs requests; one
                    connection sends a closed loop of hits. BENCHMARK.json
                    does not list it: on a shared 4-vCPU KVM guest its
                    ten-run spread of latency_p50_ms and throughput_rps
                    reached 0.22-0.31, past the 0.25 bound, as the host's
                    speed for this syscall- and allocation-heavy loop
                    drifted by up to 40% over minutes.
  large_pool_churn  an in-process PoolPlanContext on a 10^5-worker pool
                    planned from a PoolSnapshot, replaying groups of ten
                    frontier greedy-mg solves between 64-worker deltas.
                    Each round plans a fresh context.

--trace 0 prints the end-to-end metrics; --trace 1 also replays the inputs
in-process through each layer's public functions, one span per call, and
prints the per-layer metrics. The replay runs bare and traced in
alternating blocks; trace.overhead_share is their time ratio, or 0 when it
does not exceed its noise (the run line records both). Every reply is
checked; the last stdout line is {"correct", "attempted", "failed",
"metrics"}. The line before it records the run's environment, host noise
and server counter deltas.

Tests of the benchmark's own code: python3 -m unittest discover perfbench
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import measure  # noqa: E402
import workloads  # noqa: E402

BUILD = ROOT / ".bench_build" / "perfbench"
PROBE = BUILD / "perfbench_probe"
SERVER = BUILD / "juryopt" / "jury_serve"
THREADS = "2"
SETUPS = 15                 # set-ups per run; setup_s is their median
COLD_REQUESTS_PER_S = 150   # cold list length per run second, never reached
CHURN_SAMPLE_EVERY = 8      # every 8th churn solve is re-run as a full scan
SERVED_SAMPLE_EVERY = {"cold_optjs": 8, "hot_hits": 4}
RUN_LIMIT_S = 170  # after the build, every run exits within 180 s
STATS_KEYS = ("serve.cache_hits", "serve.cache_misses", "eval.full",
              "eval.incremental", "plan.instances_leased",
              "scheduler.tasks_spawned", "scheduler.tasks_stolen")


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# ------------------------------------------------------------------- build

def build():
    """Configures once, then brings the Release build up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no juryopt source tree beside perfbench/")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1), "--target", "perfbench_probe",
                  "jury_serve"])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed; see {build_log}")


def build_type():
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


deadline = math.inf


def probe(mode, env, **flags):
    """Runs one probe mode in its own process group, so a timeout also
    stops the server the probe spawned."""
    args = [str(PROBE), mode] + [f"--{k.replace('_', '-')}={v}"
                                  for k, v in flags.items()]
    proc = subprocess.Popen(args, env=env, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"probe {mode} timed out")
    if proc.returncode != 0:
        raise BenchError(f"probe {mode} failed: {stderr.strip()}")


def write(path, text):
    path.write_text(text)
    return path


def stats_layers(delta, requests):
    """Server (or library) counter deltas per request: the scheduler's as
    util.*, the rest as stats.*."""
    return {("util." + key.split(".", 1)[1] if key.startswith("scheduler.")
             else "stats." + key): delta.get(key, 0) / requests
            for key in STATS_KEYS}


# ---------------------------------------------------------------- workloads

def served_inputs(name, seed, seconds):
    if name == "cold_optjs":
        blocks = math.ceil(seconds * COLD_REQUESTS_PER_S / workloads.COLD_BLOCK)
        return workloads.cold_optjs(seed, blocks)
    return workloads.hot_hits(seed)


def run_served(name, seed, seconds, trace, work, env):
    inputs = served_inputs(name, seed, seconds)
    pool = write(work / "pool.csv", workloads.pool_csv(inputs["pool"]))
    warm = write(work / "warm.txt", "\n".join(inputs["warm"]) + "\n")
    files = {"warm": warm}
    if name == "cold_optjs":
        files["cold"] = write(work / "cold.txt", "\n".join(inputs["cold"]) + "\n")
        files["hits"] = write(work / "hits.txt",
                              "\n".join(map(str, inputs["hits"])) + "\n")
        extra = {"hit_rate": workloads.HIT_RATE,
                 "hit_conns": workloads.HIT_CONNECTIONS}
    else:
        files["loop"] = write(work / "loop.txt",
                              "\n".join(map(str, inputs["loop"])) + "\n")
        extra = {}
    probe("served", env, workload=name, server=SERVER, pool=pool,
           seconds=seconds, setups=SETUPS, block=inputs["block"],
           sample_every=SERVED_SAMPLE_EVERY[name], out=work, **files, **extra)
    run = json.loads((work / "served.json").read_text())
    errors, e2e, record, layers = served_result(name, inputs, run)
    if trace:
        record["trace_overhead"] = add_trace(
            layers, env, work, workloads.SERVED_POOL_SIZE, workload=name,
            pool=pool, seconds=seconds, **files)
    return run, errors, e2e, record, layers


def served_result(name, inputs, run):
    """Checks a served run's replies against its inputs and derives its
    metrics. Each failed check, in the probe or here, is one error."""
    costs = [c for _, c in inputs["pool"]]
    warm_requests = [json.loads(b) for b in inputs["warm"]]
    errors = list(run["errors"])
    errors += measure.check_replies(run["warm_replies"], warm_requests, costs,
                                    "warm")
    if name == "cold_optjs":
        cold_requests = [json.loads(b) for b in inputs["cold"]]
        errors += measure.check_replies(run["cold_replies"], cold_requests,
                                        costs, "cold")
        jqs = [measure.reported_jq(r) for r in run["cold_replies"]]
        hit_latency = run["hit_latency_ms"]
    else:
        warm_jq = [measure.reported_jq(r) for r in run["warm_replies"]]
        loop = inputs["loop"]
        jqs = [warm_jq[loop[i % len(loop)]] for i in range(run["completed"])]
        hit_latency = run["latency_ms"]
    jqs = [jq for jq in jqs if jq is not None]

    delta = measure.counter_delta(run["stats_before"], run["stats_after"])
    served = run["completed"] + len(run["hit_latency_ms"])
    hits = delta.get("serve.cache_hits", 0)
    misses = delta.get("serve.cache_misses", 0)
    if name == "hot_hits" and misses != 0:
        errors.append(f"hot_hits missed the cache {misses} times")

    e2e = {
        "throughput_rps": (measure.median(
            [inputs["block"] / t for t in run["block_s"]]), "req/s"),
        "latency_p50_ms": (measure.percentile(run["latency_ms"], 0.5), "ms"),
        "latency_p90_ms": (measure.percentile(run["latency_ms"], 0.9), "ms"),
        "hit_latency_p50_ms": (measure.percentile(hit_latency, 0.5), "ms"),
        "hit_latency_p90_ms": (measure.percentile(hit_latency, 0.9), "ms"),
        "jury_quality": (measure.mean(jqs), "JQ"),
        "setup_s": (measure.median(run["setup_s"]), "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MiB"),
    }
    if name == "cold_optjs":
        latency, wall = run["latency_ms"], run["wall_s"]
        busy_s = sum(wall)
    else:
        latency, wall = run["warm_latency_ms"], run["warm_wall_s"]
        busy_s = 0.0  # every measured request is a hit
    record = {
        "noise": {"steal_share": run["steal_share"],
                  "hit_late_p50_ms": measure.median(run["hit_late_ms"]),
                  "hit_late_max_ms": max(run["hit_late_ms"], default=0.0)},
        "stats_delta_per_request": {k: delta.get(k, 0) / served
                                    for k in STATS_KEYS},
        "samples": {"requests": run["completed"],
                    "hits": len(run["hit_latency_ms"]),
                    "setups": len(run["setup_s"]),
                    "compared_in_process": run["compared_in_process"]},
    }
    layers = {
        "serve.overhead_ms": measure.mean(
            [l - w * 1e3 for l, w in zip(latency, wall)]),
        "serve.loop_busy_share": busy_s / run["elapsed_s"],
        "serve.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "model.rss_per_epoch_mb": 0.0,
    }
    layers.update(stats_layers(delta, served))
    return errors, e2e, record, layers


def run_churn(name, seed, seconds, trace, work, env):
    inputs = workloads.large_pool_churn(seed)
    costs = [c for _, c in inputs["pool"]]
    pool = write(work / "pool.csv", workloads.pool_csv(inputs["pool"]))
    ops = write(work / "ops.txt", workloads.ops_text(inputs["ops"]))
    snapshot = work / "pool.snap"
    probe("prepare-snapshot", env, csv=pool, out=snapshot)
    pool.unlink()
    probe("churn", env, snapshot=snapshot, ops=ops, seconds=seconds,
           sample_every=CHURN_SAMPLE_EVERY, out=work)
    run = json.loads((work / "churn.json").read_text())

    errors = list(run["errors"]) + measure.check_churn(
        run["solutions"], inputs["ops"], costs)
    jqs = [s["jq"] for s in run["solutions"] if isinstance(s, dict)]
    e2e = {
        "throughput_rps": (measure.median(
            [len(inputs["ops"]) / t for t in run["round_op_s"]]), "req/s"),
        "latency_p50_ms": (measure.percentile(run["latency_ms"], 0.5), "ms"),
        "latency_p90_ms": (measure.percentile(run["latency_ms"], 0.9), "ms"),
        "hit_latency_p50_ms": (
            measure.percentile(run["lease_hit_latency_ms"], 0.5), "ms"),
        "hit_latency_p90_ms": (
            measure.percentile(run["lease_hit_latency_ms"], 0.9), "ms"),
        "jury_quality": (measure.mean(jqs), "JQ"),
        "setup_s": (measure.median(run["setup_s"]), "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MiB"),
    }
    rss = run["rss_kb_per_bump"]
    ops_done = run["timed_ops"]
    delta = measure.counter_delta(run["stats_before"], run["stats_after"])
    record = {
        "noise": {"steal_share": run["steal_share"]},
        "stats_delta_per_request": {k: delta.get(k, 0) / ops_done
                                    for k in STATS_KEYS},
        "samples": {"ops": ops_done, "solves": len(run["latency_ms"]),
                    "setups": len(run["setup_s"]),
                    "frontier_checks": run["frontier_checks"]},
    }
    layers = {
        "serve.overhead_ms": measure.mean(run["overhead_ms"]),
        "serve.loop_busy_share": run["solve_wall_s"] / run["op_s"],
        "serve.cache_hit_rate": 0.0,  # the library workload has no cache
        "model.rss_per_epoch_mb": (rss[-1] - rss[0]) / (len(rss) - 1) / 1024.0,
    }
    layers.update(stats_layers(delta, ops_done))
    if trace:
        record["trace_overhead"] = add_trace(
            layers, env, work, workloads.CHURN_POOL_SIZE, workload=name,
            snapshot=snapshot, ops=ops, seconds=seconds)
    return run, errors, e2e, record, layers


# ------------------------------------------------------------------ traces

def add_trace(layers, env, work, pool_size, **flags):
    """Runs the traced replay, adds its per-layer metrics to `layers` and
    returns the record of its tracing overhead."""
    probe("trace", env, out=work, **flags)
    counts = json.loads((work / "trace.json").read_text())
    overhead = measure.trace_overhead(counts["bare_block_s"],
                                      counts["traced_block_s"])
    layers.update(trace_layers(measure.read_spans(work / "spans.csv"), counts,
                               pool_size))
    layers["trace.overhead_share"] = (overhead["share"] if overhead["resolved"]
                                      else 0.0)
    return overhead


def trace_layers(spans, counts, pool_size):
    """Per-layer metrics from the traced replay: self time per call of
    each layer's public function, and the counts gathered beside them.
    A layer the workload never calls reports 0."""
    self_us = measure.self_times_us(spans)

    def mean_us(name):
        return measure.mean(self_us.get(name, []))

    def total_us(name):
        return sum(self_us.get(name, []))

    requests = counts["ops"] or 1
    phases = counts["phase_requests"] or 1
    solves = counts["solves"] or 1
    scans = counts["frontier_scans"]
    search_us = total_us("core.annealing") + total_us("core.fallbacks")
    refine_us = total_us("jq.refine")
    bumps = counts["bumps"] or 1
    return {
        "serve.http_us": (total_us("serve.http_parse") +
                          total_us("serve.http_format")) / requests,
        "api.json_bind_us": mean_us("api.json_bind"),
        "api.cache_key_us": mean_us("api.cache_key"),
        "api.cache_lookup_us": mean_us("api.cache_lookup"),
        "api.report_json_us": mean_us("api.report_json"),
        "api.lease_us": mean_us("api.lease"),
        "api.solve_ms": mean_us("api.solve") / 1e3,
        "core.annealing_ms": total_us("core.annealing") / phases / 1e3,
        "core.fallbacks_ms": total_us("core.fallbacks") / phases / 1e3,
        "core.annealing_moves": counts["annealing_moves"] / phases,
        "core.eval_full": counts["eval_full"] / solves,
        "core.eval_incremental": counts["eval_incremental"] / solves,
        "core.frontier_solve_ms": mean_us("core.greedy_mg") / 1e3,
        "core.frontier_scanned": (counts["frontier_scanned"] /
                                  len(self_us.get("core.greedy_mg", [1]))),
        "core.frontier_pruning": (1.0 - counts["frontier_scanned"] /
                                  (scans * pool_size)) if scans else 0.0,
        "jq.refine_ms": refine_us / phases / 1e3,
        "jq.refine_share": (refine_us / (search_us + refine_us)
                            if search_us + refine_us else 0.0),
        "jq.refine_keys": counts["refine_keys"] / phases,
        "model.snapshot_plan_ms": mean_us("model.snapshot_plan") / 1e3,
        "model.shard_build_ms": mean_us("model.shard_build") / 1e3,
        "model.apply_delta_ms": mean_us("model.apply_delta") / 1e3,
        "model.shard_rebuilds": counts["shard_rebuilds"] / bumps,
        "trace.spans_per_request": len(spans) / requests,
    }


# -------------------------------------------------------------------- main

RUNNERS = {"cold_optjs": run_served, "hot_hits": run_served,
           "large_pool_churn": run_churn}

LAYER_UNITS = {"_ms": "ms", "_us": "us", "_share": "share", "_rate": "share",
               "_pruning": "share", "_mb": "MiB"}


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except BenchError as error:
        log(f"perfbench: {error}")
        return 1
    global deadline
    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ, JURYOPT_THREADS=THREADS)
    work = ROOT / ".bench_build" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.monotonic()
    try:
        run, errors, e2e, record, layers = RUNNERS[args.workload](
            args.workload, args.seed, args.seconds, bool(args.trace), work, env)
    except BenchError as error:
        log(f"perfbench: {error}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [k for k, (v, _) in e2e.items() if v is None]
    if missing:
        log(f"perfbench: too few samples for {', '.join(missing)}")
        return 1
    attempted = int(run["attempted"])
    for error in errors[:20]:
        log(f"check failed: {error}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": {"build_type": build_type(), "JURYOPT_THREADS": THREADS,
                "hardware_threads": run["hardware_threads"],
                "simd_level": run["simd_level"]},
        "error_rate": len(errors) / attempted,
        "run_s": time.monotonic() - started,
        **record,
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(layers.items())}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    for key, metric in metrics.items():
        print(f"{args.workload} {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} error_rate = {record['error_rate']:.6g} share")
    print("run " + json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(attempted, errors, metrics)))
    return 0


def result_line(attempted, errors, metrics):
    """The run's last stdout line: each failed check is one failure."""
    return {"correct": not errors, "attempted": attempted,
            "failed": min(len(errors), attempted), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
