"""Percentiles, reply checks and metric arithmetic of the benchmark."""

import csv
import json
import math
import statistics

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def percentile(values, q):
    """Nearest-rank percentile `q` (0 < q < 1) of `values`, or None when
    fewer than MIN_BEYOND samples lie beyond it."""
    n = len(values)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(values)[max(rank, 1) - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return sum(values) / len(values) if values else 0.0


# ------------------------------------------------------------------ checks

def check_solution(solution, budget, costs, label):
    """Errors of one reported jury: its indices exist, it fits `budget` at
    `costs`, and its JQ lies in [0, 1]."""
    if not isinstance(solution, dict):
        return [f"{label}: no solution"]
    selected = solution.get("selected")
    jq = solution.get("jq")
    if not isinstance(selected, list) or not all(
            isinstance(i, int) and 0 <= i < len(costs) for i in selected):
        return [f"{label}: bad jury indices"]
    errors = []
    if len(set(selected)) != len(selected):
        errors.append(f"{label}: a worker is selected twice")
    total = math.fsum(costs[i] for i in selected)
    if total > budget * (1 + 1e-9) + 1e-12:
        errors.append(f"{label}: jury costs {total!r} over budget {budget!r}")
    if not isinstance(jq, (int, float)) or not 0.0 <= jq <= 1.0:
        errors.append(f"{label}: jq {jq!r} outside [0, 1]")
    return errors


def check_replies(replies, requests, costs, label):
    """Checks every served reply against the request it answers."""
    errors = []
    if len(replies) > len(requests):
        return [f"{label}: more replies than requests"]
    for i, reply in enumerate(replies):
        if not isinstance(reply, dict) or "solution" not in reply:
            errors.append(f"{label} {i}: not a solve report")
            continue
        errors += check_solution(reply["solution"], requests[i]["budget"],
                                 costs, f"{label} {i}")
    return errors


def reported_jq(reply):
    """The JQ a served reply reports, or None when it reports none (such a
    reply already fails check_replies)."""
    solution = reply.get("solution") if isinstance(reply, dict) else None
    jq = solution.get("jq") if isinstance(solution, dict) else None
    return jq if isinstance(jq, (int, float)) else None


def check_churn(solutions, ops, costs):
    """Replays the generated pool deltas and checks each solve's jury
    against the costs of the epoch it ran on."""
    costs = list(costs)
    errors = []
    solutions = iter(solutions)
    for j, (kind, payload) in enumerate(ops):
        if kind == "D":
            for index, _, cost in payload:
                costs[index] = cost
            continue
        solution = next(solutions, None)
        errors += check_solution(solution, json.loads(payload)["budget"],
                                 costs, f"solve {j}")
    return errors


# ------------------------------------------------------------------ traces

def read_spans(path):
    with open(path, newline="") as f:
        return [{"name": row["name"], "start": float(row["start_us"]),
                 "end": float(row["end_us"]), "parent": int(row["parent"]),
                 "request": int(row["request"])}
                for row in csv.DictReader(f)]


def self_times_us(spans):
    """Per span name, the list of self times: each span's duration minus
    the part its child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child[span["parent"]] += span["end"] - span["start"]
    result = {}
    for i, span in enumerate(spans):
        result.setdefault(span["name"], []).append(
            span["end"] - span["start"] - child[i])
    return result


def trace_overhead(bare_block_s, traced_block_s):
    """Tracing overhead: total traced over total bare replay time, the two
    replayed in alternating blocks. Its noise is twice the standard error
    of the per-block log ratios; the overhead is resolved only above it."""
    share = sum(traced_block_s) / sum(bare_block_s) - 1.0
    logs = [math.log(t / b) for b, t in zip(bare_block_s, traced_block_s)]
    if len(logs) < 2:
        return {"share": share, "noise_share": None, "resolved": False}
    noise = 2 * statistics.stdev(logs) / math.sqrt(len(logs))
    return {"share": share, "noise_share": noise, "resolved": abs(share) > noise}


def counter_delta(before, after):
    """Counter and gauge deltas between two GET /stats bodies (None for a
    body that was not JSON)."""
    delta = {}
    for kind in ("counters", "gauges"):
        b = ((before or {}).get("registry") or {}).get(kind, {})
        for key, value in ((after or {}).get("registry") or {}).get(kind, {}).items():
            delta[key] = value - b.get(key, 0)
    return delta
