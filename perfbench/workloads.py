"""Seeded inputs of the three benchmark workloads.

Everything the program receives is generated here, from Python's own
random module, so the inputs never depend on the code under test. The
pools are fixed per workload; the seed picks the requests, the delta
batches and the order of the hit loop.

Budgets and priors are drawn stratified: each block of requests takes one
value from each of its equal-width strata (of log-budget, and of alpha),
all at the same offset inside their strata, paired and ordered at random.
Block b's offset is (u + b * golden ratio) mod 1 for a seeded u, so any run
of whole blocks covers the strata evenly. Every request is still marginally
log-uniform in its budget, yet each run holds nearly the same spread of
heavy and light solves whatever the seed, which keeps the work per run
steady. The probe measures whole blocks only.
"""

import json
import math
import random

POOL_SEED = 20150323

# The paper's synthetic workers (section 6.1.1): quality ~ N(0.7, 0.05)
# truncated to [0.01, 0.99], cost ~ N(0.05, 0.2^2) truncated below at 0.01.
QUALITY_MU = 0.7
QUALITY_SIGMA = math.sqrt(0.05)
COST_MU = 0.05
COST_SIGMA = 0.2

SERVED_POOL_SIZE = 120
CHURN_POOL_SIZE = 100_000

COLD_BLOCK = 24                 # one cold request per log-budget stratum
COLD_BUDGETS = (0.05, 12.0)
ALPHAS = (0.3, 0.7)
HIT_SET_SIZE = 8                # cheap OPTJS requests the hit stream repeats
HIT_BUDGETS = (0.05, 0.5)
HIT_RATE = 20.0                 # open-loop cache hits per second
HIT_CONNECTIONS = 3

HOT_SOLVERS = ("optjs", "greedy-mg", "annealing", "mvjs")
HOT_BUDGETS = (0.1, 0.3, 1.0, 3.0)
HOT_CYCLES = 64                 # loop cycles written; the probe wraps

CHURN_SOLVES_PER_BUMP = 10
CHURN_BUMPS = 12                # per round; each retired epoch costs RSS
CHURN_DELTA_SIZE = 64
CHURN_BUDGETS = (0.3, 3.0)
CHURN_FRONTIER_K = 16


def _truncated_gauss(rng, mu, sigma, lo, hi):
    while True:
        x = rng.gauss(mu, sigma)
        if lo <= x <= hi:
            return x


def _quality(rng):
    return _truncated_gauss(rng, QUALITY_MU, QUALITY_SIGMA, 0.01, 0.99)


def _cost(rng):
    return _truncated_gauss(rng, COST_MU, COST_SIGMA, 0.01, 1e9)


def paper_pool(n):
    """The fixed pool of `n` workers as (quality, cost) pairs."""
    rng = random.Random(POOL_SEED + n)
    return [(_quality(rng), _cost(rng)) for _ in range(n)]


def pool_csv(pool):
    """CSV text in `id,quality,cost` form; repr keeps every double exact."""
    lines = ["id,quality,cost"]
    lines += [f"w{i},{q!r},{c!r}" for i, (q, c) in enumerate(pool)]
    return "\n".join(lines) + "\n"


GOLDEN = (math.sqrt(5) - 1) / 2


def _stratified(rng, lo, hi, k, log_scale, offset):
    a, b = (math.log(lo), math.log(hi)) if log_scale else (lo, hi)
    values = [a + (j + offset) * (b - a) / k for j in range(k)]
    if log_scale:
        values = [math.exp(v) for v in values]
    rng.shuffle(values)
    return values


class _Offsets:
    """Per-block stratum offsets (u + b * golden ratio) mod 1."""

    def __init__(self, rng):
        self.start = rng.random()
        self.block = 0

    def next(self):
        offset = (self.start + self.block * GOLDEN) % 1.0
        self.block += 1
        return offset


def _body(request):
    return json.dumps(request, sort_keys=True, separators=(",", ":"))


class _Seeds:
    """Distinct per-request solver seeds, so no two requests coincide."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def next(self):
        while True:
            seed = self.rng.getrandbits(52)
            if seed not in self.used:
                self.used.add(seed)
                return seed


def _block(rng, seeds, offsets, k, budgets, solver, tuning=None):
    offset = offsets.next()
    requests = []
    for budget, alpha in zip(_stratified(rng, *budgets, k, True, offset),
                             _stratified(rng, *ALPHAS, k, False, offset)):
        request = {"solver": solver, "budget": budget, "alpha": alpha,
                   "rng_seed": seeds.next()}
        if tuning:
            request["tuning"] = tuning
        requests.append(_body(request))
    return requests


def cold_optjs(seed, blocks):
    """All-distinct OPTJS requests in stratified blocks, the cheap hit set
    warmed at set-up, and the hit stream's order over that set."""
    rng = random.Random(f"cold_optjs:{seed}")
    seeds = _Seeds(rng)
    hit_set = _block(rng, seeds, _Offsets(rng), HIT_SET_SIZE, HIT_BUDGETS,
                     "optjs")
    offsets = _Offsets(rng)
    cold = []
    for _ in range(blocks):
        cold += _block(rng, seeds, offsets, COLD_BLOCK, COLD_BUDGETS, "optjs")
    hits = [rng.randrange(HIT_SET_SIZE) for _ in range(4096)]
    return {"pool": paper_pool(SERVED_POOL_SIZE), "warm": hit_set,
            "cold": cold, "hits": hits, "block": COLD_BLOCK}


def hot_hits_warm_set():
    """The fixed set of distinct requests the hot_hits cache holds: every
    solver on the path, at several jury sizes."""
    warm = []
    for i, solver in enumerate(HOT_SOLVERS):
        for j, budget in enumerate(HOT_BUDGETS):
            warm.append(_body({"solver": solver, "budget": budget,
                               "alpha": 0.5, "rng_seed": 1000 + 10 * i + j}))
    return warm


def hot_hits(seed):
    """The warm set plus the closed loop's order: each cycle is a seeded
    permutation of the whole set."""
    rng = random.Random(f"hot_hits:{seed}")
    warm = hot_hits_warm_set()
    loop = []
    for _ in range(HOT_CYCLES):
        cycle = list(range(len(warm)))
        rng.shuffle(cycle)
        loop += cycle
    return {"pool": paper_pool(SERVED_POOL_SIZE), "warm": warm,
            "loop": loop, "block": len(warm)}


def large_pool_churn(seed):
    """One round's op list: groups of frontier greedy-mg solves, each group
    followed by a 64-worker re-estimate. Every round replays this list."""
    rng = random.Random(f"large_pool_churn:{seed}")
    seeds = _Seeds(rng)
    offsets = _Offsets(rng)
    tuning = {"greedy": {"frontier_k": CHURN_FRONTIER_K}}
    ops = []
    for bump in range(CHURN_BUMPS + 1):
        for body in _block(rng, seeds, offsets, CHURN_SOLVES_PER_BUMP,
                           CHURN_BUDGETS, "greedy-mg", tuning):
            ops.append(("S", body))
        if bump < CHURN_BUMPS:
            indices = rng.sample(range(CHURN_POOL_SIZE), CHURN_DELTA_SIZE)
            ops.append(("D", [(i, _quality(rng), _cost(rng))
                              for i in indices]))
    return {"pool": paper_pool(CHURN_POOL_SIZE), "ops": ops}


def ops_text(ops):
    """The probe's op-list format: `S <json>` or `D i q c i q c ...`."""
    lines = []
    for kind, payload in ops:
        if kind == "S":
            lines.append("S " + payload)
        else:
            lines.append("D " + " ".join(f"{i} {q!r} {c!r}"
                                         for i, q, c in payload))
    return "\n".join(lines) + "\n"
