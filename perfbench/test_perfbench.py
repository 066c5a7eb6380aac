"""Tests of the benchmark's own code.

    python3 -m unittest discover perfbench

The probe tests need the probe built by one run of perfbench/run.py and
are skipped without it. They serve the probe a scripted stand-in for
jury_serve that records pipelined requests and can answer wrongly.
"""

import json
import os
import subprocess
import sys
import tempfile
import textwrap
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

PROBE = HERE.parent / ".bench_build" / "perfbench" / "perfbench_probe"


class InputsTest(unittest.TestCase):
    def test_one_seed_gives_the_same_inputs(self):
        for make in (lambda s: workloads.cold_optjs(s, 3), workloads.hot_hits,
                     workloads.large_pool_churn):
            self.assertEqual(make(7), make(7))
            self.assertNotEqual(make(7), make(8))
        self.assertEqual(
            workloads.ops_text(workloads.large_pool_churn(7)["ops"]),
            workloads.ops_text(workloads.large_pool_churn(7)["ops"]))

    def test_cold_requests_are_distinct_and_in_range(self):
        inputs = workloads.cold_optjs(3, 4)
        bodies = inputs["cold"] + inputs["warm"]
        self.assertEqual(len(bodies), len(set(bodies)))
        lo, hi = workloads.COLD_BUDGETS
        for body in inputs["cold"]:
            request = json.loads(body)
            self.assertTrue(lo <= request["budget"] <= hi)
            self.assertTrue(0.3 <= request["alpha"] <= 0.7)

    def test_churn_deltas_touch_distinct_workers(self):
        for kind, payload in workloads.large_pool_churn(5)["ops"]:
            if kind == "D":
                indices = [i for i, _, _ in payload]
                self.assertEqual(len(indices), workloads.CHURN_DELTA_SIZE)
                self.assertEqual(len(set(indices)), len(indices))


class PercentileTest(unittest.TestCase):
    def test_reports_only_with_ten_samples_beyond(self):
        self.assertIsNone(measure.percentile(list(range(99)), 0.9))
        self.assertEqual(measure.percentile(list(range(100)), 0.9), 89)
        self.assertIsNone(measure.percentile(list(range(19)), 0.5))
        self.assertEqual(measure.percentile(list(range(20)), 0.5), 9)
        self.assertIsNone(measure.percentile([], 0.5))


class TraceOverheadTest(unittest.TestCase):
    def test_an_overhead_within_its_noise_is_unresolved(self):
        steady = measure.trace_overhead([1.0] * 20, [1.1] * 20)
        self.assertAlmostEqual(steady["share"], 0.1)
        self.assertTrue(steady["resolved"])
        noisy = measure.trace_overhead([1.0, 2.0] * 10, [2.1, 1.0] * 10)
        self.assertAlmostEqual(noisy["share"], 0.1 / 3)
        self.assertFalse(noisy["resolved"])


class ReplyCheckTest(unittest.TestCase):
    COSTS = [1.0, 2.0, 3.0]

    def reply(self, selected, jq=0.8):
        return {"solution": {"selected": selected, "jq": jq, "cost": 0.0}}

    def errors(self, reply, budget=3.0):
        return measure.check_replies([reply], [{"budget": budget}],
                                     self.COSTS, "cold")

    def test_a_good_reply_passes(self):
        self.assertEqual(self.errors(self.reply([0, 1])), [])

    def test_a_wrong_reply_counts_as_an_error(self):
        self.assertTrue(self.errors(self.reply([1, 2])))        # over budget
        self.assertTrue(self.errors(self.reply([0], jq=1.5)))   # JQ > 1
        self.assertTrue(self.errors(self.reply([0], jq=-0.1)))  # JQ < 0
        self.assertTrue(self.errors(self.reply([7])))           # no such worker
        self.assertTrue(self.errors(self.reply([0, 0])))        # twice
        self.assertTrue(self.errors({"error": {"code": 500}}))  # not a report
        self.assertTrue(self.errors(None))                      # not JSON

    def test_churn_checks_use_the_epochs_costs(self):
        solve = ("S", json.dumps({"budget": 3.0}))
        raise_cost = ("D", [(1, 0.5, 5.0)])
        jury = {"selected": [0, 1], "jq": 0.7}
        self.assertEqual(measure.check_churn([jury], [solve], self.COSTS), [])
        self.assertTrue(measure.check_churn(
            [jury], [raise_cost, solve], self.COSTS))


FAKE_SERVER = textwrap.dedent('''
    import json, os, signal, socket, sys, threading, time
    report_path = sys.argv[1] + ".report"
    wrong_hits = os.environ.get("FAKE_WRONG_HITS") == "1"
    bad_solves = os.environ.get("FAKE_BAD_SOLVES") == "1"
    lock = threading.Lock()
    state = {"pipelined": 0, "solves": 0, "seen": set()}

    def finish(*_):
        with open(report_path, "w") as f:
            json.dump({"pipelined": state["pipelined"],
                       "solves": state["solves"]}, f)
        os._exit(0)

    def reply(conn, body, status="200 OK"):
        conn.sendall(("HTTP/1.1 %s\\r\\nContent-Length: %d\\r\\n\\r\\n%s"
                      % (status, len(body), body)).encode())

    def read_request(conn, buf):
        while b"\\r\\n\\r\\n" not in buf:
            chunk = conn.recv(65536)
            if not chunk:
                return None, None
            buf += chunk
        head, _, rest = buf.partition(b"\\r\\n\\r\\n")
        length = 0
        for line in head.split(b"\\r\\n")[1:]:
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            rest += conn.recv(65536)
        return (head.split(b" ")[1].decode(), rest[:length].decode()), rest[length:]

    def serve(conn):
        buf = b""
        while True:
            request, buf = read_request(conn, buf)
            if request is None:
                return
            target, body = request
            time.sleep(0.002)  # room for a pipelined request to arrive
            try:
                early = conn.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
            except BlockingIOError:
                early = b""
            if early or buf:
                with lock:
                    state["pipelined"] += 1
            if target == "/healthz":
                reply(conn, '{"ok":true}')
            elif target == "/stats":
                reply(conn, '{"cache":null,"registry":{"counters":{},"gauges":{}}}')
            elif bad_solves and json.loads(body)["budget"] == 150:
                reply(conn, '{"error":{"code":500,"message":"injected"}}',
                      "500 Internal Server Error")
            elif bad_solves and json.loads(body)["budget"] == 151:
                reply(conn, "not json")
            else:
                with lock:
                    state["solves"] += 1
                    hit = body in state["seen"]
                    state["seen"].add(body)
                jq = 0.25 if hit and wrong_hits else 0.5
                stats = '{"cache_hit":1}' if hit else '{}'
                wall = "0" if hit else "0.001"
                reply(conn, '{"evaluations":{"full":0,"incremental":0},'
                      '"solution":{"cost":0,"jq":%s,"selected":[]},'
                      '"solver":"optjs","stats":%s,"wall_seconds":%s}'
                      % (jq, stats, wall))

    signal.signal(signal.SIGTERM, finish)
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)
    print("listening on 127.0.0.1:%d" % listener.getsockname()[1], flush=True)
    while True:
        conn, _ = listener.accept()
        threading.Thread(target=serve, args=(conn,), daemon=True).start()
''')


WARM = ['{"budget":%d}' % i for i in range(4)]
COLD = ['{"budget":%d}' % i for i in range(100, 400)]


@unittest.skipUnless(PROBE.exists(), "run perfbench/run.py once to build")
class ProbeTest(unittest.TestCase):
    def run_probe(self, wrong_hits=False, bad_solves=False):
        scratch = HERE.parent / ".bench_build"
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            tmp = Path(tmp)
            server = tmp / "fake_server.py"
            server.write_text(f"#!{sys.executable}\n" + FAKE_SERVER)
            server.chmod(0o755)
            (tmp / "pool.csv").write_text("id,quality,cost\n")
            (tmp / "warm.txt").write_text("\n".join(WARM) + "\n")
            (tmp / "cold.txt").write_text("\n".join(COLD) + "\n")
            (tmp / "hits.txt").write_text("0\n1\n2\n3\n")
            env = dict(os.environ, FAKE_WRONG_HITS="1" if wrong_hits else "0",
                       FAKE_BAD_SOLVES="1" if bad_solves else "0")
            subprocess.run(
                [str(PROBE), "served", "--workload=cold_optjs",
                 f"--server={server}",
                 f"--pool={tmp / 'pool.csv'}", f"--warm={tmp / 'warm.txt'}",
                 f"--cold={tmp / 'cold.txt'}", f"--hits={tmp / 'hits.txt'}",
                 "--hit-rate=400", "--hit-conns=3", "--seconds=1",
                 "--setups=2", "--block=10", "--sample-every=0",
                 f"--out={tmp}"], env=env, check=True, timeout=60)
            served = json.loads((tmp / "served.json").read_text())
            report = json.loads((tmp / "pool.csv.report").read_text())
        return served, report

    def test_no_connection_carries_two_solves_at_once(self):
        served, report = self.run_probe()
        self.assertEqual(served["errors"], [])
        self.assertGreater(len(served["hit_latency_ms"]), 50)
        self.assertGreater(report["solves"], 100)
        self.assertEqual(report["pipelined"], 0)

    def test_a_wrong_hit_counts_as_an_error(self):
        served, _ = self.run_probe(wrong_hits=True)
        self.assertTrue(any("differs from its cold reply" in e
                            for e in served["errors"]))

    def test_a_failed_or_garbled_cold_reply_counts_as_a_failure(self):
        served, _ = self.run_probe(bad_solves=True)
        inputs = {"pool": [], "warm": WARM, "cold": COLD, "block": 10}
        errors, e2e, _, _ = run.served_result("cold_optjs", inputs, served)
        result = run.result_line(served["attempted"], errors, {})
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 2)
        self.assertTrue(any("cold 50: status 500" in e for e in errors))
        self.assertTrue(any("cold 51: reply is not JSON" in e for e in errors))
        self.assertEqual(e2e["jury_quality"][0], 0.5)  # the good replies' JQ


if __name__ == "__main__":
    unittest.main()
