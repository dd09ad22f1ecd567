#!/usr/bin/env python3
"""Self-tests of the benchmark's own code.

    python3 perfbench/test_run.py

Run from the repository root.  The partitioning test builds the
benchmark's probe with dune.
"""

import hashlib
import http.server
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_interpolates(self):
        xs = list(range(1, 101))
        self.assertEqual(run.percentile(xs, 0.0), 1)
        self.assertEqual(run.percentile(xs, 1.0), 100)
        self.assertAlmostEqual(run.percentile(xs, 0.5), 50.5)
        self.assertAlmostEqual(run.percentile(xs, 0.9), 90.1)
        self.assertEqual(run.percentile([7.0], 0.95), 7.0)
        self.assertEqual(run.percentile([3, 1, 2], 0.5), 2)

    def test_ten_beyond_rule(self):
        # With interpolation, p95 leaves 10 samples beyond from 182
        # samples on, p90 from 92, p85 from 62.
        for p, n in ((0.95, 182), (0.90, 92), (0.85, 62)):
            self.assertTrue(run.tail_supported(n, p), (p, n))
            self.assertFalse(run.tail_supported(n - 1, p), (p, n - 1))
        for n in (100, 250, 1000):
            xs = list(range(n))
            p = run.percentile(xs, 0.9)
            self.assertEqual(sum(1 for x in xs if x > p), run.beyond(n, 0.9))

    def test_reported_tail_is_the_highest_supported(self):
        for n, p in ((37, None), (38, 0.75), (61, 0.80), (62, 0.85),
                     (182, 0.95), (901, 0.95), (902, 0.99)):
            self.assertEqual(run.tail_p(n), p, n)


class Schedule(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = run.poisson_schedule(42, 13.0, 20)
        self.assertEqual(a, run.poisson_schedule(42, 13.0, 20))
        self.assertNotEqual(a, run.poisson_schedule(43, 13.0, 20))

    def test_shape(self):
        s = run.poisson_schedule(1, 50.0, 100)
        self.assertTrue(all(0 < x < 100 for x in s))
        self.assertEqual(s, sorted(s))
        self.assertEqual(len(s), 5000)  # rate * seconds, for every seed


class _Stall(http.server.BaseHTTPRequestHandler):
    """Answers "x\\n"; the first request stalls for STALL seconds."""
    protocol_version = "HTTP/1.1"
    STALL = 0.3
    first = True

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if _Stall.first:
            _Stall.first = False
            time.sleep(_Stall.STALL)
        body = b"x\n"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _Ctx:
    def __init__(self):
        self.attempted = self.failed = 0
        self.lock = threading.Lock()

    def count(self, ok, what=""):
        self.attempted += 1
        self.failed += 0 if ok else 1


class OpenLoop(unittest.TestCase):
    def test_latency_runs_from_scheduled_send(self):
        srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Stall)
        t = threading.Thread(target=srv.serve_forever)
        t.start()
        try:
            op = {"k": "q", "q": "1", "md5": hashlib.md5(b"x\n").hexdigest()}
            ctx = _Ctx()
            offsets = [0.0, 0.05, 0.10]
            sched, sent, late, _ = run.open_loop(
                ctx, srv.server_address[1], [op] * 3, offsets)
        finally:
            srv.shutdown()
            t.join()
            srv.server_close()
        self.assertEqual((ctx.attempted, ctx.failed), (3, 0))
        self.assertEqual(len(late), 3)
        # The stall delays the two requests queued behind it: their
        # latency counts the wait, although each was answered at once.
        self.assertGreater(sched[0], _Stall.STALL * 0.9)
        self.assertGreater(sched[1], _Stall.STALL - 0.05 - 0.02)
        self.assertGreater(sched[2], _Stall.STALL - 0.10 - 0.02)
        self.assertLess(sent[1], 0.1)
        self.assertLess(sent[2], 0.1)


class _Record(http.server.BaseHTTPRequestHandler):
    """Answers "x\\n" after DELAY seconds and records each request body
    in arrival order."""
    protocol_version = "HTTP/1.1"
    DELAY = 0.0
    seen = []

    def do_POST(self):
        _Record.seen.append(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        time.sleep(_Record.DELAY)
        body = b"x\n"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _Clock:
    """A stand-in service whose CPU seconds are the wall clock."""

    def cpu_s(self):
        return time.perf_counter()


def _serve(delay, fn):
    _Record.DELAY, _Record.seen = delay, []
    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Record)
    t = threading.Thread(target=srv.serve_forever)
    t.start()
    try:
        return fn(srv.server_address[1])
    finally:
        srv.shutdown()
        t.join()
        srv.server_close()


def _op(text):
    return {"k": "q", "q": text, "md5": hashlib.md5(b"x\n").hexdigest()}


class Loops(unittest.TestCase):
    def test_lockstep_alternates_connections(self):
        per_conn = [[_op(f"a{i}") for i in range(3)], [_op(f"b{i}") for i in range(2)]]
        ctx = _Ctx()
        lats = _serve(0.0, lambda port: run.lockstep(ctx, port, per_conn))
        self.assertEqual(_Record.seen, [b"a0", b"b0", b"a1", b"b1", b"a2"])
        self.assertEqual((ctx.attempted, ctx.failed), (5, 0))
        self.assertEqual(len(lats["q"]), 5)

    def test_cpu_over_complete_rounds_only(self):
        # Each request takes 0.2 s and a little more: the first round of
        # 3 ends after 0.6 s, the second is cut when 0.9 s are up.
        rounds = [[_op(f"r{r}q{i}") for i in range(3)] for r in range(3)]
        ctx = _Ctx()
        lat, done, elapsed, cpu, cpu_ops = _serve(
            0.2, lambda port: run.round_loop(ctx, port, _Clock(), rounds, 0.9))
        self.assertIn(done, (4, 5))
        self.assertEqual((cpu_ops, len(lat)), (3, done))
        self.assertGreater(cpu, 0.55)
        self.assertLess(cpu, elapsed - 0.15)


class Partition(unittest.TestCase):
    """Each annotate connection touches only the documents it owns, in
    an exact op mix."""

    def test_connections_own_disjoint_documents(self):
        root = os.getcwd()
        try:
            run.build(root)
        except run.BenchError as e:
            self.skipTest(str(e))
        probe = os.path.join(root, "_build", "default", "perfbench", "probe.exe")
        plans = []
        with tempfile.TemporaryDirectory() as tmp:
            for conn in (0, 1):
                out = os.path.join(tmp, f"{conn}.json")
                subprocess.run([probe, "tei", "--seed", "3", "--conns", "2", "--ops",
                                "60", "--conn", str(conn), "--out", out], check=True)
                with open(out) as f:
                    plans.append(json.load(f))
        owner = plans[0]["owner"]
        self.assertEqual(owner, plans[1]["owner"])
        bulk = [d["name"] for op in plans[0]["bulk"] for d in op["docs"]]
        self.assertEqual(len(bulk), 64)
        self.assertEqual(sorted(owner[n] for n in bulk), [0] * 32 + [1] * 32)
        for conn, plan in enumerate(plans):
            self.assertEqual(plan["conn"], conn)
            self.assertEqual(len(plan["ops"]), 60)
            # Every block of 20 ops holds 14 queries, 5 updates, 1 ingest.
            for b in range(0, 60, 20):
                kinds = [op["k"] for op in plan["ops"][b:b + 20]]
                self.assertEqual(kinds.count("q"), 14)
                self.assertEqual(kinds.count("u") + kinds.count("s"), 5)
                self.assertEqual(kinds.count("i"), 1)
            for op in plan["ops"]:
                if op["k"] == "q":
                    docs = re.findall(r'doc\("([^"]+)"\)', op["q"])
                elif op["k"] == "i":
                    docs = [d["name"] for d in op["docs"]]
                else:
                    docs = [op["doc"]]
                self.assertTrue(docs)
                for d in docs:
                    self.assertEqual(owner[d], conn, (conn, op["k"], d))


if __name__ == "__main__":
    unittest.main()
