"""``serve-mixed``: a closed loop over one keep-alive connection to
``repro serve --jobs 1``.

The server is booted by the benchmark on a fresh cache directory inside
the checkout and filled with the hit set during set-up.  Each round sends
a fixed mix in a seeded order: every small hit job
:data:`SMALL_REPEATS` times, every large hit job once, and
:data:`MISS_WORKLOADS` as never-seen jobs, made distinct by a seeded
``heating_rate`` override, so each compiles in the worker and writes both
cache tiers.  Every response is checked against the benchmark's own
in-process compile and execute of the same job.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import shutil
import subprocess
import sys
import tempfile
import time

import repro
from repro.sim import execute

from .checks import gate_order_problems, report_fields, report_problems
from .harness import Clock, Tracer, process_peak_rss_mb
from .workloads import PassResult

#: Five jobs per size class, each sent equally often: with an odd count
#: the class median falls inside one job's latencies, not on the gap
#: between two jobs.
SMALL_JOBS = ("Adder_n32", "BV_n32", "GHZ_n32", "QAOA_n32", "QFT_n32")
LARGE_JOBS = ("QFT_n128", "SQRT_n117", "Adder_n128", "QAOA_n128", "GHZ_n128")
SMALL_REPEATS = 5
MISS_WORKLOADS = ("GHZ_n32", "QFT_n32")
MACHINE = "eml"

TINY_SMALL_JOBS = ("GHZ_n16", "BV_n16")
TINY_LARGE_JOBS = ("GHZ_n128",)

BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


class ServerProcess:
    """One ``repro serve`` child on an ephemeral port; :meth:`stop` ends
    it and removes its cache directory."""

    def __init__(self, root: str, scratch: str) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="serve-", dir=scratch)
        self.log = open(os.path.join(self.cache_dir, "server.log"), "wb")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", "1", "--port", "0",
             "--cache-dir", os.path.join(self.cache_dir, "cache")],
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=env,
            cwd=root,
        )
        self.conn = None
        try:
            self.port = self._await_port()
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError("repro serve did not announce its port in time")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError(f"repro serve exited with {self.proc.wait()}")
            line += chunk
        match = re.search(rb"http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected announce line {line!r}")
        return int(match.group(1))

    def request(self, method: str, path: str, payload=None) -> tuple[int, bytes]:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class ServeWorkload:
    def __init__(
        self, root: str, seed: int, reference_execute, tracer: Tracer, tiny: bool = False
    ) -> None:
        self.root = root
        self.reference_execute = reference_execute
        self.scratch = os.path.join(root, ".perfbench")
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.small = TINY_SMALL_JOBS if tiny else SMALL_JOBS
        self.large = TINY_LARGE_JOBS if tiny else LARGE_JOBS
        self.misses = self.small[:1] if tiny else MISS_WORKLOADS
        self.server: ServerProcess | None = None
        self.used_physics: set[str] = set()
        self.planned = {"hits": 0, "misses": 0}
        self.hit_ms = {"small": [], "large": []}
        self.miss_ms: list[float] = []
        self.spans: dict[str, list[float]] = {}

    def setup(self) -> None:
        """Compile every hit job in-process (the expected reports), boot a
        fresh server and fill its cache with the hit set."""
        self.close()
        tracer = self.tracer
        expected, programs = {}, {}
        for app in self.small + self.large:
            with tracer.span("workloads.generate", app):
                circuit = repro.get_benchmark(app)
            with tracer.span("hardware.resolve", MACHINE):
                machine = repro.resolve_machine(MACHINE, circuit.num_qubits)
            with tracer.span("setup.compile", app):
                programs[app] = repro.compile(circuit, machine).program
                expected[app] = report_fields(execute(programs[app]))
        self.expected, self.programs = expected, programs
        os.makedirs(self.scratch, exist_ok=True)
        with tracer.span("setup.boot"):
            self.server = ServerProcess(self.root, self.scratch)
        with tracer.span("setup.fill"):
            for app in self.small + self.large:
                status, body = self.server.request("POST", "/compile", {"workload": app})
                if status != 200:
                    raise RuntimeError(f"filling {app} failed: {status} {body[:200]!r}")
        self.planned = {"hits": 0, "misses": len(self.small) + len(self.large)}

    def setup_problems(self) -> list[str]:
        """The in-process programs the responses are checked against pass
        the order check and match the reference executor.  Run once,
        after the timed set-ups; the large programs are dropped after."""
        problems = []
        for app, program in self.programs.items():
            problems += [f"{app}: {p}" for p in gate_order_problems(program)]
            problems += report_problems(
                self.expected[app], self.reference_execute(program), f"{app} reference"
            )
        self.programs = {app: self.programs[app] for app in self.misses}
        return problems

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _fresh_physics(self) -> str:
        """A ``heating_rate`` override never used in this run (and never
        equal to Table 1's 0.001, which would canonicalise to a hit)."""
        while True:
            spec = f"table1?heating_rate={self.rng.randrange(1, 10**6) * 1e-9!r}"
            if spec not in self.used_physics:
                self.used_physics.add(spec)
                return spec

    def _round(self) -> list[tuple[str, str, dict]]:
        jobs = [("small", app, {"workload": app}) for app in self.small] * SMALL_REPEATS
        jobs += [("large", app, {"workload": app}) for app in self.large]
        jobs += [
            ("miss", app, {"workload": app, "physics": self._fresh_physics()})
            for app in self.misses
        ]
        self.rng.shuffle(jobs)
        self.planned["misses"] += len(self.misses)
        self.planned["hits"] += len(jobs) - len(self.misses)
        return jobs

    def run_pass(self, traced: bool) -> PassResult:
        result = PassResult(traced=traced)
        clock = Clock()
        jobs = self._round()
        replies = []
        with clock.timed():
            for index, (kind, app, payload) in enumerate(jobs):
                with self.tracer.span("serve.request", f"{kind}:{app}:{index}"):
                    started = time.perf_counter()
                    status, body = self.server.request("POST", "/compile", payload)
                    replies.append((time.perf_counter() - started, status, body))
        result.clocked(clock)
        for (kind, app, payload), (seconds, status, body) in zip(jobs, replies):
            latency_ms = seconds * 1000.0
            result.record(self._check(kind, app, payload, status, body, latency_ms, result))
        return result

    def _check(self, kind, app, payload, status, body, latency_ms, result) -> list[str]:
        label = f"{kind} {app} {payload.get('physics', 'table1')}"
        if status != 200:
            return [f"{label}: HTTP {status}: {body[:200]!r}"]
        reply = json.loads(body)
        report = reply["report"]
        result.shuttles += report["shuttle_count"]
        result.makespan_us += report["makespan_us"]
        spans = {span["name"]: span["ms"] for span in reply["spans"]}
        if kind == "miss":
            self.miss_ms.append(latency_ms)
            params = repro.resolve_physics(payload["physics"])
            expected = execute(self.programs[app], params)
            want_cache = "miss"
        else:
            self.hit_ms[kind].append(latency_ms)
            expected = self.expected[app]
            want_cache = "memory"
            spans["transport"] = latency_ms - sum(spans.values())
        prefix = "miss" if kind == "miss" else "hit"
        for name, ms in spans.items():
            self.spans.setdefault(f"{prefix}.{name}", []).append(ms)
        problems = report_problems(report, expected, label)
        if reply["cache"] != want_cache:
            problems.append(f"{label}: served from {reply['cache']!r}, planned {want_cache!r}")
        return problems

    def stats_problems(self) -> list[str]:
        """``/stats`` hit and miss counts must equal the planned stream."""
        status, body = self.server.request("GET", "/stats")
        if status != 200:
            return [f"/stats: HTTP {status}"]
        cache = json.loads(body)["cache"]
        served = {"hits": cache["memory_hits"] + cache["disk_hits"], "misses": cache["misses"]}
        self.served = served
        return [
            f"/stats {name}: {served[name]}, planned {self.planned[name]}"
            for name in ("hits", "misses")
            if served[name] != self.planned[name]
        ]
