"""The ``serve-query`` workload: a ``repro serve`` process under a closed loop.

The server is a subprocess started with default settings (``--port 0`` only
picks a free port).  This process is the single client: :data:`CONNECTIONS`
threads, each with its own keep-alive :class:`ServiceClient`, share one
session and send their next request only after the previous reply.  Set-up
loads the seeded chain, chases it once, and sends :data:`WARMUP_OPS`
requests per connection; the window then runs for the given seconds.

The server's peak RSS is read when the window has completed
:data:`RSS_AT_REQUESTS` requests, not at its end.  The server keeps bounded
rings of recent requests (the access log and the trace ring), and every
write adds a fact, so its RSS grows with the request count until the rings
are full.  Read at the end of the window, a faster host or faster code
would read as more memory.  A window with fewer requests reads it at its
end.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

from inputs import ServeInputs
from repro.service.client import ServiceAPIError, ServiceClient
from tracing import CLOCK

HERE = Path(__file__).resolve().parent
CONNECTIONS = 2
WARMUP_OPS = 25
RSS_AT_REQUESTS = 1000
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


def answers_digest(answers) -> str:
    return hashlib.sha256(json.dumps(answers).encode("utf-8")).hexdigest()


def expected_answers(inputs: ServeInputs) -> Dict[str, object]:
    """The query's answers, computed in-process by ``repro.query.evaluate``."""
    from repro.chase.tgd import parse_tgds
    from repro.core.builders import parse_cq, structure_from_text
    from repro.engine import run_chase
    from repro.query import EvalContext, evaluate

    context = EvalContext()
    chased = run_chase(
        parse_tgds(inputs.rule), structure_from_text(inputs.facts), context=context
    ).structure
    answers = evaluate(parse_cq(inputs.query), chased, context=context)
    rows = sorted([str(term) for term in row] for row in answers)
    # Every write adds exactly one fact.
    return {"count": len(rows), "digest": answers_digest(rows), "added": 1}


def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of stat(5); fields[0] is field 3.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


class Server:
    """A ``repro serve`` subprocess on a free port; stopped by :meth:`stop`."""

    def __init__(self, traced: bool) -> None:
        command = [sys.executable, "-u"]
        if traced:
            command += [str(HERE / "traced_server.py")]
        else:
            command += ["-m", "repro", "serve"]
        command += ["--port", "0"]
        self.started_at = CLOCK()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> str:
        """SIGTERM, then wait; returns what the server printed after start."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            output, _ = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            output, _ = self.process.communicate()
        return output or ""


class Loop:
    """The shared op stream and per-request results of the closed loop."""

    def __init__(self, inputs: ServeInputs, expected: Dict[str, object]) -> None:
        self.inputs = inputs
        self.expected = expected
        self._lock = threading.Lock()
        self.results: List[tuple] = []  # (latency_s, kind, ok)
        self.sampled = None

    def next_op(self):
        with self._lock:
            return self.inputs.next_op()

    def one(self, client, session: str) -> tuple:
        kind, text = self.next_op()
        began = time.perf_counter()
        try:
            if kind == "query":
                reply = client.query(session, "tc", text)
            else:
                reply = client.extend(session, "tc", text)
        except (ServiceAPIError, OSError, ValueError, http.client.HTTPException):
            return time.perf_counter() - began, kind, False
        latency = time.perf_counter() - began
        try:
            if kind == "query":
                ok = (
                    reply["count"] == self.expected["count"]
                    and answers_digest(reply["answers"]) == self.expected["digest"]
                )
            else:
                ok = reply["added"] == self.expected["added"]
        except (KeyError, TypeError):
            ok = False
        return latency, kind, ok

    def _on_each(self, clients, drive) -> None:
        threads = [threading.Thread(target=drive, args=(c,)) for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def warm(self, clients, session: str, ops: int) -> None:
        """*ops* requests per connection, results discarded."""
        self._on_each(
            clients, lambda client: [self.one(client, session) for _ in range(ops)]
        )

    def run(self, clients, session: str, seconds: float, sample_at: int,
            sample) -> None:
        """The closed loop: every connection sends until *seconds* have passed.

        ``sample()`` is called once, when *sample_at* requests have completed,
        and its value kept in :attr:`sampled`.
        """
        deadline = time.perf_counter() + seconds

        def drive(client) -> None:
            while time.perf_counter() < deadline:
                result = self.one(client, session)
                with self._lock:
                    self.results.append(result)
                    if len(self.results) == sample_at:
                        self.sampled = sample()

        self._on_each(clients, drive)


def run_serve(seed: int, seconds: float, traced: bool = False,
              setup_only: bool = False, corrupt=None) -> dict:
    inputs = ServeInputs(seed)
    expected = expected_answers(inputs)
    if corrupt is not None:
        corrupt(expected)
    server = Server(traced)
    clients = [ServiceClient(server.host, server.port) for _ in range(CONNECTIONS)]
    try:
        admin = clients[0]
        session = admin.create_session("perfbench")["id"]
        admin.load(session, "chain", inputs.facts)
        admin.chase(session, "chain", [inputs.rule], result_name="tc")
        loop = Loop(inputs, expected)
        loop.warm(clients, session, WARMUP_OPS)
        setup_s = CLOCK() - server.started_at
        if setup_only:
            return {"setup_s": setup_s}

        before = _server_counters(admin, session)
        cpu_start = _proc_cpu_seconds(server.pid)
        window_start = CLOCK()
        loop.run(
            clients, session, seconds, RSS_AT_REQUESTS,
            lambda: _proc_peak_rss_mb(server.pid),
        )
        window_end = CLOCK()
        cpu = _proc_cpu_seconds(server.pid) - cpu_start
        peak_rss_mb = loop.sampled or _proc_peak_rss_mb(server.pid)
        after = _server_counters(admin, session)
    finally:
        for client in clients:
            client.close()
        output = server.stop()

    latencies = [latency for latency, _, _ in loop.results]
    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "attempted": len(latencies),
        "failed": sum(1 for _, _, ok in loop.results if not ok),
        "wall": window_end - window_start,
        "cpu": cpu,
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        spans = _spans(output)
        result["trace"] = {
            "ops": [op for op in spans if window_start <= op["start"] <= window_end],
            "client_seconds": sum(latencies),
            "shape_hits": after["hits"] - before["hits"],
            "shape_misses": after["misses"] - before["misses"],
            "context_plans_compiled": after["plans_compiled"]
            - before["plans_compiled"],
        }
    return result


def _server_counters(client, session: str) -> Dict[str, int]:
    shapes = client.server_stats()["shape_cache"]
    context = client.show_session(session)["context"]
    return {
        "hits": shapes["hits"],
        "misses": shapes["misses"],
        "plans_compiled": context["plans_compiled"],
    }


def _spans(output: str) -> List[dict]:
    for line in output.splitlines():
        if line.startswith("SPANS "):
            return json.loads(line[len("SPANS "):])
    raise RuntimeError("traced server printed no span records")
