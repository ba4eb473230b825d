"""The server under test, as a subprocess, and the one client process
that drives it over two keep-alive connections from two threads."""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import ROOT, SRC
from workloads import Answer, Query

#: Load-generating threads, one keep-alive connection each.
CONNECTIONS = 2
REQUEST_TIMEOUT_S = 60.0
_SERVING = re.compile(rb"serving on http://\S+:(\d+)")


class Server:
    """One ``repro serve`` subprocess.

    Its stdout and stderr are drained to ``<name>.stdout`` and
    ``<name>.stderr`` in the run directory.  :meth:`stop` (also run by
    ``with``) drains it with SIGTERM and kills it if that takes longer
    than a minute, so no exit path leaves a server behind.
    """

    def __init__(self, argv: Sequence[str], run_dir: Path,
                 name: str) -> None:
        self.argv = list(argv)
        self.name = name
        self._run_dir = run_dir
        self.port: Optional[int] = None
        self._proc: Optional[subprocess.Popen] = None
        self._ready = threading.Event()
        self._ready_at = 0.0
        self._reader: Optional[threading.Thread] = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def start(self, timeout_s: float = 120.0) -> float:
        """Spawn the server; returns seconds from spawn to its
        "serving on" line."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        stderr = open(self._run_dir / f"{self.name}.stderr", "wb")
        started = time.perf_counter()
        try:
            self._proc = subprocess.Popen(
                self.argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=stderr)
        finally:
            stderr.close()  # the child holds its own descriptor
        self._reader = threading.Thread(target=self._drain_stdout,
                                        name=f"{self.name}-stdout",
                                        daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout_s) or self.port is None:
            self.stop()
            raise RuntimeError(f"{self.name} did not announce a port; "
                               f"see {self.name}.stderr:\n"
                               f"{self._stderr_tail()}")
        return self._ready_at - started

    def _drain_stdout(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        with open(self._run_dir / f"{self.name}.stdout", "wb") as log:
            for line in self._proc.stdout:
                log.write(line)
                if self.port is None:
                    match = _SERVING.search(line)
                    if match:
                        self._ready_at = time.perf_counter()
                        self.port = int(match.group(1))
                        self._ready.set()
        self._ready.set()  # wakes start() when the server died early

    def _stderr_tail(self) -> str:
        path = self._run_dir / f"{self.name}.stderr"
        return path.read_text(errors="replace")[-2000:]

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        with open(f"/proc/{self.pid}/stat", "r") as handle:
            data = handle.read()
        fields = data[data.rindex(")") + 2:].split()
        ticks = int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> Optional[int]:
        """Drain (SIGTERM), then kill after a minute; returns the exit
        code, or None when the server never started."""
        proc = self._proc
        if proc is None:
            return None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(60.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._reader is not None:
            self._reader.join(10.0)
        return proc.returncode


@dataclass
class Record:
    """One request as the client saw it."""

    step: str
    kind: str                      # "search" or "reload"
    index: int                     # position in the step's stream
    query: Optional[Query] = None
    status: int = 0                # 0: transport error
    rt_ms: float = math.nan        # round trip
    latency_ms: float = math.nan   # open step: completion - due time
    late_ms: float = math.nan      # open step: send - due time
    elapsed_ms: float = math.nan   # the server's own elapsed_ms
    trace_id: Optional[str] = None
    answer: Optional[Answer] = None
    corpus: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Step:
    name: str
    records: List[Record]
    wall_s: float
    #: The closed loop ran out of stream before its time was up.
    exhausted: bool = False

    @property
    def searches(self) -> List[Record]:
        return [r for r in self.records if r.kind == "search"]

    @property
    def qps(self) -> float:
        """Searches completed per second of the step."""
        return sum(r.ok for r in self.searches) / self.wall_s


class Client:
    """Two keep-alive connections to one server."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._connections = [self._connect() for _ in range(CONNECTIONS)]

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self._port,
                                          timeout=REQUEST_TIMEOUT_S)

    def close(self) -> None:
        for connection in self._connections:
            connection.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def call(self, slot: int, method: str, path: str,
             payload: Optional[Dict[str, Any]] = None
             ) -> Tuple[int, Any]:
        """One request on connection ``slot``; a transport error
        reconnects the slot and re-raises."""
        connection = self._connections[slot]
        body = None if payload is None else json.dumps(payload).encode()
        try:
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            self._connections[slot] = self._connect()
            raise
        return response.status, json.loads(raw)

    def counters(self) -> Dict[str, float]:
        """The server's metric counters (``GET /metrics?format=json``)."""
        status, body = self.call(0, "GET", "/metrics?format=json")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return dict(body["metrics"]["counters"])

    def run_step(self, name: str, queries: Sequence[Query],
                 seconds: Optional[float] = None,
                 offsets: Optional[Sequence[float]] = None,
                 reloads: Sequence[float] = ()) -> Step:
        """Drive one step from both connections.

        Closed loop (``offsets`` None): each connection sends the next
        query when its previous one returns, until ``seconds`` pass
        (or the stream ends).  Open loop: query ``i`` is due at
        ``offsets[i]`` after the start; a query whose connection is
        still busy waits, and its latency counts from the due time.
        ``reloads`` are the offsets at which a ``POST /reload`` takes
        the next free connection.

        The client's cyclic garbage collector is off during the step:
        the records it keeps would make each collection longer, and a
        collection stalls both connections at once.
        """
        lock = threading.Lock()
        records: List[Record] = []
        cursor = {"query": 0, "reload": 0}
        exhausted = [False]
        stopping = threading.Event()
        start = time.perf_counter()

        def take() -> Optional[Tuple[str, int, Optional[float]]]:
            with lock:
                elapsed = time.perf_counter() - start
                if stopping.is_set() or (seconds is not None
                                         and elapsed >= seconds):
                    return None
                q, r = cursor["query"], cursor["reload"]
                reload_due = reloads[r] if r < len(reloads) else math.inf
                if offsets is None:
                    if reload_due <= elapsed:
                        cursor["reload"] += 1
                        return "reload", r, None
                    if q >= len(queries):
                        exhausted[0] = seconds is not None
                        return None
                    cursor["query"] += 1
                    return "search", q, None
                query_due = offsets[q] if q < len(queries) else math.inf
                if reload_due == query_due == math.inf:
                    return None
                if reload_due < query_due:
                    cursor["reload"] += 1
                    return "reload", r, reload_due
                cursor["query"] += 1
                return "search", q, query_due

        def worker(slot: int) -> None:
            while True:
                job = take()
                if job is None:
                    return
                kind, index, offset = job
                due = None if offset is None else start + offset
                if due is not None:
                    delay = due - time.perf_counter()
                    if delay > 0 and stopping.wait(delay):
                        return
                record = Record(step=name, kind=kind, index=index)
                if kind == "search":
                    record.query = queries[index]
                self._send(slot, record, due)
                with lock:
                    records.append(record)

        threads = [threading.Thread(target=worker, args=(slot,),
                                    name=f"client-{slot}")
                   for slot in range(CONNECTIONS)]
        collecting = gc.isenabled()
        gc.disable()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            # An interrupt lands in this thread: stop the workers before
            # the caller's exit path stops the server under them.
            stopping.set()
            for thread in threads:
                if thread.is_alive():
                    thread.join()
            if collecting:
                gc.enable()
        wall = time.perf_counter() - start
        records.sort(key=lambda r: (r.kind, r.index))
        return Step(name, records, wall, exhausted[0])

    def _send(self, slot: int, record: Record,
              due: Optional[float]) -> None:
        if record.kind == "search":
            assert record.query is not None
            terms, k = record.query
            path, payload = "/search", {"keywords": list(terms), "k": k}
        else:
            path, payload = "/reload", {}
        sent = time.perf_counter()
        try:
            status, body = self.call(slot, "POST", path, payload)
        except (OSError, http.client.HTTPException, ValueError) as error:
            record.error = f"transport: {type(error).__name__}: {error}"
            return
        finally:
            done = time.perf_counter()
            record.rt_ms = (done - sent) * 1000.0
            if due is not None:
                record.latency_ms = (done - due) * 1000.0
                record.late_ms = (sent - due) * 1000.0
        record.status = status
        if status != 200:
            code = body.get("error", {}).get("code") \
                if isinstance(body, dict) else None
            record.error = f"HTTP {status} {code}"
            return
        if record.kind == "reload":
            return
        record.elapsed_ms = float(body["elapsed_ms"])
        record.trace_id = body.get("trace_id")
        record.answer = [[row["code"], row["probability"]]
                         for row in body["results"]]
        record.corpus = body.get("corpus")
        if body.get("partial"):
            record.error = f"partial: {body.get('termination_reason')}"
