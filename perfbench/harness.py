"""Shared pieces of the benchmark: the host-speed reference, the server
process, the health prober, the models, output checks and environment facts.

Only public ``repro`` functions are called; the package is imported from
the checkout's ``src/`` directory (see :func:`import_repro`).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch output (trace files) written inside the checkout.
OUT = ROOT / ".perfbench-out"

COLOURS = 16
#: Health probes: open loop at this rate; slower than the limit counts as slow.
PROBE_RATE_PER_S = 10.0
PROBE_LIMIT_S = 0.050
SERVER_WORKERS = 2
#: The server shuts itself down after this long even if never stopped.
SERVER_MAX_SECONDS = 170


#: The reference chunk's time on a 2.0 GHz Xeon vCPU in its fast state;
#: scaled timings are in time on such a core.
REFERENCE_S = 0.005


def pin_to_one_core() -> int:
    """Run this process, and every process it starts, on one core.

    The server and its workers inherit the affinity, so the reference
    chunk timed here measures the core the whole system under test runs on.
    """
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


class HostSpeed:
    """A fixed chunk of interpreter, numpy and json work, timed beside each op.

    A vCPU of a shared VM can switch between two speeds (about 1.5x apart
    on a 2-vCPU 2.0 GHz Xeon VM) for seconds at a time, so wall times of
    the same work spread by up to 2x from run to run.  :meth:`scale`
    divides a wall time by the chunk's time around it, and expresses it as
    time on a core where the chunk takes ``REFERENCE_S``.  Nothing in the
    chunk calls ``repro``.
    """

    def __init__(self) -> None:
        self._array = np.random.default_rng(0).random((32, 4096))
        self._items = list(range(20000))
        self.samples: list[float] = []

    def time_chunk(self) -> float:
        start = perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        np.sort(self._array, axis=1)
        json.loads(json.dumps(self._items))
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def median_chunk(self, count: int) -> float:
        return statistics.median(self.time_chunk() for _ in range(count))

    @staticmethod
    def scale(wall_s: float, chunk_before: float, chunk_after: float) -> float:
        return wall_s * REFERENCE_S / ((chunk_before + chunk_after) / 2)


def import_repro():
    """Put ``src/`` first on the path; fail clearly when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    return repro


def torus_coloring(side: int):
    """Proper q=16 colouring of the ``side`` x ``side`` torus (the served model)."""
    from repro.graphs.generators import torus_graph
    from repro.mrf import proper_coloring_mrf

    return proper_coloring_mrf(torus_graph(side, side), COLOURS)


def digest(result) -> str:
    """SHA-256 of a job result's exact bits (array bytes or the int)."""
    if isinstance(result, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(result, dtype=np.int64).tobytes()).hexdigest()
    return hashlib.sha256(repr(result).encode()).hexdigest()


def edge_arrays(graph) -> tuple[np.ndarray, np.ndarray]:
    edges = np.asarray(sorted(graph.edges()), dtype=np.int64).reshape(-1, 2)
    return edges[:, 0], edges[:, 1]


def coloring_feasible(batch: np.ndarray, graph) -> bool:
    """No edge of ``graph`` is monochromatic in any row of ``batch``."""
    u, v = edge_arrays(graph)
    return not bool(np.any(batch[:, u] == batch[:, v]))


def hardcore_feasible(batch: np.ndarray, graph) -> bool:
    """No edge of ``graph`` has both ends occupied in any row of ``batch``."""
    u, v = edge_arrays(graph)
    return not bool(np.any((batch[:, u] == 1) & (batch[:, v] == 1)))


def dominating_feasible(batch: np.ndarray, graph) -> bool:
    """Every closed neighbourhood holds a 1 in every row of ``batch``."""
    u, v = edge_arrays(graph)
    picked = (batch == 1).astype(np.int64)
    covered = picked.copy()
    np.add.at(covered, (slice(None), u), picked[:, v])
    np.add.at(covered, (slice(None), v), picked[:, u])
    return bool(np.all(covered > 0))


class ServerProcess:
    """``python -m repro serve`` in its own process, plus a client for it.

    The server binds an ephemeral port and prints it; construction returns
    once ``GET /v1/health`` answers.  :meth:`close` interrupts the server
    (it then closes its worker pool) and waits for it to exit.
    """

    def __init__(self, trace_file: Path | None = None) -> None:
        from repro.serve import ServeClient

        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--workers", str(SERVER_WORKERS), "--max-seconds", str(SERVER_MAX_SECONDS),
        ]
        if trace_file is not None:
            command += ["--trace", str(trace_file)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            line = self.process.stdout.readline()
            match = re.search(r"http://([^:\s]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not report its address: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            self.client = ServeClient(self.host, self.port, timeout=170.0)
            self.client.health()
        except BaseException:
            self.close()
            raise

    def pids(self) -> list[int]:
        """The server pid and its direct children (the worker pool)."""
        pids = [self.process.pid]
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == self.process.pid:
                pids.append(int(entry.name))
        return pids

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (VmHWM) of the server and its workers."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait(timeout=30)
        self.process.stdout.close()


class HealthProber:
    """One thread sending ``GET /v1/health`` in an open loop.

    Probe ``k`` is due at ``start + k / rate``; its latency is measured
    from that due time, so a stalled server also delays (and is charged
    for) the probes queued behind the stall.  ``lateness`` records how late
    the generator itself sent each probe.
    """

    def __init__(self, host: str, port: int) -> None:
        from repro.serve import ServeClient

        self._client = ServeClient(host, port, timeout=30.0)
        self._stop = threading.Event()
        self.latencies: list[float] = []
        self.lateness: list[float] = []
        self._thread = threading.Thread(target=self._run, name="perfbench-probe", daemon=True)

    def start(self) -> HealthProber:
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=60)

    def _run(self) -> None:
        from repro.errors import ServeError

        start = perf_counter()
        k = 0
        while not self._stop.is_set():
            due = start + k / PROBE_RATE_PER_S
            k += 1
            wait = due - perf_counter()
            if wait > 0 and self._stop.wait(wait):
                return
            self.lateness.append(max(0.0, perf_counter() - due))
            try:
                self._client.health()
            except ServeError:
                self.latencies.append(float("inf"))
                continue
            self.latencies.append(perf_counter() - due)

    def slow_share(self) -> float | None:
        """Share of probes slower than the limit (failed probes count as slow)."""
        if not self.latencies:
            return None
        return sum(latency > PROBE_LIMIT_S for latency in self.latencies) / len(self.latencies)


def environment() -> dict:
    """Facts recorded beside every result."""
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            lines += sum(1 for _ in handle)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src.lines": lines,
    }
