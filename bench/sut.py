"""Starting and stopping the system under test.

In-process workloads build a :class:`~bench.world.World` here; socket
workloads spawn one ``bench.server`` child and keep only its address and
the paths of its durable files.  Either way the caller gets the same
handle: make callers, read the WAL size, close it and learn the peak RSS
of the process that hosted the database.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

from repro.workload.templates import make_t1

from bench import spec
from bench.loadgen import BackgroundSpeedometer, InprocCaller, SocketCaller
from bench.streams import warmup_reads
from bench.world import build_world, dir_bytes, peak_rss_mb, reset_peak_rss

__all__ = ["OUT_DIR", "ROOT", "Sut", "start_sut"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")


class Sut:
    """A started system under test and the way to reach it.

    In-process: a :class:`~bench.world.World` in this process.  Socket:
    one ``bench.server`` child; this side holds only its address and the
    paths of its durable files.  Construction starts the set-up (for a
    child, without waiting for it); :meth:`ready` finishes it.
    ``setup_seconds`` runs from before the data load (or the spawn)
    until the seeded warm-up has been answered.
    """

    def __init__(
        self, workload: spec.Workload, directory: str, seed: int, transport: str | None = None
    ) -> None:
        self.workload = workload
        self.shape = spec.SHAPES[workload.shape]
        self.directory = directory
        self.world = None
        self.child = None
        self.address = None
        self.template = None
        self._seen = [0]  # highest LSN acknowledged to any socket caller
        self._callers = 0
        inproc = (transport or workload.transport) == "inproc"
        if inproc:
            reset_peak_rss()
        self._began = time.perf_counter()
        if inproc:
            self.world = build_world(
                self.shape, directory, replicated=workload.replicated,
                async_cdc=workload.async_cdc,
            )
        else:
            self.template = make_t1()
            self._spawn()
        self.snapshot_path = os.path.join(directory, "snapshot.json")
        self.wal_dir = os.path.join(directory, "wal")
        self._seed = seed
        self.setup_seconds = 0.0

    def ready(self) -> "Sut":
        """Wait for the child to listen, run the warm-up, stop the
        set-up clock."""
        if self.child is not None:
            line = self.child.stdout.readline()
            if not line:
                raise RuntimeError("bench.server exited before it was ready")
            self.address = ("127.0.0.1", json.loads(line)["port"])
        self._warm_up(self._seed)
        self.setup_seconds = time.perf_counter() - self._began
        return self

    def _spawn(self) -> None:
        request = {
            "shape": self.shape.name,
            "directory": self.directory,
            "replicated": self.workload.replicated,
            "async_cdc": self.workload.async_cdc,
        }
        self.child = subprocess.Popen(
            [sys.executable, "-m", "bench.server", json.dumps(request)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def _warm_up(self, seed: int) -> None:
        caller = self.caller()
        try:
            for op in warmup_reads(self.shape, self.workload, seed, self.workload.replicated):
                caller.do(op)
        finally:
            caller.close()

    def caller(self):
        self._callers += 1
        if self.world is not None:
            return InprocCaller(self.world)
        return SocketCaller(
            self.address, f"gen-{self._callers}", self.shape, self.template, self._seen
        )

    def wal_bytes(self) -> int:
        return dir_bytes(self.wal_dir)

    def close(self) -> float:
        """Stop the system; returns the peak RSS (MB) of the process
        that hosted the database."""
        if self.world is not None:
            self.world.close()
            self.world = None
            return peak_rss_mb()
        child, self.child = self.child, None
        try:
            child.stdin.close()
            tail = child.stdout.read()
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        return json.loads(tail.strip().splitlines()[-1])["peak_rss_mb"]

    def abort(self) -> None:
        if self.child is not None:
            self.child.kill()
            self.child.wait()
            self.child = None
        if self.world is not None:
            self.world.close()
            self.world = None


def start_sut(
    workload: spec.Workload, scratch: str, seed: int, repeats: int
) -> tuple[Sut, list[tuple[float, float]]]:
    """Set the system up ``repeats`` times, keep the last one running.
    Returns it with every set-up time as ``(at reference speed, raw)``
    seconds (the metric is the median); the calibration kernel runs on
    a thread of its own while each set-up is under way."""
    times: list[tuple[float, float]] = []
    for attempt in range(repeats):
        directory = os.path.join(scratch, f"setup-{attempt}")
        with BackgroundSpeedometer() as speed:
            sut = Sut(workload, directory, seed).ready()
        times.append((sut.setup_seconds * speed.factor(), sut.setup_seconds))
        if attempt < repeats - 1:
            sut.close()
            shutil.rmtree(directory, ignore_errors=True)
    return sut, times
