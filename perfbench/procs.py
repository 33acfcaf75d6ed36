"""Serving processes started by the benchmark: one service or one cluster.

Each :class:`ServingProcess` is a ``python -m repro.service`` or ``python -m
repro.cluster`` child.  ``start`` returns once the child printed its bound
address and answers ``/healthz``; ``stop`` sends SIGTERM and waits for the
child (and, through it, every replica) to exit.  Peak memory of stopped
children is read from ``RUSAGE_CHILDREN``.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

from repro.service import GraphCatalog
from repro.service.catalog import DatasetSource
from repro.service.client import ServiceClient

_ADDRESS = re.compile(r"http://([0-9.]+):(\d+)")
START_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0


def child_env(root: str) -> dict:
    """The environment of a serving child: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ServingProcess:
    """A started service or cluster child process."""

    def __init__(self, argv: List[str], root: str, *, expected_replicas: int = 0) -> None:
        self._argv = argv
        self._root = root
        self._expected_replicas = expected_replicas
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    @classmethod
    def service(cls, root: str, snapshot_dir: str) -> "ServingProcess":
        """One ``repro.service`` process warm-started from ``snapshot_dir``."""
        return cls(
            [sys.executable, "-m", "repro.service", "--port", "0", "--snapshot",
             snapshot_dir, "--allow-updates"],
            root,
        )

    @classmethod
    def cluster(cls, root: str, snapshot_dir: str, replicas: int = 2) -> "ServingProcess":
        """A ``repro.cluster`` router over ``replicas`` replicas of ``snapshot_dir``."""
        return cls(
            [sys.executable, "-m", "repro.cluster", "--port", "0", "--snapshot-dir",
             snapshot_dir, "--replicas", str(replicas), "--allow-updates"],
            root,
            expected_replicas=replicas,
        )

    def client(self, timeout: float = 300.0) -> ServiceClient:
        """A fail-fast client: a 429 surfaces instead of being retried."""
        return ServiceClient(self.host, self.port, timeout=timeout, max_retries=0)

    def start(self) -> "ServingProcess":
        self.process = subprocess.Popen(
            self._argv,
            cwd=self._root,
            env=child_env(self._root),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
            text=True,
            # Own process group: replicas inherit it, so ``stop`` can reap
            # any the cluster process left behind.
            start_new_session=True,
        )
        found: List[str] = []

        def read_banner() -> None:
            for line in self.process.stdout:
                match = _ADDRESS.search(line)
                if match:
                    found.append(line)
                    self.host, self.port = match.group(1), int(match.group(2))
                    break
            # Keep draining so a chatty child never blocks on a full pipe.
            for _ in self.process.stdout:
                pass

        reader = threading.Thread(target=read_banner, daemon=True)
        reader.start()
        deadline = time.monotonic() + START_TIMEOUT
        while not found:
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"serving process failed to start: {' '.join(self._argv)}")
            time.sleep(0.005)
        self._reader = reader
        self._await_healthy(deadline)
        return self

    def _await_healthy(self, deadline: float) -> None:
        client = self.client(timeout=10.0)
        while True:
            try:
                health = client.healthz()
                if not self._expected_replicas or health.get("healthy") == self._expected_replicas:
                    return
            except Exception:
                pass
            if time.monotonic() > deadline or self.process.poll() is not None:
                self.stop()
                raise RuntimeError("serving process never became healthy")
            time.sleep(0.005)

    def stop(self) -> None:
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        _reap_group(process.pid)
        reader = getattr(self, "_reader", None)
        if reader is not None:
            reader.join(timeout=5.0)
        if process.stdout is not None:
            process.stdout.close()
        self.process = None


def _reap_group(pgid: int) -> None:
    """Terminate whatever is left of a process group and wait until it is empty."""
    for sig, patience in ((signal.SIGTERM, STOP_TIMEOUT), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + patience
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.02)


def build_snapshot(config, graph_keys, directory: str) -> GraphCatalog:
    """Prepare ``graph_keys`` under ``config`` and save them as a snapshot in ``directory``."""
    shutil.rmtree(directory, ignore_errors=True)
    catalog = GraphCatalog(config)
    for key in graph_keys:
        catalog.register(key, DatasetSource(key))
    catalog.save_snapshot(directory)
    return catalog


def children_peak_rss_mb() -> float:
    """Largest resident set of any waited-for descendant, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    """Largest resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
