"""The replica supervisor: N shared-nothing service processes, kept alive.

Each replica is a full ``python -m repro.service`` process warm-started
from one snapshot directory (``--snapshot``) and, optionally, wired to
the shared sqlite result tier (``--shared-store``).  Shared-nothing is
deliberate: replicas share *no live state* — only the immutable snapshot
and the append-only result store — so one replica crashing, hanging, or
being killed cannot corrupt another, and scaling out is just launching
more of the same process.

The supervisor owns the replica lifecycle:

* **launch** — spawn each replica on an ephemeral port and parse the
  bound address from its banner line (the same line the CI smoke job
  parses), so replicas never fight over ports;
* **monitor** — a daemon thread polls the processes and respawns any
  that die, with exponential backoff capped at
  :data:`MAX_RESTART_DELAY` so a crash-looping replica cannot busy-spin
  the machine;
* **identity** — each replica occupies a stable *slot* (``replica-0``
  ...), which is what the router's hash ring is built over: a respawn
  changes the port, never the placement of keys.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exceptions import ClusterError

__all__ = ["ReplicaHandle", "ReplicaSupervisor"]

#: The service banner: ``serving <names> on http://<host>:<port> (...)``.
_BANNER = re.compile(r"^serving .* on http://([^:]+):(\d+) ")

#: Seconds to wait for a fresh replica's banner before declaring it dead.
_STARTUP_TIMEOUT = 60.0

#: Restart backoff: ``RESTART_BASE_DELAY * 2**(restarts-1)``, capped.
RESTART_BASE_DELAY = 0.25
MAX_RESTART_DELAY = 5.0


@dataclass
class ReplicaHandle:
    """One replica slot: its identity, current process, and counters."""

    key: str
    host: str = ""
    port: int = 0
    process: Optional[subprocess.Popen] = field(default=None, repr=False)
    #: The daemon thread draining ``process``'s stdout; it closes the pipe
    #: once the process exits.
    reader: Optional[threading.Thread] = field(default=None, repr=False)
    restarts: int = 0
    restart_at: float = 0.0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


class ReplicaSupervisor:
    """Launch and babysit N replica service processes from one snapshot.

    Parameters
    ----------
    snapshot_dir:
        A snapshot directory written by ``GraphCatalog.save_snapshot``;
        every replica warm-starts from it.
    replicas:
        How many replica slots to run.
    shared_store:
        Path of the shared sqlite result tier, or ``None`` for none.
    host:
        Bind address the replicas listen on.
    extra_args:
        Additional ``repro.service`` CLI arguments appended verbatim to
        every replica's command line (e.g. ``["--cache-bytes", "1048576"]``).
    poll_interval:
        Seconds between monitor-thread liveness sweeps.

    Notes
    -----
    The supervisor is synchronous and thread-safe; the asyncio router
    calls into it from its loop thread only for cheap snapshot reads
    (:meth:`live_endpoints`).  Replica stdout is drained continuously on
    daemon threads — a replica blocked writing its logs would otherwise
    stall, which is indistinguishable from a hang.
    """

    def __init__(
        self,
        snapshot_dir: str,
        *,
        replicas: int = 2,
        shared_store: Optional[str] = None,
        host: str = "127.0.0.1",
        extra_args: Optional[List[str]] = None,
        poll_interval: float = 0.2,
    ) -> None:
        if replicas <= 0:
            raise ClusterError(f"a cluster needs >= 1 replica, got {replicas!r}")
        if not os.path.isdir(snapshot_dir):
            raise ClusterError(
                f"snapshot directory {snapshot_dir!r} does not exist; build "
                "one with GraphCatalog.save_snapshot() or "
                "python -m repro.cluster --build-only"
            )
        self._snapshot_dir = snapshot_dir
        self._shared_store = shared_store
        self._host = host
        self._extra_args = list(extra_args or [])
        self._poll_interval = poll_interval
        self._handles: Dict[str, ReplicaHandle] = {
            f"replica-{index}": ReplicaHandle(key=f"replica-{index}")
            for index in range(replicas)
        }
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReplicaSupervisor":
        """Launch every replica and the monitor thread; returns when all
        replicas have printed their bound addresses."""
        for handle in self._handles.values():
            self._spawn(handle)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def stop(self) -> None:
        """Terminate every replica and stop monitoring."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
            self._monitor = None
        # Snapshot the process list under the lock (the monitor thread is
        # joined, but _spawn writes handle.process under it — LOCK001).
        with self._lock:
            processes = [
                handle.process
                for handle in self._handles.values()
                if handle.process is not None
            ]
            readers = [
                handle.reader
                for handle in self._handles.values()
                if handle.reader is not None
            ]
        for process in processes:
            if process.poll() is None:
                process.terminate()
        for process in processes:
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10.0)
        # Each reader closes its pipe at EOF, which the exits above send.
        for reader in readers:
            reader.join(timeout=10.0)

    def __enter__(self) -> "ReplicaSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def keys(self) -> List[str]:
        """Every replica slot identity (the ring's member set), in order."""
        return list(self._handles)

    def live_endpoints(self) -> Dict[str, str]:
        """``{slot: "host:port"}`` of replicas currently alive and bound."""
        with self._lock:
            return {
                key: handle.address
                for key, handle in self._handles.items()
                if handle.alive and handle.port
            }

    def restart_counts(self) -> Dict[str, int]:
        """``{slot: restarts}`` — how often each slot has been respawned."""
        with self._lock:
            return {key: handle.restarts for key, handle in self._handles.items()}

    def describe(self) -> List[Dict[str, object]]:
        """Per-slot identity snapshots: member, endpoint, liveness, respawns.

        The attribution record the router's aggregated ``/stats`` and the
        cluster CLI print — one entry per slot whether or not a process is
        currently bound to it.
        """
        with self._lock:
            return [
                {
                    "member": handle.key,
                    "endpoint": (
                        handle.address if handle.alive and handle.port else None
                    ),
                    "alive": bool(handle.alive and handle.port),
                    "restarts": handle.restarts,
                }
                for handle in self._handles.values()
            ]

    def notify_failure(self, key: str) -> None:
        """Tell the supervisor a replica misbehaved (router saw I/O errors).

        Kills the process so the monitor's normal respawn path picks it
        up — one recovery mechanism, not two.
        """
        with self._lock:
            handle = self._handles.get(key)
            process = handle.process if handle is not None else None
        if process is not None and process.poll() is None:
            process.terminate()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _command(self) -> List[str]:
        command = [
            sys.executable,
            "-m",
            "repro.service",
            "--host",
            self._host,
            "--port",
            "0",
            "--snapshot",
            self._snapshot_dir,
        ]
        if self._shared_store is not None:
            command += ["--shared-store", self._shared_store]
        return command + self._extra_args

    def _spawn(self, handle: ReplicaHandle) -> None:
        process = subprocess.Popen(
            self._command(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        result: Dict[str, object] = {}
        reader = threading.Thread(
            target=self._drain,
            args=(process, result),
            name=f"repro-cluster-{handle.key}-stdout",
            daemon=True,
        )
        reader.start()
        host, port = self._await_banner(process, handle.key, result)
        with self._lock:
            handle.process = process
            handle.reader = reader
            handle.host = host
            handle.port = port

    @staticmethod
    def _drain(process: subprocess.Popen, result: Dict[str, object]) -> None:
        """Record the banner's address, then drain stdout until the replica exits.

        An undrained pipe eventually blocks the replica's prints.  The pipe
        is closed here, at EOF, so a replaced or stopped replica leaves no
        open file behind.
        """
        assert process.stdout is not None
        with process.stdout:
            for line in process.stdout:
                if "address" not in result:
                    match = _BANNER.match(line)
                    if match:
                        result["address"] = (match.group(1), int(match.group(2)))

    def _await_banner(
        self, process: subprocess.Popen, key: str, result: Dict[str, object]
    ):
        """Wait until :meth:`_drain` has parsed the replica's bound address."""
        deadline = time.monotonic() + _STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            if "address" in result:
                return result["address"]
            if process.poll() is not None:
                raise ClusterError(
                    f"replica {key} exited with status {process.returncode} "
                    "before binding; run its command manually to see why: "
                    f"{' '.join(self._command())}"
                )
            time.sleep(0.01)
        process.kill()
        raise ClusterError(
            f"replica {key} did not print its bound address within "
            f"{_STARTUP_TIMEOUT:.0f}s"
        )

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self._poll_interval):
            now = time.monotonic()
            for handle in list(self._handles.values()):
                with self._lock:
                    dead = not handle.alive
                    due = handle.restart_at <= now
                if not dead:
                    continue
                if not due:
                    continue
                with self._lock:
                    handle.restarts += 1
                    delay = min(
                        RESTART_BASE_DELAY * (2 ** (handle.restarts - 1)),
                        MAX_RESTART_DELAY,
                    )
                    handle.restart_at = now + delay
                try:
                    self._spawn(handle)
                except ClusterError:
                    # Spawn failed (e.g. crash loop); the backoff above
                    # already spaces out the next attempt.
                    continue
