"""Command-line entry point of the query service.

Usage::

    python -m repro.service --port 8350 --graphs karate
    python -m repro.service --graphs karate,tokyo --backend sampling \
        --samples 1000
    python -m repro.service --graph-file mygraph=edges.txt --port 0
    python -m repro.service --snapshot snap/ --shared-store results.sqlite

(Installed as the ``repro-serve`` console script.)  ``--port 0`` binds an
ephemeral port; the bound address is printed either way, so wrappers (the
CI smoke job, the benchmark, the cluster supervisor) can parse it from
the first stdout line.

``--snapshot DIR`` warm-starts from a prepared-state snapshot (see
:mod:`repro.service.snapshot`) instead of loading and preparing datasets;
the snapshot carries its own config, so ``--graphs``/``--backend``/
``--samples``/``--seed`` are rejected alongside it.  ``--shared-store
PATH`` adds the persistent sqlite result tier under the memory cache —
the combination is exactly how :mod:`repro.cluster` launches replicas.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.datasets import available_datasets
from repro.engine.config import EstimatorConfig
from repro.engine.registry import available_backends
from repro.exceptions import ReproError
from repro.service.cache import DEFAULT_MAX_BYTES, ResultCache
from repro.service.catalog import DatasetSource, FileSource, GraphCatalog
from repro.obs.trace import SlowQueryLog, disable as disable_tracing
from repro.service.core import ReliabilityService
from repro.service.frontend import wait_for_stop_signal
from repro.service.server import ServiceServer
from repro.service.store import SharedResultStore

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve reliability queries over JSON/HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8350, help="bind port (0 for ephemeral)"
    )
    parser.add_argument(
        "--graphs",
        default="karate",
        metavar="KEYS",
        help=(
            "comma-separated dataset keys to register "
            f"(available: {', '.join(available_datasets())})"
        ),
    )
    parser.add_argument(
        "--graph-file",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="register an edge-list file under NAME (repeatable)",
    )
    parser.add_argument(
        "--snapshot",
        default=None,
        metavar="DIR",
        help=(
            "warm-start from a prepared-state snapshot directory "
            "(GraphCatalog.save_snapshot); carries its own config, so "
            "--graphs/--backend/--samples/--seed cannot be combined with it"
        ),
    )
    parser.add_argument(
        "--shared-store",
        default=None,
        metavar="PATH",
        help=(
            "sqlite file of the persistent shared result tier under the "
            "memory cache (default: no shared tier)"
        ),
    )
    parser.add_argument(
        "--scale", choices=["bench", "paper"], default="bench",
        help="dataset scale for --graphs",
    )
    parser.add_argument(
        "--backend",
        default="sampling",
        metavar="NAME",
        help=f"reliability backend (registered: {', '.join(available_backends())})",
    )
    parser.add_argument("--samples", type=int, default=1_000, help="sample budget s")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="engine seed (default: the service's pinned deterministic seed)",
    )
    parser.add_argument(
        "--cache-bytes", type=int, default=DEFAULT_MAX_BYTES,
        help="result-cache byte budget (0 disables caching)",
    )
    parser.add_argument(
        "--cache-ttl", type=float, default=None,
        help="result-cache TTL in seconds (default: no expiry)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=8,
        help="query requests evaluated concurrently",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=32,
        help="accepted-but-waiting requests beyond --max-inflight (then 429)",
    )
    parser.add_argument(
        "--allow-updates",
        action="store_true",
        help=(
            "accept POST /update graph deltas; on by default unless "
            "--snapshot is given (snapshot-warmed replicas serve read-only, "
            "since an in-place update would diverge siblings warmed from "
            "the same snapshot)"
        ),
    )
    parser.add_argument(
        "--slow-query-log", type=float, default=None, metavar="SECONDS",
        help=(
            "warn on queries slower than SECONDS and keep the most recent "
            "ones in /stats under 'slow_queries' (default: off)"
        ),
    )
    parser.add_argument(
        "--no-tracing",
        action="store_true",
        help=(
            "refuse request tracing process-wide: X-Repro-Trace headers "
            "and 'timings' requests are ignored (answers are unchanged)"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Build the catalog, start the server, serve until interrupted."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.slow_query_log is not None and args.slow_query_log <= 0:
        print(
            f"error: --slow-query-log must be > 0 seconds, got {args.slow_query_log}",
            file=sys.stderr,
        )
        return 2
    if args.no_tracing:
        disable_tracing()
    try:
        if args.snapshot is not None:
            overridden = [
                option
                for option, changed in [
                    ("--graphs", args.graphs != parser.get_default("graphs")),
                    ("--graph-file", bool(args.graph_file)),
                    ("--backend", args.backend != parser.get_default("backend")),
                    ("--samples", args.samples != parser.get_default("samples")),
                    ("--seed", args.seed is not None),
                ]
                if changed
            ]
            if overridden:
                print(
                    "error: --snapshot carries its own graphs and config; "
                    f"drop {', '.join(overridden)}",
                    file=sys.stderr,
                )
                return 2
            catalog = GraphCatalog.load_snapshot(args.snapshot)
        else:
            config = EstimatorConfig(
                backend=args.backend, samples=args.samples, rng=args.seed
            )
            catalog = GraphCatalog(config)
            for key in [key.strip() for key in args.graphs.split(",") if key.strip()]:
                catalog.register(key, DatasetSource(key, scale=args.scale))
            for spec in args.graph_file:
                name, _, path = spec.partition("=")
                if not name or not path:
                    print(f"error: --graph-file expects NAME=PATH, got {spec!r}",
                          file=sys.stderr)
                    return 2
                catalog.register(name, FileSource(path))
        cache = (
            ResultCache(max_bytes=args.cache_bytes, ttl=args.cache_ttl)
            if args.cache_bytes > 0
            else None
        )
        store = (
            SharedResultStore(args.shared_store)
            if args.shared_store is not None
            else None
        )
        # Snapshot-warmed processes are read-only unless explicitly opted
        # in: their prepared state was checksum-verified on load, and an
        # in-place update would diverge replicas warmed from the same
        # snapshot.
        allow_updates = args.allow_updates or args.snapshot is None
        service = ReliabilityService(
            catalog,
            cache=cache,
            store=store,
            allow_updates=allow_updates,
            slow_query_log=(
                SlowQueryLog(args.slow_query_log)
                if args.slow_query_log is not None
                else None
            ),
        )
        server = ServiceServer(
            service,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            queue_limit=args.queue_limit,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    server.start_background()
    print(
        f"serving {', '.join(catalog.names())} on http://{server.address} "
        f"(backend {catalog.config.backend!r}, s={catalog.config.samples}, "
        f"cache={'off' if cache is None else 'on'}, "
        f"updates={'on' if allow_updates else 'off'})",
        flush=True,
    )
    if args.snapshot is not None:
        print(f"warm-started from snapshot {args.snapshot}", flush=True)
    if store is not None:
        print(f"shared result store at {store.path}", flush=True)

    try:
        wait_for_stop_signal()
    finally:
        server.close()
        service.close()
        if store is not None:
            store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
