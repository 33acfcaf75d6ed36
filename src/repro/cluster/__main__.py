"""Command-line entry point of the cluster: router + supervised replicas.

Usage::

    python -m repro.cluster --replicas 2 --snapshot-dir snap/
    python -m repro.cluster --replicas 4 --snapshot-dir snap/ \
        --graphs karate,tokyo --samples 1000
    python -m repro.cluster --snapshot-dir snap/ --build-only

(Installed as the ``repro-cluster`` console script.)  When
``--snapshot-dir`` does not hold a snapshot yet, one is built first from
``--graphs``/``--backend``/``--samples``/``--seed`` (a one-time cost —
later starts are warm); when it does, those options must be omitted, the
snapshot's own config wins.  ``--build-only`` builds the snapshot and
exits, for CI and deploy pipelines that bake snapshots ahead of time.

The bound address is printed as the first stdout line in the same
parseable shape as ``repro.service``; point a
:class:`~repro.cluster.client.ClusterClient` (or any service client) at
it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.cluster.router import Router
from repro.cluster.supervisor import ReplicaSupervisor
from repro.datasets import available_datasets
from repro.engine.config import EstimatorConfig
from repro.engine.registry import available_backends
from repro.exceptions import ReproError
from repro.obs.trace import disable as disable_tracing
from repro.service.catalog import DatasetSource, GraphCatalog
from repro.service.frontend import wait_for_stop_signal

__all__ = ["main"]

_CONFIG_OPTIONS = ("--graphs", "--backend", "--samples", "--seed", "--scale")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Serve reliability queries from a replicated cluster.",
    )
    parser.add_argument(
        "--snapshot-dir",
        required=True,
        metavar="DIR",
        help="prepared-state snapshot directory (built here when missing)",
    )
    parser.add_argument(
        "--replicas", type=int, default=2, metavar="N",
        help="replica service processes to run",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8360,
        help="router bind port (0 for ephemeral; replicas always ephemeral)",
    )
    parser.add_argument(
        "--shared-store",
        default=None,
        metavar="PATH",
        help=(
            "sqlite file of the cross-replica result tier; 'none' disables "
            "it (default: shared_results.sqlite inside the snapshot dir)"
        ),
    )
    parser.add_argument(
        "--graphs",
        default=None,
        metavar="KEYS",
        help=(
            "datasets to snapshot when building one "
            f"(available: {', '.join(available_datasets())}; default karate)"
        ),
    )
    parser.add_argument(
        "--scale", choices=["bench", "paper"], default="bench",
        help="dataset scale when building a snapshot",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help=(
            "backend when building a snapshot "
            f"(registered: {', '.join(available_backends())}; default sampling)"
        ),
    )
    parser.add_argument(
        "--samples", type=int, default=None,
        help="sample budget s when building a snapshot (default 1000)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="engine seed when building a snapshot (default: service default)",
    )
    parser.add_argument(
        "--build-only", action="store_true",
        help="build the snapshot (if missing) and exit without serving",
    )
    parser.add_argument(
        "--allow-updates", action="store_true",
        help=(
            "let replicas accept POST /update graph deltas (off by default: "
            "snapshot-warmed replicas serve read-only); the router "
            "broadcasts each update to every live replica"
        ),
    )
    parser.add_argument(
        "--slow-query-log", type=float, default=None, metavar="SECONDS",
        help=(
            "pass --slow-query-log SECONDS to every replica: queries "
            "slower than the threshold are logged and kept in each "
            "replica's /stats (default: off)"
        ),
    )
    parser.add_argument(
        "--no-tracing", action="store_true",
        help=(
            "disable request tracing on the router and every replica "
            "(X-Repro-Trace headers and 'timings' requests are ignored)"
        ),
    )
    return parser


def _has_snapshot(directory: str) -> bool:
    return os.path.isfile(os.path.join(directory, "catalog.json"))


def _build_snapshot(args: argparse.Namespace) -> None:
    config = EstimatorConfig(
        backend=args.backend or "sampling",
        samples=args.samples if args.samples is not None else 1_000,
        rng=args.seed,
    )
    catalog = GraphCatalog(config)
    keys = [
        key.strip()
        for key in (args.graphs or "karate").split(",")
        if key.strip()
    ]
    for key in keys:
        catalog.register(key, DatasetSource(key, scale=args.scale))
    catalog.save_snapshot(args.snapshot_dir)
    print(
        f"built snapshot of {', '.join(catalog.names())} in "
        f"{args.snapshot_dir} (backend {catalog.config.backend!r}, "
        f"s={catalog.config.samples})",
        flush=True,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Build/load the snapshot, launch replicas + router, serve until stopped."""
    args = build_parser().parse_args(argv)
    try:
        if _has_snapshot(args.snapshot_dir):
            overridden = [
                option
                for option, value in zip(
                    _CONFIG_OPTIONS,
                    (args.graphs, args.backend, args.samples, args.seed, None),
                )
                if value is not None
            ]
            if overridden:
                print(
                    f"error: {args.snapshot_dir} already holds a snapshot, "
                    "which carries its own graphs and config; drop "
                    f"{', '.join(overridden)} or point --snapshot-dir "
                    "somewhere fresh",
                    file=sys.stderr,
                )
                return 2
        else:
            _build_snapshot(args)
        if args.build_only:
            return 0

        store_path: Optional[str]
        if args.shared_store == "none":
            store_path = None
        elif args.shared_store is not None:
            store_path = args.shared_store
        else:
            store_path = os.path.join(args.snapshot_dir, "shared_results.sqlite")

        if args.no_tracing:
            disable_tracing()
        extra_args: List[str] = []
        if args.allow_updates:
            extra_args.append("--allow-updates")
        if args.slow_query_log is not None:
            extra_args += ["--slow-query-log", str(args.slow_query_log)]
        if args.no_tracing:
            extra_args.append("--no-tracing")
        supervisor = ReplicaSupervisor(
            args.snapshot_dir,
            replicas=args.replicas,
            shared_store=store_path,
            host=args.host,
            extra_args=extra_args or None,
        )
        supervisor.start()
        router = Router(supervisor, host=args.host, port=args.port)
        router.start_background()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(
        f"routing on http://{router.address} "
        f"(replicas={args.replicas}, "
        f"shared store={'off' if store_path is None else store_path}, "
        f"snapshot={args.snapshot_dir})",
        flush=True,
    )
    for slot in supervisor.describe():
        endpoint = slot["endpoint"]
        where = f"at http://{endpoint}" if endpoint else "down"
        print(f"  {slot['member']} {where}", flush=True)

    try:
        wait_for_stop_signal()
    finally:
        router.close()
        supervisor.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
