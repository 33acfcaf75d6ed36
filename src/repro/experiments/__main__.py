"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.experiments table2
    python -m repro.experiments figure3 --samples 2000 --max-width 1000
    python -m repro.experiments figure3 --backend sampling
    python -m repro.experiments queries --query-kind search
    python -m repro.experiments queries --preset quick
    python -m repro.experiments all --preset quick
    python -m repro.experiments table3 --preset paper   # very slow

Every experiment prints a plain-text table whose rows mirror the
corresponding table/figure of the paper; EXPERIMENTS.md records reference
outputs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional

from repro.engine.registry import available_backends
from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runners import (
    run_ablation_heuristic,
    run_ablation_ordering,
    run_all,
    run_figure3,
    run_figure4,
    run_figure5,
    run_queries,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)
from repro.experiments.workloads import QUERY_WORKLOAD_KINDS

_RUNNERS: Dict[str, Callable] = {
    "table2": run_table2,
    "figure3": run_figure3,
    "figure4": run_figure4,
    "figure5": run_figure5,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "ablation-heuristic": run_ablation_heuristic,
    "ablation-ordering": run_ablation_ordering,
    "queries": run_queries,
}


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.preset == "quick":
        config = ExperimentConfig.quick()
    elif args.preset == "paper":
        config = ExperimentConfig.paper()
    else:
        config = ExperimentConfig()
    overrides = {}
    if args.samples is not None:
        overrides["samples"] = args.samples
    if args.max_width is not None:
        overrides["max_width"] = args.max_width
    if args.searches is not None:
        overrides["num_searches"] = args.searches
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "backend", None) is not None:
        overrides["backend"] = args.backend
    if overrides:
        config = config.with_overrides(**overrides)
    return config


def main(argv: Optional[list] = None) -> int:
    """Parse arguments, run the requested experiment(s), print the tables."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_RUNNERS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--preset",
        choices=["default", "quick", "paper"],
        default="default",
        help="parameter preset (quick: seconds, default: minutes, paper: hours)",
    )
    parser.add_argument("--samples", type=int, default=None, help="override sample budget s")
    parser.add_argument("--max-width", type=int, default=None, help="override S2BDD width w")
    parser.add_argument("--searches", type=int, default=None, help="override searches per cell")
    parser.add_argument("--seed", type=int, default=None, help="override the base RNG seed")
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help=(
            "reliability backend for the primary method "
            f"(registered: {', '.join(available_backends())})"
        ),
    )
    parser.add_argument(
        "--query-kind",
        default="all",
        choices=("all",) + QUERY_WORKLOAD_KINDS,
        help=(
            "typed query kind(s) for the 'queries' experiment: a single "
            "kind or 'all' for the full mixed workload (default)"
        ),
    )
    args = parser.parse_args(argv)

    try:
        config = _build_config(args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        if args.experiment == "all":
            for name, table in run_all(config).items():
                print(table.render())
                print()
        elif args.experiment == "queries":
            print(run_queries(config, query_kind=args.query_kind).render())
        else:
            print(_RUNNERS[args.experiment](config).render())
    except (ReproError, ValueError) as error:
        # A backend that cannot complete the workload (exact BDD node
        # budget, brute-force edge cap, ...) should end in an actionable
        # message, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        if config.backend != "s2bdd":
            print(
                f"hint: backend {config.backend!r} may not scale to this "
                "experiment; try --backend s2bdd or a smaller --preset",
                file=sys.stderr,
            )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
