"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload pro-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-update --seed 1 --seconds 20 --trace 1

Workloads (see ``BENCHMARK.json``): ``pro-cold``, ``serve-update`` and
``analysis-batch``.  Inputs are generated from ``--seed``; the timed loop
runs for ``--seconds`` (plus whatever is needed to finish a small fixed
prefix of the inputs); answers are checked after the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` additionally
repeats the loop with spans around every layer's public entry points,
probes the layers the loop does not reach in this process with the same
inputs, prints the per-layer metrics and the tracing overhead, and reports
the per-layer metrics.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report
(host, provenance, workload parameters, results checksum, every metric) is
printed above it and written to ``.perfbench/results/``.

The exit status is 0 only when every answer checked out.  The program is
imported from ``src/`` next to this directory; without it the run fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_qps": "queries/s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest(root: str) -> str:
    """SHA-256 over every ``src/**/*.py`` path and content, in sorted order."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    paths = []
    for directory, _, files in os.walk(src):
        paths.extend(os.path.join(directory, name) for name in files if name.endswith(".py"))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).encode("utf-8"))
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def git_commit(root: str):
    """The checked-out commit read from ``.git``, or ``None`` outside a repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_phase(workload, seconds: float):
    """Set up ``setup_repeats`` times (keeping the last), then run the timed loop.

    A full collection before each timed region starts it from the same
    collector state, so a collection the harness's own garbage would have
    triggered does not land in some repetitions and not others.
    """
    setups = []
    state = None
    for repeat in range(workload.setup_repeats):
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - t0)
        if repeat < workload.setup_repeats - 1:
            workload.discard(state)
    observations = None
    gc.collect()
    try:
        observations = workload.measure(state, seconds)
    finally:
        workload.teardown(state, observations)
    return setups, observations


def end_to_end(stats, setups, obs):
    latency = stats.latency_summary(obs.latencies, (50, 90))
    throughput = obs.throughput_qps
    if throughput is None:
        throughput = stats.ratio(obs.completed_queries, obs.wall_seconds)
    return {
        "setup_s": stats.median(setups),
        "latency_p50_ms": latency["p50_ms"],
        "latency_p90_ms": latency["p90_ms"],
        "throughput_qps": throughput,
        "peak_rss_mb": obs.peak_rss_mb,
    }, latency


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: the program is missing (no src/repro under {ROOT})", file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import layers, stats
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench", "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, ROOT, workdir)
        setups, obs = run_phase(workload, args.seconds)
        metrics, latency = end_to_end(stats, setups, obs)
        tally = stats.Tally(attempted=obs.attempted, errors=obs.errors, refused=obs.refused)
        for message in obs.error_messages:
            tally.note(message)
        extras = workload.check(obs, tally)
        obs.payload.clear()  # answers and engines are no longer needed; free them
        gc.collect()
        report = {
            "workload": workload.name,
            "why": workload.why,
            "bypasses": list(workload.bypasses),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "parameters": workload.parameters(),
            "host": {
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "provenance": {"git_commit": git_commit(ROOT), "source_sha256": source_digest(ROOT)},
            "end_to_end": metrics,
            "latency": latency,
            "setup_samples_s": setups,
            "extra": extras,
            "results_checksum": extras.get("results_checksum"),
        }
        final_metrics = {
            name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
        }
        if args.trace:
            per_layer, traced, paper = trace_run(workload, args, stats, layers, workdir, tally)
            report["per_layer"] = per_layer
            report["traced_end_to_end"] = traced
            report["tracing_overhead"] = {name: traced[name] - metrics[name] for name in metrics}
            report["paper_gate"] = paper
            final_metrics = {
                name: {"value": per_layer[name], "unit": unit}
                for name, unit in layers.PER_LAYER_UNITS.items()
            }
        report["failures"] = {
            "attempted": tally.attempted, "errors": tally.errors, "refused": tally.refused,
            "wrong": tally.wrong, "failed_share": tally.failed_share, "notes": tally.notes,
        }
        print_report(report)
        save_report(report)
        correct = tally.failed == 0
        print(json.dumps({
            "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": final_metrics,
        }))
        return 0 if correct else 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def trace_run(workload, args, stats, layers, workdir, tally):
    """The traced phase plus the layer probes; returns per-layer, traced e2e, paper gate."""
    rec = layers.Recorder()
    with layers.instrument(rec):
        setups, obs = run_phase(workload, args.seconds)
        own_engine_stats = list(rec.engine_stats)
        tally.errors += obs.errors
        tally.refused += obs.refused
        pi = workload.probe_inputs()
        layers.probe_compiled(pi, rec, args.seed)
        layers.probe_prepare(pi, rec)
        paper = layers.probe_paper(pi, rec, args.seed)
        layers.probe_worlds(pi, rec, args.seed)
        layers.probe_deltas(pi, args.seed)
        layers.probe_parallel(pi, rec, tally)
        serving = layers.probe_service(pi, args.seed, workdir, workload.root)
    for name in ("inproc", "direct", "routed"):
        tally.errors += serving[name]["errors"]
        tally.refused += serving[name]["refused"]
    traced, _ = end_to_end(stats, setups, obs)
    counters = layers.workload_engine_counters(own_engine_stats, obs)
    per_layer = layers.layer_metrics(rec, counters, serving, obs.payload.get("cluster_stats"))
    return per_layer, traced, paper


def print_report(report) -> None:
    print(f"== {report['workload']} seed={report['seed']} seconds={report['seconds']} "
          f"trace={report['trace']}")
    print(f"why: {report['why']}")
    print(f"bypasses: {', '.join(report['bypasses'])}")
    host = report["host"]
    print(f"host: cpu_count={host['cpu_count']} python={host['python']} {host['platform']}")
    print(f"provenance: git={report['provenance']['git_commit']} "
          f"src_sha256={report['provenance']['source_sha256'][:16]}")
    print(f"parameters: {json.dumps(report['parameters'], sort_keys=True)}")
    latency = report["latency"]
    print(f"latency samples: {latency['samples']} (beyond p50: {latency['p50_beyond']}, "
          f"beyond p90: {latency['p90_beyond']}{'' if latency['p90_supported'] else ' < 10'})")
    for name, value in report["end_to_end"].items():
        line = f"  {name:<24} {value:14.4f} {END_TO_END_UNITS[name]}"
        if "tracing_overhead" in report:
            line += f"   traced-untraced {report['tracing_overhead'][name]:+.4f}"
        print(line)
    for name, value in report["extra"].items():
        if isinstance(value, float):
            print(f"  {name:<24} {value:14.6g}")
        else:
            print(f"  {name:<24} {value}")
    failures = report["failures"]
    print(f"failed_share: {failures['failed_share']:.6f} ({failures['errors']} errors, "
          f"{failures['refused']} refused, {failures['wrong']} wrong of {failures['attempted']})")
    for note in failures["notes"]:
        print(f"  ! {note}")
    if "per_layer" in report:
        print("per-layer (* = layer this workload bypasses; measured by a probe fed its inputs):")
        bypassed = tuple(layer + "." for layer in report["bypasses"])
        for name, value in report["per_layer"].items():
            mark = "*" if name.startswith(bypassed) else " "
            print(f" {mark}{name:<40} {value:14.6g}")
        print("paper gate (Pro vs Sampling(MC), same sets, s and seeds):")
        for graph, row in report["paper_gate"].items():
            pro_err = "n/a" if row["pro_abs_error"] is None else f"{row['pro_abs_error']:.2e}"
            mc_err = "n/a" if row["mc_abs_error"] is None else f"{row['mc_abs_error']:.2e}"
            print(f"  {graph:<8} n={row['queries']:<3} Pro p50 {row['pro_p50_ms']:9.2f} ms "
                  f"err {pro_err:>8} | MC p50 {row['mc_p50_ms']:9.2f} ms err {mc_err:>8} | "
                  f"MC/Pro {row['speedup']:.2f}x")


def save_report(report) -> None:
    directory = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(directory, exist_ok=True)
    name = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True, default=str)


if __name__ == "__main__":
    sys.exit(main())
