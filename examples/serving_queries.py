#!/usr/bin/env python3
"""Serving reliability queries: catalog, cache, coalescing, HTTP.

The service layer (:mod:`repro.service`) turns the engine into something
many clients can share.  This example embeds the whole stack in one
process:

1. a :class:`GraphCatalog` registers the karate graph (one prepared
   engine per graph × config, so all clients share its decomposition
   index and world pools),
2. a :class:`ReliabilityService` adds the result cache and single-flight
   coalescing of identical in-flight requests,
3. a :class:`ServiceServer` exposes it over JSON/HTTP on an ephemeral
   port, and a few :class:`ServiceClient` threads hammer it with a
   skewed workload,

then prints the serving stats and verifies the service's determinism
contract: every response — cached or computed, coalesced or not — is
bit-identical to a direct ``engine.query()`` on a fresh engine with the
same deterministic seed.

Run with::

    python examples/serving_queries.py
"""

from __future__ import annotations

import threading

from repro import EstimatorConfig, ReliabilityEngine, results_checksum
from repro.datasets import load_dataset
from repro.engine.queries import KTerminalQuery, ThresholdQuery, TopKReliableVerticesQuery
from repro.service import (
    GraphCatalog,
    ReliabilityService,
    ServiceClient,
    ServiceServer,
)


def main() -> None:
    graph = load_dataset("karate")
    config = EstimatorConfig(backend="sampling", samples=800, rng=7)

    catalog = GraphCatalog(config)
    catalog.register("karate", graph)
    service = ReliabilityService(catalog)
    server = ServiceServer(service, port=0).start_background()
    print(f"serving on http://{server.address}\n")

    # A skewed workload: one hot query, a few cold ones.
    hot = KTerminalQuery(terminals=(1, 34))
    cold = [
        ThresholdQuery(terminals=(2, 30), threshold=0.4),
        TopKReliableVerticesQuery(sources=(5,), k=3),
    ]
    workload = [hot] * 12 + cold + [hot] * 12

    responses = []
    lock = threading.Lock()

    def client_thread(requests) -> None:
        client = ServiceClient("127.0.0.1", server.port)
        for query in requests:
            response = client.query("karate", query)
            with lock:
                responses.append((query, response))

    threads = [
        threading.Thread(target=client_thread, args=(workload[i::3],))
        for i in range(3)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    stats = ServiceClient("127.0.0.1", server.port).stats()
    print(f"{len(responses)} responses from 3 concurrent clients")
    print(f"cache: {stats['cache']['hits']} hits / "
          f"{stats['cache']['misses']} misses "
          f"(hit rate {stats['cache']['hit_rate']:.2f})")
    print(f"coalescer: {stats['coalescer']['coalesced']} of "
          f"{stats['coalescer']['submitted']} misses shared an in-flight "
          f"evaluation")
    print(f"engine evaluated {stats['service']['engine_evaluations']} of "
          f"{stats['service']['requests']} requests\n")

    # The determinism contract: every response checksum equals a direct
    # evaluation on a fresh engine with the same deterministic seed.
    reference = ReliabilityEngine(catalog.config).prepare(graph)
    expected = {
        query.canonical_key(): results_checksum(
            [reference.query(query, seed_index=0)]
        )
        for query in {hot, *cold}
    }
    broken = sum(
        1
        for query, response in responses
        if response.checksum != expected[query.canonical_key()]
    )
    print(f"parity vs direct engine evaluation: "
          f"{'OK' if broken == 0 else f'{broken} BROKEN'}")

    server.close()
    service.close()
    if broken:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
