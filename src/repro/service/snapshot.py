"""Warm snapshots: a catalog's prepared state, serialized exactly.

Preparing a graph for serving is the expensive part of a cold start: the
2-edge-connected decomposition, the compiled kernel form, and — dominant
for sampling configs — the shared world pools.  Every piece of that state
is deterministic by construction (int-seeded configs, chunk-seeded pools,
fingerprint-stamped caches), so it can be written to disk once and
reloaded bit-identically by any process: a replica warm-starting from a
snapshot answers every query with exactly the checksum a fresh
``prepare()`` would produce.  That property is what lets the cluster layer
(:mod:`repro.cluster`) fan one catalog out to N shared-nothing replicas
without giving up the checksum-parity guarantees CI enforces.

On-disk format (version :data:`SNAPSHOT_FORMAT_VERSION`)
---------------------------------------------------------
A snapshot is a directory::

    <dir>/catalog.json                 # version, config, entry listing
    <dir>/<gfp[:16]>-<cfp[:16]>/       # one per (graph, config) pair
        manifest.json                  # version, fingerprints, section
                                       #   sha256 checksums, probe checksum
        graph.json                     # vertices (iteration order) + edges
        index.json                     # the 2ECC decomposition
        compiled.json                  # CompiledGraph arrays (cross-check)
        pools.json                     # world-pool metadata (seed, samples)
        pools.bin                      # the pools' labels, packed int32

Every structured section is JSON: human-inspectable, diffable, and
checksummable.  The one deliberate exception is the world-label payload:
a default pool is ``samples × |V|`` small ints, and parsing hundreds of
thousands of JSON integers dominated warm-start time — defeating the
point of a snapshot.  The labels therefore live in ``pools.bin`` as a
flat little-endian int32 array in the pools' *column-major*
layout (all of vertex 0's per-world labels, then vertex 1's, ...; pools
concatenated in ``pools.json`` order), from which each pool packs its
columns with strided byte views, without decoding a label.  Each section
file's SHA-256 — binary payload included — is recorded in its manifest
and verified on load, so a flipped bit fails loudly
(:class:`~repro.exceptions.SnapshotError`) instead of silently serving
wrong answers; the rebuilt graph is additionally re-fingerprinted against
the recorded content fingerprint, and the compiled arrays are compared
against a fresh compile of the rebuilt graph.  The manifest also records a **probe checksum** — a
:func:`~repro.engine.queries.results_checksum` over a small query
workload evaluated at save time — which ``load_catalog_snapshot(...,
verify=True)`` re-evaluates to prove the warm engine is bit-identical to
the one that wrote the snapshot.

Compatibility: a snapshot written by a different format version is
rejected with an actionable error (rebuild with
:meth:`GraphCatalog.save_snapshot`); the format version only changes when
the layout or the meaning of a section changes.  Vertex labels must be
JSON-safe (ints or strings — every dataset loader and generator complies);
exotic hashable labels are rejected at save time.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.engine.config import EstimatorConfig
from repro.engine.engine import ReliabilityEngine
from repro.engine.queries import (
    KTerminalQuery,
    Query,
    ThresholdQuery,
    query_from_dict,
    results_checksum,
)
from repro.engine.worlds import WORLD_CHUNK_SIZE, WorldPool
from repro.exceptions import ConfigurationError, SnapshotError
from repro.graph.compiled import compile_graph
from repro.graph.components import GraphDecomposition
from repro.graph.uncertain_graph import UncertainGraph

if TYPE_CHECKING:
    from repro.service.catalog import CatalogEntry, GraphCatalog

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "load_catalog_snapshot",
    "save_catalog_snapshot",
    "snapshot_entries",
]

#: Version stamp of the on-disk layout.  Bump whenever a section's shape
#: or meaning changes; loaders reject any other version with instructions
#: to rebuild, never a best-effort parse.
SNAPSHOT_FORMAT_VERSION = 1

_CATALOG_FILE = "catalog.json"
_MANIFEST_FILE = "manifest.json"
_JSON_SECTIONS = ("graph.json", "index.json", "compiled.json", "pools.json")
_POOLS_BLOB = "pools.bin"
_SECTION_FILES = _JSON_SECTIONS + (_POOLS_BLOB,)


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def _dump(payload: Any) -> bytes:
    """Canonical JSON bytes: stable separators, unsorted (order matters)."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _write_blob(directory: str, filename: str, blob: bytes) -> str:
    """Write one section file's raw bytes; returns its recorded checksum."""
    with open(os.path.join(directory, filename), "wb") as handle:
        handle.write(blob)
    return _sha256(blob)


def _write_section(directory: str, filename: str, payload: Any) -> str:
    """Write one JSON section file; returns its recorded checksum."""
    return _write_blob(directory, filename, _dump(payload))


def _read_blob(path: str, *, expected_sha: Optional[str] = None) -> bytes:
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        raise SnapshotError(
            f"snapshot section {path!r} is missing; the snapshot is "
            "incomplete — rebuild it with GraphCatalog.save_snapshot()"
        ) from None
    if expected_sha is not None and _sha256(blob) != expected_sha:
        raise SnapshotError(
            f"snapshot section {path!r} does not match its recorded "
            "checksum; the file is corrupted or was edited — rebuild the "
            "snapshot with GraphCatalog.save_snapshot()"
        )
    return blob


def _read_json(path: str, *, expected_sha: Optional[str] = None) -> Any:
    blob = _read_blob(path, expected_sha=expected_sha)
    try:
        return json.loads(blob.decode("utf-8"))
    except ValueError as error:
        raise SnapshotError(
            f"snapshot section {path!r} is not valid JSON ({error}); "
            "rebuild the snapshot with GraphCatalog.save_snapshot()"
        ) from None


def _check_version(version: Any, path: str) -> None:
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot {path!r} uses format version {version!r} but this "
            f"library reads version {SNAPSHOT_FORMAT_VERSION}; rebuild the "
            "snapshot with GraphCatalog.save_snapshot() from this version"
        )


def _json_safe_label(label: Any, *, graph_name: str) -> Any:
    if isinstance(label, bool) or not isinstance(label, (int, str)):
        raise SnapshotError(
            f"graph {graph_name!r} has vertex label {label!r} of type "
            f"{type(label).__name__}; snapshots require JSON-safe labels "
            "(int or str)"
        )
    return label


# ----------------------------------------------------------------------
# Sections: build / restore
# ----------------------------------------------------------------------
def _graph_section(graph: UncertainGraph) -> Dict[str, Any]:
    name = graph.name or ""
    return {
        # Vertex iteration order is part of the determinism contract
        # (sampled world labellings index vertices by it), so it is
        # recorded explicitly rather than re-derived from the edges.
        "name": name,
        "vertices": [
            _json_safe_label(vertex, graph_name=name) for vertex in graph.vertices()
        ],
        "edges": [
            [edge.id, edge.u, edge.v, edge.probability] for edge in graph.edges()
        ],
    }


def _restore_graph(payload: Dict[str, Any]) -> UncertainGraph:
    graph = UncertainGraph(name=payload.get("name", ""))
    for vertex in payload["vertices"]:
        graph.add_vertex(vertex)
    for edge_id, u, v, probability in payload["edges"]:
        graph.add_edge(u, v, probability, edge_id=edge_id)
    return graph


def _index_section(decomposition: GraphDecomposition) -> Dict[str, Any]:
    return {
        "bridges": sorted(decomposition.bridges),
        "articulation_points": list(decomposition.articulation_points),
        # Component order is preserved verbatim: component indices appear
        # in `component_of` and the bridge tree, so a reordered load would
        # be a *different* (if isomorphic) index.
        "components": [list(component) for component in decomposition.components],
    }


def _restore_index(payload: Dict[str, Any]) -> GraphDecomposition:
    components = tuple(frozenset(members) for members in payload["components"])
    component_of: Dict[Any, int] = {}
    for index, component in enumerate(components):
        for vertex in component:
            component_of[vertex] = index
    return GraphDecomposition(
        bridges=frozenset(payload["bridges"]),
        articulation_points=frozenset(payload["articulation_points"]),
        components=components,
        component_of=component_of,
    )


def _compiled_section(graph: UncertainGraph) -> Dict[str, Any]:
    compiled = compile_graph(graph)
    return {
        "edge_u": list(compiled.edge_u),
        "edge_v": list(compiled.edge_v),
        "edge_probability": list(compiled.edge_probability),
        "csr_indptr": list(compiled.csr_indptr),
        "csr_vertices": list(compiled.csr_vertices),
        "csr_edges": list(compiled.csr_edges),
    }


def _check_compiled(graph: UncertainGraph, payload: Dict[str, Any], path: str) -> None:
    """Compare the stored kernel arrays against a fresh compile.

    The compiled form is a pure function of the graph, so recompiling the
    rebuilt graph is both the cheapest way to restore it *and* an
    independent integrity check of the graph section: any divergence means
    the snapshot no longer describes the graph it claims to.
    """
    if _compiled_section(graph) != payload:
        raise SnapshotError(
            f"snapshot section {path!r} does not match the compiled form "
            "of the stored graph; the snapshot is internally inconsistent "
            "— rebuild it with GraphCatalog.save_snapshot()"
        )


def _pools_section(
    engine: ReliabilityEngine, graph: UncertainGraph
) -> Tuple[Dict[str, Any], bytes]:
    """The pools' (JSON metadata, packed label bytes) pair.

    The metadata carries everything needed to slice ``pools.bin`` back
    into pools: each pool occupies ``samples * vertices`` consecutive
    int32 labels, column-major, in listing order.
    """
    pools = []
    payload = bytearray()
    for pool in engine.cached_world_pools(graph):
        if pool.seed is None:  # pragma: no cover - engine never caches these
            continue
        payload += pool.label_bytes()
        pools.append(
            {
                "seed": pool.seed,
                "samples": pool.num_worlds,
                "vertices": pool.num_vertices,
                "chunk_size": WORLD_CHUNK_SIZE,
            }
        )
    return {"pools": pools}, bytes(payload)


def _restore_pools(
    engine: ReliabilityEngine,
    graph: UncertainGraph,
    payload: Dict[str, Any],
    blob: bytes,
    path: str,
    blob_path: str,
) -> int:
    if len(blob) % 4:
        raise SnapshotError(
            f"snapshot section {blob_path!r} is not a whole number of int32 "
            "labels; the file is truncated or corrupted — rebuild the "
            "snapshot with GraphCatalog.save_snapshot()"
        )
    view = memoryview(blob)
    total = len(blob) // 4
    offset = 0
    restored = 0
    for pool in payload["pools"]:
        if pool.get("chunk_size") != WORLD_CHUNK_SIZE:
            raise SnapshotError(
                f"snapshot section {path!r} stores world pools with chunk "
                f"size {pool.get('chunk_size')!r} but this library samples "
                f"in chunks of {WORLD_CHUNK_SIZE}; the pools would not "
                "match their seeds — rebuild the snapshot"
            )
        samples, vertices = pool["samples"], pool["vertices"]
        end = offset + samples * vertices
        if end > total:
            raise SnapshotError(
                f"snapshot section {blob_path!r} holds {total} labels "
                f"but its metadata describes at least {end}; the sections "
                "disagree — rebuild the snapshot with "
                "GraphCatalog.save_snapshot()"
            )
        # The pool packs its columns straight from this run of int32
        # bytes (strided views, no per-label decode): the hottest part of
        # a warm start, the very thing the binary layout exists for.
        try:
            restored_pool = WorldPool.from_label_bytes(
                graph, view[4 * offset : 4 * end], samples=samples, seed=pool["seed"]
            )
        except ConfigurationError as error:
            raise SnapshotError(
                f"snapshot section {blob_path!r} holds an invalid world pool: "
                f"{error} — rebuild the snapshot with GraphCatalog.save_snapshot()"
            ) from None
        offset = end
        engine._adopt_pool(graph, restored_pool)
        restored += 1
    if offset != total:
        raise SnapshotError(
            f"snapshot section {blob_path!r} holds {total} labels but "
            f"its metadata describes {offset}; the sections disagree — "
            "rebuild the snapshot with GraphCatalog.save_snapshot()"
        )
    return restored


def _probe_queries(graph: UncertainGraph) -> List[Query]:
    """A tiny deterministic workload exercising pool and backend paths."""
    vertices = list(graph.vertices())
    terminals = tuple(vertices[: min(3, len(vertices))])
    queries: List[Query] = [KTerminalQuery(terminals=terminals)]
    if len(terminals) >= 2:
        queries.append(ThresholdQuery(terminals=terminals[:2], threshold=0.5))
    return queries


def _probe_checksum(engine: ReliabilityEngine, graph: UncertainGraph) -> Dict[str, Any]:
    queries = _probe_queries(graph)
    results = [engine.query(query, graph=graph, seed_index=0) for query in queries]
    return {
        "queries": [query.to_dict() for query in queries],
        "checksum": results_checksum(results),
    }


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def save_catalog_snapshot(
    catalog: "GraphCatalog", path: str, *, include_pools: bool = True
) -> Dict[str, Any]:
    """Write ``catalog``'s prepared state under ``path``; returns the manifest.

    Every registered graph is prepared (if it was not already) under the
    catalog's default config and serialized together with its 2ECC index,
    compiled arrays, and cached world pools.  With ``include_pools`` (the
    default) the session's default pool — the one every pooled query of
    the service reads — is built before saving, so a replica loading the
    snapshot starts with the expensive sampling pass already done.
    """
    os.makedirs(path, exist_ok=True)
    config = catalog.config
    config_fingerprint = config.fingerprint()
    entries_payload: List[Dict[str, Any]] = []
    written: Dict[str, str] = {}
    for name in catalog.names():
        entry = catalog.entry(name)
        directory = f"{entry.fingerprint[:16]}-{config_fingerprint[:16]}"
        if directory not in written:
            engine = catalog.engine(name)
            _write_entry_snapshot(
                os.path.join(path, directory),
                entry,
                engine,
                config_fingerprint,
                include_pools=include_pools,
            )
            written[directory] = entry.fingerprint
        entries_payload.append(
            {
                "name": name,
                "fingerprint": entry.fingerprint,
                "source": entry.source,
                "directory": directory,
            }
        )
    manifest = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "created": time.time(),
        "config": config.to_dict(),
        "config_fingerprint": config_fingerprint,
        "entries": entries_payload,
    }
    with open(os.path.join(path, _CATALOG_FILE), "wb") as handle:
        handle.write(_dump(manifest))
    return manifest


def _write_entry_snapshot(
    directory: str,
    entry: "CatalogEntry",
    engine: ReliabilityEngine,
    config_fingerprint: str,
    *,
    include_pools: bool,
) -> None:
    os.makedirs(directory, exist_ok=True)
    graph = entry.graph
    if include_pools:
        # Ensure the session's default pool exists: it is the pool every
        # pooled service query reads, so a warm start without it would
        # still pay the dominant sampling cost on the first request.
        engine.world_pool(graph)
    pools_meta, pools_blob = _pools_section(engine, graph)
    sections = {
        "graph.json": _graph_section(graph),
        "index.json": _index_section(engine.decomposition(graph)),
        "compiled.json": _compiled_section(graph),
        "pools.json": pools_meta,
    }
    checksums = {
        filename: _write_section(directory, filename, payload)
        for filename, payload in sections.items()
    }
    checksums[_POOLS_BLOB] = _write_blob(directory, _POOLS_BLOB, pools_blob)
    manifest = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "created": time.time(),
        "graph_fingerprint": entry.fingerprint,
        "config_fingerprint": config_fingerprint,
        "sections": checksums,
        "probe": _probe_checksum(engine, graph),
    }
    with open(os.path.join(directory, _MANIFEST_FILE), "wb") as handle:
        handle.write(_dump(manifest))


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def snapshot_entries(path: str) -> List[Dict[str, Any]]:
    """The entry listing of the snapshot at ``path`` (name, fingerprint, ...).

    Cheap: reads only ``catalog.json``.  The cluster router uses this to
    know every graph's content fingerprint without starting an engine.
    """
    manifest = _read_json(os.path.join(path, _CATALOG_FILE))
    _check_version(manifest.get("format_version"), os.path.join(path, _CATALOG_FILE))
    return list(manifest["entries"])


def load_catalog_snapshot(path: str, *, verify: bool = False) -> "GraphCatalog":
    """Rebuild a :class:`GraphCatalog` from the snapshot at ``path``.

    Every entry comes back *prepared*: decomposition index adopted,
    compiled form cross-checked against the stored arrays, and world pools
    installed — a warm start that answers its first query without any
    preprocessing.  With ``verify=True`` the recorded probe workload is
    re-evaluated and its :func:`~repro.engine.queries.results_checksum`
    compared against the one written at save time, proving bit-identity
    before the catalog serves anything.

    Raises
    ------
    SnapshotError
        For missing/corrupted/tampered sections, format-version
        mismatches, fingerprint divergence, or (``verify=True``) a probe
        checksum mismatch.  Every message says which file is at fault.
    """
    from repro.service.catalog import GraphCatalog, graph_fingerprint

    catalog_path = os.path.join(path, _CATALOG_FILE)
    manifest = _read_json(catalog_path)
    _check_version(manifest.get("format_version"), catalog_path)
    try:
        config = EstimatorConfig.from_dict(manifest["config"])
    except Exception as error:
        raise SnapshotError(
            f"snapshot {catalog_path!r} holds an unusable config ({error}); "
            "rebuild the snapshot with GraphCatalog.save_snapshot()"
        ) from None
    catalog = GraphCatalog(config)
    config_fingerprint = catalog.config.fingerprint()
    if config_fingerprint != manifest.get("config_fingerprint"):
        raise SnapshotError(
            f"snapshot {catalog_path!r} records config fingerprint "
            f"{manifest.get('config_fingerprint')!r} but its config payload "
            f"fingerprints to {config_fingerprint!r}; the file is corrupted "
            "— rebuild the snapshot with GraphCatalog.save_snapshot()"
        )

    engines: Dict[str, ReliabilityEngine] = {}
    graphs: Dict[str, UncertainGraph] = {}
    for entry in manifest["entries"]:
        directory = os.path.join(path, entry["directory"])
        if entry["directory"] not in engines:
            graph, engine = _load_entry_snapshot(
                directory,
                expected_fingerprint=entry["fingerprint"],
                config=catalog.config,
                fingerprint_fn=graph_fingerprint,
                verify=verify,
            )
            engines[entry["directory"]] = engine
            graphs[entry["directory"]] = graph
        catalog.register(
            entry["name"], graphs[entry["directory"]], label=entry.get("source", "snapshot")
        )
        catalog.adopt_engine(entry["name"], engines[entry["directory"]])
    return catalog


def _load_entry_snapshot(
    directory: str,
    *,
    expected_fingerprint: str,
    config: EstimatorConfig,
    fingerprint_fn,
    verify: bool,
):
    manifest_path = os.path.join(directory, _MANIFEST_FILE)
    manifest = _read_json(manifest_path)
    _check_version(manifest.get("format_version"), manifest_path)
    checksums = manifest.get("sections", {})
    for filename in _SECTION_FILES:
        if filename not in checksums:
            raise SnapshotError(
                f"snapshot manifest {manifest_path!r} records no checksum "
                f"for section {filename!r}; the snapshot is incomplete — "
                "rebuild it with GraphCatalog.save_snapshot()"
            )
    sections = {
        filename: _read_json(
            os.path.join(directory, filename), expected_sha=checksums[filename]
        )
        for filename in _JSON_SECTIONS
    }
    pools_blob = _read_blob(
        os.path.join(directory, _POOLS_BLOB), expected_sha=checksums[_POOLS_BLOB]
    )

    graph = _restore_graph(sections["graph.json"])
    rebuilt_fingerprint = fingerprint_fn(graph)
    if rebuilt_fingerprint != expected_fingerprint or rebuilt_fingerprint != manifest.get(
        "graph_fingerprint"
    ):
        raise SnapshotError(
            f"graph rebuilt from {directory!r} fingerprints to "
            f"{rebuilt_fingerprint!r}, not the recorded "
            f"{expected_fingerprint!r}; the snapshot no longer matches its "
            "catalog listing — rebuild it with GraphCatalog.save_snapshot()"
        )
    _check_compiled(graph, sections["compiled.json"], os.path.join(directory, "compiled.json"))

    decomposition = _restore_index(sections["index.json"])
    engine = ReliabilityEngine(config).prepare(graph, decomposition)
    _restore_pools(
        engine,
        graph,
        sections["pools.json"],
        pools_blob,
        os.path.join(directory, "pools.json"),
        os.path.join(directory, _POOLS_BLOB),
    )

    if verify:
        probe = manifest.get("probe", {})
        queries = [query_from_dict(payload) for payload in probe.get("queries", [])]
        results = [engine.query(query, graph=graph, seed_index=0) for query in queries]
        checksum = results_checksum(results)
        if checksum != probe.get("checksum"):
            raise SnapshotError(
                f"probe workload of snapshot {directory!r} evaluates to "
                f"checksum {checksum} but the snapshot recorded "
                f"{probe.get('checksum')!r}; the warm state is not "
                "bit-identical to the saved session — rebuild the snapshot"
            )
    return graph, engine
