"""Tests of prepared-state snapshots (:mod:`repro.service.snapshot`).

The contract under test: a catalog loaded from a snapshot answers every
query bit-identically (per :func:`results_checksum`) to the catalog that
wrote it — in this process and in a fresh one — without redoing the
preparation work; and any damaged, incomplete, or version-mismatched
snapshot is rejected with a :class:`SnapshotError` that names the file at
fault instead of silently serving wrong answers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.datasets import load_dataset
from repro.engine import EstimatorConfig, results_checksum
from repro.engine.queries import KTerminalQuery, ThresholdQuery
from repro.exceptions import ConfigurationError, SnapshotError
from repro.service import (
    SNAPSHOT_FORMAT_VERSION,
    GraphCatalog,
    ReliabilityService,
    load_catalog_snapshot,
)


@pytest.fixture(scope="module")
def karate():
    return load_dataset("karate")


@pytest.fixture()
def config():
    return EstimatorConfig(backend="sampling", samples=200, rng=7)


@pytest.fixture()
def catalog(karate, config):
    cat = GraphCatalog(config)
    cat.register("karate", karate)
    return cat


def _probe_queries():
    return [
        KTerminalQuery(terminals=(1, 34)),
        KTerminalQuery(terminals=(2, 20, 30)),
        ThresholdQuery(terminals=(5, 17), threshold=0.5),
    ]


def _checksum(catalog: GraphCatalog, name: str = "karate") -> str:
    engine = catalog.engine(name)
    graph = catalog.entry(name).graph
    results = [
        engine.query(query, graph=graph, seed_index=0)
        for query in _probe_queries()
    ]
    return results_checksum(results)


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_loaded_catalog_answers_bit_identically(self, catalog, tmp_path):
        expected = _checksum(catalog)
        catalog.save_snapshot(tmp_path / "snap")
        loaded = GraphCatalog.load_snapshot(str(tmp_path / "snap"), verify=True)
        assert _checksum(loaded) == expected

    def test_warm_start_skips_preparation_work(self, catalog, tmp_path):
        catalog.save_snapshot(tmp_path / "snap")
        loaded = GraphCatalog.load_snapshot(str(tmp_path / "snap"))
        _checksum(loaded)  # pooled queries answered...
        stats = loaded.engine("karate").stats
        # ...yet nothing was decomposed or sampled in this session: the
        # index was adopted and the world pool installed from disk.
        assert stats.decompositions_computed == 0
        assert stats.world_pools_built == 0
        assert stats.world_pool_hits > 0

    def test_snapshot_preserves_catalog_metadata(self, catalog, config, tmp_path):
        entry = catalog.entry("karate")
        catalog.save_snapshot(tmp_path / "snap")
        loaded = GraphCatalog.load_snapshot(str(tmp_path / "snap"))
        assert loaded.names() == ["karate"]
        assert loaded.entry("karate").fingerprint == entry.fingerprint
        assert loaded.entry("karate").source == entry.source
        assert loaded.config.fingerprint() == catalog.config.fingerprint()

    def test_round_trip_through_the_service_layer(self, catalog, tmp_path):
        query = KTerminalQuery(terminals=(1, 34))
        with ReliabilityService(catalog, cache=None) as direct:
            expected = direct.query("karate", query)["checksum"]
        catalog.save_snapshot(tmp_path / "snap")
        loaded = GraphCatalog.load_snapshot(str(tmp_path / "snap"))
        with ReliabilityService(loaded, cache=None) as warm:
            assert warm.query("karate", query)["checksum"] == expected

    def test_string_vertex_labels_round_trip(self, config, tmp_path):
        from repro.graph.uncertain_graph import UncertainGraph

        graph = UncertainGraph(name="strings")
        for u, v in [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]:
            graph.add_edge(u, v, 0.8)
        cat = GraphCatalog(config)
        cat.register("strings", graph)
        engine = cat.engine("strings")
        expected = results_checksum(
            [engine.query(KTerminalQuery(terminals=("a", "d")), seed_index=0)]
        )
        cat.save_snapshot(tmp_path / "snap")
        loaded = GraphCatalog.load_snapshot(str(tmp_path / "snap"), verify=True)
        warm = loaded.engine("strings")
        got = results_checksum(
            [
                warm.query(
                    KTerminalQuery(terminals=("a", "d")),
                    graph=loaded.entry("strings").graph,
                    seed_index=0,
                )
            ]
        )
        assert got == expected


# ----------------------------------------------------------------------
# Cross-process determinism
# ----------------------------------------------------------------------
_SUBPROCESS_PROBE = """
import sys
from repro.engine import results_checksum
from repro.engine.queries import KTerminalQuery, ThresholdQuery
from repro.service import GraphCatalog

catalog = GraphCatalog.load_snapshot(sys.argv[1], verify=True)
engine = catalog.engine("karate")
graph = catalog.entry("karate").graph
queries = [
    KTerminalQuery(terminals=(1, 34)),
    KTerminalQuery(terminals=(2, 20, 30)),
    ThresholdQuery(terminals=(5, 17), threshold=0.5),
]
results = [engine.query(q, graph=graph, seed_index=0) for q in queries]
print(results_checksum(results))
"""


class TestCrossProcess:
    def test_fresh_process_reproduces_checksum(self, catalog, tmp_path):
        expected = _checksum(catalog)
        catalog.save_snapshot(tmp_path / "snap")
        completed = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_PROBE, str(tmp_path / "snap")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == expected


# ----------------------------------------------------------------------
# Rejection of damaged snapshots
# ----------------------------------------------------------------------
def _entry_dir(snapshot_dir) -> str:
    manifest = json.loads((snapshot_dir / "catalog.json").read_text())
    return os.path.join(snapshot_dir, manifest["entries"][0]["directory"])


class TestRejection:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(SnapshotError, match="missing"):
            load_catalog_snapshot(str(tmp_path / "nowhere"))

    def test_corrupted_section_names_the_file(self, catalog, tmp_path):
        catalog.save_snapshot(tmp_path / "snap")
        pools = os.path.join(_entry_dir(tmp_path / "snap"), "pools.json")
        blob = open(pools, "rb").read()
        with open(pools, "wb") as handle:  # flip one byte mid-file
            handle.write(blob[: len(blob) // 2] + b"X" + blob[len(blob) // 2 + 1 :])
        with pytest.raises(SnapshotError, match="pools.json"):
            load_catalog_snapshot(str(tmp_path / "snap"))

    def test_corrupted_pool_payload_names_the_file(self, catalog, tmp_path):
        catalog.save_snapshot(tmp_path / "snap")
        pools = os.path.join(_entry_dir(tmp_path / "snap"), "pools.bin")
        blob = open(pools, "rb").read()
        assert blob  # the binary sidecar actually carries the labels
        with open(pools, "wb") as handle:  # flip one byte mid-payload
            handle.write(blob[: len(blob) // 2] + b"X" + blob[len(blob) // 2 + 1 :])
        with pytest.raises(SnapshotError, match="pools.bin"):
            load_catalog_snapshot(str(tmp_path / "snap"))

    def test_missing_section_is_actionable(self, catalog, tmp_path):
        catalog.save_snapshot(tmp_path / "snap")
        os.remove(os.path.join(_entry_dir(tmp_path / "snap"), "index.json"))
        with pytest.raises(SnapshotError, match="save_snapshot"):
            load_catalog_snapshot(str(tmp_path / "snap"))

    def test_version_mismatch_rejected(self, catalog, tmp_path):
        catalog.save_snapshot(tmp_path / "snap")
        path = tmp_path / "snap" / "catalog.json"
        manifest = json.loads(path.read_text())
        manifest["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format version"):
            load_catalog_snapshot(str(tmp_path / "snap"))

    def test_retired_config_field_asks_for_rebuild(self, catalog, tmp_path):
        # Snapshots from before the S²BDD construction flag was retired
        # still carry it in their config.
        catalog.save_snapshot(tmp_path / "snap")
        path = tmp_path / "snap" / "catalog.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["s2bdd_interned"] = True
        path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="catalog.json") as excinfo:
            GraphCatalog.load_snapshot(str(tmp_path / "snap"))
        assert "s2bdd_interned" in str(excinfo.value)
        assert "rebuild" in str(excinfo.value)

    def test_tampered_graph_fails_fingerprint_check(self, catalog, tmp_path):
        catalog.save_snapshot(tmp_path / "snap")
        directory = _entry_dir(tmp_path / "snap")
        graph_path = os.path.join(directory, "graph.json")
        payload = json.loads(open(graph_path).read())
        payload["edges"][0][3] = 0.123456  # silently change a probability
        blob = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
        with open(graph_path, "wb") as handle:
            handle.write(blob)
        # Keep the section checksum consistent so the *fingerprint* check
        # (not the byte checksum) must catch the tampering.
        import hashlib

        manifest_path = os.path.join(directory, "manifest.json")
        manifest = json.loads(open(manifest_path).read())
        manifest["sections"]["graph.json"] = hashlib.sha256(blob).hexdigest()
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(SnapshotError):
            load_catalog_snapshot(str(tmp_path / "snap"))

    def test_adopt_engine_rejects_config_mismatch(self, catalog, karate):
        from repro.engine import ReliabilityEngine

        other = ReliabilityEngine(
            EstimatorConfig(backend="sampling", samples=999, rng=3)
        ).prepare(karate)
        with pytest.raises(ConfigurationError, match="fingerprint"):
            catalog.adopt_engine("karate", other)
