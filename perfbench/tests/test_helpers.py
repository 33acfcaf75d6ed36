"""Self-tests of the benchmark's own helpers (run with pytest from the repo root)."""

from __future__ import annotations

import math

import pytest

from perfbench import stats
from perfbench.stats import UpdateRecord


# ----------------------------------------------------------------------
# Nearest-rank percentiles and the ">= 10 samples beyond" rule
# ----------------------------------------------------------------------
def test_nearest_rank_percentile_is_a_sample():
    values = list(range(1, 11))  # 1..10
    assert stats.percentile(values, 50) == 5
    assert stats.percentile(values, 90) == 9
    assert stats.percentile(values, 99) == 10
    assert stats.percentile(values, 100) == 10
    assert stats.percentile([7.5], 50) == 7.5
    assert stats.percentile([3, 1, 2], 50) == 2  # input order does not matter


def test_percentile_rejects_empty_and_bad_ranks():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_samples_beyond_and_tail_rule():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.tail_supported(100, 90)
    assert stats.samples_beyond(99, 90) == 9
    assert not stats.tail_supported(99, 90)
    assert not stats.tail_supported(999, 99) and stats.tail_supported(1000, 99)
    assert not stats.tail_supported(19, 50) and stats.tail_supported(20, 50)
    assert stats.samples_beyond(0, 50) == 0


def test_latency_summary_reports_tail_support():
    seconds = [i / 1000.0 for i in range(1, 101)]
    summary = stats.latency_summary(seconds, (50, 90, 99))
    assert summary["samples"] == 100
    assert math.isclose(summary["p50_ms"], 50.0)
    assert math.isclose(summary["p90_ms"], 90.0)
    assert summary["p90_supported"] and not summary["p99_supported"]
    assert summary["p99_beyond"] == 1


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
def test_errors_refusals_and_wrong_answers_all_count():
    tally = stats.Tally(attempted=20, errors=1, refused=2, wrong=3)
    assert tally.failed == 6
    assert math.isclose(tally.failed_share, 0.3)
    assert stats.Tally().failed_share == 0.0


def test_observations_classify_429_as_refused():
    from repro.service.client import ServiceError, ServiceOverloadedError

    from perfbench.workloads import Observations

    obs = Observations()
    obs.fail(ServiceOverloadedError(429, {"error": "queue full"}))
    obs.fail(ServiceError(500, {"error": "boom"}))
    obs.fail(RuntimeError("connection reset"))
    assert (obs.refused, obs.errors) == (1, 2)
    assert len(obs.error_messages) == 3


def test_closed_loop_counts_429_apart_from_errors():
    from repro.service.client import ServiceOverloadedError

    from perfbench.layers import _closed_loop

    def send(op):
        if op == "shed":
            raise ServiceOverloadedError(429, {})
        if op == "fail":
            raise RuntimeError("boom")

    latencies, refused, errors = _closed_loop(["ok", "shed", "fail", "ok", "shed"], send)
    assert (len(latencies), refused, errors) == (2, 2, 1)


# ----------------------------------------------------------------------
# The in-flight version rule of the serve-update check
# ----------------------------------------------------------------------
TIMELINE = stats.fingerprint_timeline(
    "A",
    [
        # Deliberately out of order: the timeline sorts by version.
        UpdateRecord(version=3, fingerprint="C", sent=20.0, received=21.0),
        UpdateRecord(version=2, fingerprint="B", sent=10.0, received=12.0),
    ],
)


def test_timeline_windows():
    assert TIMELINE == [("A", -math.inf, 12.0), ("B", 10.0, 21.0), ("C", 20.0, math.inf)]
    assert stats.version_of(TIMELINE, "B") == 2
    assert stats.version_of(TIMELINE, "Z") is None


@pytest.mark.parametrize(
    "fingerprint, sent, received, expected",
    [
        ("A", 0.0, 5.0, True),  # before any update
        ("A", 11.0, 13.0, True),  # update to B still in flight when the request was sent
        ("A", 13.0, 14.0, False),  # B was committed before the request was sent
        ("B", 9.0, 10.5, True),  # B became visible while the request was in flight
        ("B", 5.0, 9.0, False),  # answered from a version not yet sent
        ("B", 22.0, 23.0, False),  # C had replaced B
        ("C", 30.0, 31.0, True),
        ("Z", 0.0, 100.0, False),  # never committed
    ],
)
def test_fingerprint_must_be_live_while_in_flight(fingerprint, sent, received, expected):
    assert stats.committed_in_flight(TIMELINE, fingerprint, sent, received) is expected
