"""Failure accounting of a run: a failed operation is counted, not fatal.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workload as wl  # noqa: E402


def make_run(tmp_path, seconds=30.0):
    args = types.SimpleNamespace(workload="serve-hot", seed=1, seconds=seconds, trace=0)
    return run.Run(args, tmp_path, tmp_path, tmp_path)


def test_a_batch_that_raises_counts_every_request_failed(tmp_path):
    r = make_run(tmp_path)

    def lost():
        raise ConnectionResetError("peer reset")

    assert r.requests(lost, [object()] * 3, "stream") is None
    assert (r.attempted, r.failed, r.wrong) == (3, 3, False)
    assert "3 requests lost" in r.problems[0]


def test_non_200_answers_count_failed_in_flat_and_nested_batches(tmp_path):
    r = make_run(tmp_path)
    r.requests(lambda: ([0.01, 0.01], [200, 503], [b"", b""]), [1, 2], "single")
    r.requests(lambda: (0.1, [[200, 200], [429, 200]], [[], []]), [1, 2, 3, 4], "stream")
    assert (r.attempted, r.failed, r.wrong) == (6, 2, False)


def test_a_fit_that_raises_is_failed_and_the_run_goes_on(tmp_path, monkeypatch):
    import repro

    calls = []

    class Broken:
        def __init__(self, *args, **kwargs):
            pass

        def fit(self, data, **kwargs):
            calls.append(1)
            raise RuntimeError("boom")

    monkeypatch.setattr(repro, "Anonymizer", Broken)
    monkeypatch.setattr(wl, "N_RECORDS", 50)
    r = make_run(tmp_path)
    model, fits, qi = r.fit_phase(None)
    count = wl.WORKLOADS["serve-hot"].fit_count(30.0)
    assert model is None and fits == [] and qi is None
    assert len(calls) == count
    assert (r.attempted, r.failed, r.wrong) == (count, count, False)


def test_counts_scale_with_seconds_only():
    for w in wl.WORKLOADS.values():
        assert w.fit_count(30) == w.fits_per_30s
        assert w.round_count(30) == w.rounds_per_30s
        assert w.fit_count(1) == wl.MIN_FITS
        assert w.round_count(1) == wl.MIN_ROUNDS
