"""Span bookkeeping of the traced run: self time, calls into a layer, batch wait.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


class Inner:
    def work(self):
        time.sleep(0.02)


class Outer:
    def __init__(self):
        self.inner = Inner()

    def run(self):
        time.sleep(0.01)
        self.helper()
        self.inner.work()

    def helper(self):
        time.sleep(0.01)


def test_self_time_excludes_other_layers_and_calls_count_entries():
    tracer = tracing.Tracer("test")
    tracer.wrap_public_methods(Outer, "outer")
    tracer.wrap_public_methods(Inner, "inner")
    try:
        Outer().run()
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert totals["outer:Outer.run"]["calls"] == 1
    assert totals["outer:Outer.helper"]["calls"] == 0  # entered from its own layer
    assert totals["inner:Inner.work"]["calls"] == 1
    outer_self = totals["outer:Outer.run"]["self_s"] + totals["outer:Outer.helper"]["self_s"]
    assert outer_self == pytest.approx(0.02, abs=0.008)
    assert totals["inner:Inner.work"]["self_s"] == pytest.approx(0.02, abs=0.008)
    assert Outer.run.__qualname__ == "Outer.run" and not hasattr(Outer.run, "__wrapped__")


def test_busy_time_leaves_out_suspension():
    async def waits():
        await asyncio.sleep(0.05)
        time.sleep(0.01)
        return 7

    holder = types.ModuleType("holder")
    holder.waits = waits
    tracer = tracing.Tracer("test")
    tracer.wrap(holder, "waits", "io", mode="async_busy")
    try:
        assert asyncio.run(holder.waits()) == 7
    finally:
        tracer.uninstall()
    busy = tracer.layer_totals()["io:holder.waits"]["self_s"]
    assert 0.009 < busy < 0.03


def test_batch_wait_subtracts_the_scan_that_resolved_each_request():
    intervals = {
        # two requests coalesced into one scan, one request answered by cache
        "CoalescingBatcher.assign": [(0.0, 10.0), (1.0, 10.0), (20.0, 20.5)],
        "TransformModel.assign_encoded": [(4.0, 9.0)],
    }
    assert tracing.batch_wait_s(intervals) == pytest.approx((10 - 5) + (9 - 5) + 0.5)
