"""Shared fixtures."""

import os

import pytest

from limpprob import trials


@pytest.fixture
def split_calls(monkeypatch):
    """Make sampler calls split over worker threads, and check that one did.

    A call splits only into ranges of at least ``_CHUNK_ELEMS`` stream positions,
    one per usable CPU, so a worker-invariance check at test sizes would run one
    range.  This lowers the budget to 4,096 positions, offers four CPUs, and fails
    the test unless some sampler call ran more than one range.
    """
    monkeypatch.setattr(trials, "_CHUNK_ELEMS", 1 << 12)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    ranges = []
    partition = trials._partition

    def spy(*args):
        parts = partition(*args)
        ranges.append(len(parts))
        return parts

    monkeypatch.setattr(trials, "_partition", spy)
    yield
    assert max(ranges, default=0) > 1, f"no sampler call split: ranges per call {ranges}"
