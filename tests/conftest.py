"""Shared fixtures: a small calibrated runtime reused across model tests,
and a hand-driven frame reader for the wire tests."""

from __future__ import annotations

import asyncio
import types

import numpy as np
import pytest

from repro.models.profiles import load_runtime
from repro.obs import NO_METRICS_ENV, refresh_metrics_enabled


@pytest.fixture(scope="session")
def rt_small():
    """A small, calibrated llama2-7b runtime shared by all model tests."""
    return load_runtime("llama2-7b", n_seq=6, seq_len=48)


@pytest.fixture()
def rng():
    """Deterministic RNG for the individual test."""
    return np.random.default_rng(12345)


@pytest.fixture()
def heavy_tensor(rng):
    """An outlier-structured test tensor resembling LLM weights."""
    from repro.models.tensors import OutlierSpec, outlier_matrix
    spec = OutlierSpec(outlier_rate=0.01, outlier_scale=16.0,
                       channel_sigma=0.3, tail=0.1)
    return outlier_matrix(96, 128, spec, rng)


@pytest.fixture()
def metrics_env(monkeypatch):
    """A setter for the metrics kill switch: ``metrics_env(False)`` sets
    ``REPRO_NO_METRICS=1``, ``metrics_env(True)`` clears it, and each
    call re-reads the switch. The environment and the switch are
    restored after the test."""
    def set_enabled(enabled: bool) -> None:
        if enabled:
            monkeypatch.delenv(NO_METRICS_ENV, raising=False)
        else:
            monkeypatch.setenv(NO_METRICS_ENV, "1")
        refresh_metrics_enabled()

    yield set_enabled
    monkeypatch.undo()
    refresh_metrics_enabled()


class NullTransport:
    """A transport stand-in for driving a ``FrameProtocol`` by hand: it
    discards writes and records whether reading is paused."""

    def __init__(self, proto) -> None:
        self.proto = proto
        self.paused = False
        self.closing = False

    def pause_reading(self) -> None:
        self.paused = True

    def resume_reading(self) -> None:
        self.paused = False

    def write(self, data) -> None:
        pass

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        if not self.closing:
            self.closing = True
            asyncio.get_running_loop().call_soon(
                self.proto.connection_lost, None)


def open_frames(frame_timeout_s=None):
    """A ``FrameProtocol`` connected to a :class:`NullTransport` (call
    inside a running event loop)."""
    from repro.server.protocol import FrameProtocol
    proto = FrameProtocol(frame_timeout_s)
    proto.connection_made(NullTransport(proto))
    return proto


def feed_frames(proto, data, chunks=()) -> int:
    """Push ``data`` through ``proto.get_buffer`` / ``buffer_updated``
    as a socket transport does: each receive takes the next size of
    ``chunks`` (then whole buffers), capped by the buffer offered.
    Stops while the protocol has paused reading; returns bytes fed."""
    view, fed, sizes = memoryview(data), 0, iter(chunks)
    while fed < len(view) and not proto.transport.paused:
        buf = proto.get_buffer(-1)
        assert len(buf) > 0
        n = min(len(buf), len(view) - fed, next(sizes, len(buf)))
        buf[:n] = view[fed:fed + n]
        proto.buffer_updated(n)
        fed += n
    return fed


@pytest.fixture(scope="session")
def frame_io():
    """``open_frames`` / ``feed_frames``: drive the frame reader with
    hand-cut receives (stateless, so one for the session)."""
    return types.SimpleNamespace(open=open_frames, feed=feed_frames)
