"""Shared fixtures: a small calibrated runtime reused across model tests."""

from __future__ import annotations

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
