"""Direct unit tests for ``WorkerPool.stats()`` accounting.

The restart/exit bookkeeping used to be asserted only indirectly
(through chaos scenarios in ``test_faults.py``). These tests pin it
directly: every worker exit is recorded exactly once — whether the
supervisor reaped it live or ``close()``'s SIGTERM->SIGKILL escalation
reaped it at teardown (the case that used to drift: close-reaped exits
were never accounted at all) — and ``stats()`` returns an isolated
snapshot, not a live reference.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.server import QuantClient, WorkerPool, local_expected


class _FakeProc:
    """A dead multiprocessing.Process stand-in for accounting tests."""

    def __init__(self, pid: int, exitcode) -> None:
        self.pid = pid
        self.exitcode = exitcode
        self.terminated = self.killed = False

    def is_alive(self) -> bool:
        return self.exitcode is None

    def terminate(self) -> None:
        self.terminated = True

    def kill(self) -> None:
        self.killed = True

    def join(self, timeout=None) -> None:
        pass


# ----------------------------------------------------------------------
# Pure accounting (no real processes)
# ----------------------------------------------------------------------
def test_close_records_every_reaped_exit_once():
    pool = WorkerPool(workers=2, restart=False)
    pool._procs = [_FakeProc(101, -signal.SIGKILL), _FakeProc(102, 0)]
    pool.close()
    stats = pool.stats()
    assert stats["restarts"] == 0
    assert sorted((e["slot"], e["pid"], e["exitcode"])
                  for e in stats["exits"]) == \
        [(0, 101, -signal.SIGKILL), (1, 102, 0)]


def test_close_never_double_counts_supervisor_records():
    pool = WorkerPool(workers=2, restart=False)
    pool._procs = [_FakeProc(201, -signal.SIGKILL), _FakeProc(202, 0)]
    # The supervisor already accounted slot 0's death...
    with pool._lock:
        pool._record_exit_locked(0, 201, -signal.SIGKILL)
    pool.close()
    # ... so close() must only add slot 1's, not re-record slot 0's.
    exits = pool.stats()["exits"]
    assert len(exits) == 2
    assert [e["pid"] for e in exits] == [201, 202]


def test_close_skips_unreaped_processes():
    """A proc with no exitcode yet has nothing truthful to record."""
    pool = WorkerPool(workers=1, restart=False)
    proc = _FakeProc(301, None)
    pool._procs = [proc]
    pool.close()
    assert pool.stats()["exits"] == []
    assert proc.terminated and proc.killed  # escalation still ran


def test_respawn_failure_records_are_pid_less():
    pool = WorkerPool(workers=1)
    with pool._lock:
        pool._record_exit_locked(0, None, "respawn failed: boom")
        pool._record_exit_locked(0, None, "respawn failed: boom")
    # pid-less records cannot be deduplicated (each is a real event).
    assert len(pool.stats()["exits"]) == 2


def test_stats_returns_an_isolated_snapshot():
    pool = WorkerPool(workers=1)
    with pool._lock:
        pool._record_exit_locked(0, 401, 0)
    snap = pool.stats()
    snap["restarts"] = 99
    snap["exits"].append({"slot": 9})
    snap["exits"][0]["exitcode"] = -15
    fresh = pool.stats()
    assert fresh["restarts"] == 0
    assert fresh["exits"] == [{"slot": 0, "pid": 401, "exitcode": 0}]


# ----------------------------------------------------------------------
# Real processes (slow): the accounting under live supervision
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_kill_restart_and_close_accounting_end_to_end(rng):
    """SIGKILL -> supervised restart; close() reaps and accounts the
    survivors: exactly one record per worker lifetime, no drift."""
    x = rng.standard_normal((2, 32))
    with WorkerPool(workers=1, port=0, backoff_base_s=0.01,
                    healthy_reset_s=1e9) as pool:
        victim_pid = pool._procs[0].pid
        os.kill(victim_pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while pool.stats()["restarts"] < 1 and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.stats()["restarts"] == 1
        with QuantClient(port=pool.port, retries=6, retry_seed=0) as cli:
            out = cli.quantize(x, fmt="m2xfp", op="weight")
            assert out.tobytes() == \
                local_expected(x, fmt="m2xfp", op="weight").tobytes()
        restarted_pid = pool._procs[0].pid
    stats = pool.stats()
    pids = [e["pid"] for e in stats["exits"]]
    assert pids.count(victim_pid) == 1      # supervisor's record
    assert pids.count(restarted_pid) == 1   # close()'s reap record
    assert len(pids) == len(set(pids))      # never double-counted
    kill_exit = next(e for e in stats["exits"]
                     if e["pid"] == victim_pid)
    assert kill_exit["exitcode"] == -signal.SIGKILL


@pytest.mark.slow
def test_unsupervised_pool_close_accounts_exits(rng):
    """restart=False pools have no supervisor; close() is the only
    reaper and must still account every exit (the fixed drift)."""
    x = rng.standard_normal((2, 32))
    with WorkerPool(workers=2, port=0, restart=False) as pool:
        with QuantClient(port=pool.port) as cli:
            cli.quantize(x, fmt="m2xfp")
        pids = [p.pid for p in pool._procs]
        os.kill(pids[0], signal.SIGKILL)  # dies with nobody watching
        deadline = time.monotonic() + 30.0
        while pool.alive() > 1 and time.monotonic() < deadline:
            time.sleep(0.05)
    stats = pool.stats()
    assert stats["restarts"] == 0
    recorded = {e["pid"]: e["exitcode"] for e in stats["exits"]}
    assert set(recorded) == set(pids), \
        "close() must account unsupervised deaths and its own reaps"
    assert recorded[pids[0]] == -signal.SIGKILL
    assert len(stats["exits"]) == len(pids)  # exactly once each
