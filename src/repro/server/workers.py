"""Multi-process worker sharding + supervision for the quantization server.

``WorkerPool`` spawns N fresh interpreter processes (``spawn`` context,
like the experiment runner's pool — no inherited module caches), each
binding its own ``SO_REUSEPORT`` listening socket on the **same** port
and running a full :class:`~repro.server.QuantServer`. The kernel
load-balances incoming connections across the workers' accept queues,
so clients need no front-end dispatcher: they connect to one
host:port and land on some worker.

The pool is **supervised**: a monitor thread detects dead workers and
restarts them on the shared port with exponential backoff, so a
SIGKILLed or crashed worker shrinks capacity only for the restart
window — never forever. Restarts and exit codes are accounted by
:meth:`stats`; a worker that keeps dying trips the **crash-loop
budget** (``max_restarts`` per slot, ``REPRO_SERVER_MAX_RESTARTS``)
and surfaces a hard :class:`~repro.errors.WorkerCrashLoop` through
:meth:`check` / :meth:`join` instead of flapping silently. Workers
that exit cleanly (a drain, ``--max-requests``) are *not* restarted.

``close()`` reaps every child with a bounded join, escalating
``terminate()`` (SIGTERM — a graceful in-worker drain) to ``kill()``:
no zombie processes survive a failed test run, and every exit the
close reaps is accounted in :meth:`stats` exactly once — including
workers that died earlier without a supervisor watching
(``restart=False`` pools).

Why sharding beats one process: each worker has its own GIL and event
loop, so on a multi-core host one worker's frame handling and quantize
passes run in parallel with another's. (A request runs as soon as its
worker reads it and never idles on a timer, so on one core the workers
only time-slice.) ``scripts/bench_server.py`` measures the
sharded-vs-single ratio into ``BENCH_server.json``.

The first worker binds the requested port (``port=0`` picks an
ephemeral one) and reports the real port back over a pipe; the
remaining workers then bind that same port. A worker that fails to
start fails :meth:`start` loudly — never a half-sized pool by accident.

Example::

    from repro.server import WorkerPool, QuantClient

    with WorkerPool(workers=2, port=0) as pool:
        with QuantClient(port=pool.port, retries=4) as cli:
            out = cli.quantize(x, fmt="m2xfp")
"""

from __future__ import annotations

import socket
import threading
import time

from ..errors import ConfigError, WorkerCrashLoop
from .server import QuantServer, WORKERS_ENV, _env_int, run_server

__all__ = ["WorkerPool", "reuseport_listener",
           "MAX_RESTARTS_ENV", "DEFAULT_MAX_RESTARTS"]

#: Environment knob (documented in the README's env-knob table).
MAX_RESTARTS_ENV = "REPRO_SERVER_MAX_RESTARTS"

DEFAULT_MAX_RESTARTS = 5


def reuseport_listener(host: str, port: int) -> socket.socket:
    """A bound+listening TCP socket with ``SO_REUSEPORT`` sharding on."""
    if not hasattr(socket, "SO_REUSEPORT"):
        raise ConfigError("multi-process worker sharding needs "
                          "SO_REUSEPORT, which this platform lacks; "
                          "run a single worker instead")
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(128)
        sock.setblocking(False)
    except BaseException:
        sock.close()
        raise
    return sock


def _worker_main(conn, host: str, port: int, server_kwargs: dict) -> None:
    """Entry point of one spawned worker process."""
    sock = reuseport_listener(host, port)
    # Binding succeeded: report the real port — that is the readiness
    # signal (the socket is already listening, so connections queue in
    # its backlog until the loop starts accepting).
    conn.send(sock.getsockname()[1])
    conn.close()
    server = QuantServer(host=host, port=0, **server_kwargs)
    # run_server installs the SIGTERM -> graceful-drain handler (this
    # is the child's main thread), so pool.close() drains workers.
    run_server(server, sock=sock)


class WorkerPool:
    """N supervised ``QuantServer`` processes sharing one host:port.

    Parameters
    ----------
    restart:
        Supervise and restart crashed workers (default on). Clean
        exits (code 0: a drain or ``max_requests``) never restart.
    max_restarts:
        Crash-loop budget per worker slot; exceeding it records a
        :class:`WorkerCrashLoop` surfaced by :meth:`check`/:meth:`join`
        (``None`` reads ``REPRO_SERVER_MAX_RESTARTS``, default 5). A
        slot that stays up for ``healthy_reset_s`` earns its budget
        back.
    backoff_base_s / backoff_max_s:
        Exponential backoff between a slot's consecutive restarts.
    """

    def __init__(self, workers: int | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 start_timeout: float = 60.0, restart: bool = True,
                 max_restarts: int | None = None,
                 backoff_base_s: float = 0.05, backoff_max_s: float = 2.0,
                 healthy_reset_s: float = 30.0,
                 poll_interval_s: float = 0.05,
                 reap_timeout_s: float = 10.0, **server_kwargs) -> None:
        if workers is None:
            workers = _env_int(WORKERS_ENV, 2)
        if workers < 1:
            raise ConfigError("WorkerPool needs at least 1 worker")
        self.workers = int(workers)
        self.host = host
        self.port = int(port)
        self.start_timeout = float(start_timeout)
        self.restart = bool(restart)
        self.max_restarts = _env_int(MAX_RESTARTS_ENV, DEFAULT_MAX_RESTARTS) \
            if max_restarts is None else int(max_restarts)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.healthy_reset_s = float(healthy_reset_s)
        self.poll_interval_s = float(poll_interval_s)
        self.reap_timeout_s = float(reap_timeout_s)
        self._server_kwargs = dict(server_kwargs)
        self._stats = {"restarts": 0, "exits": []}
        self._recorded_pids: set[int] = set()
        self._procs: list = []
        self._slot_restarts: list[int] = []
        self._slot_spawned_at: list[float] = []
        self._done_slots: set[int] = set()
        self._ctx = None
        self._lock = threading.Lock()
        self._closing = False
        self._failure: WorkerCrashLoop | None = None
        self._supervisor: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Spawn every worker, wait until all listen, start supervision."""
        if self._procs:
            return self
        import multiprocessing as mp
        self._ctx = mp.get_context("spawn")
        try:
            port = self.port
            for _ in range(self.workers):
                proc, port = self._spawn(port)
                self._procs.append(proc)
                self._slot_restarts.append(0)
                self._slot_spawned_at.append(time.monotonic())
            self.port = port
        except BaseException:
            self.close()
            raise
        if self.restart:
            self._supervisor = threading.Thread(
                target=self._supervise, name="quant-pool-supervisor",
                daemon=True)
            self._supervisor.start()
        from ..obs import registry as obs_registry
        obs_registry().register_collector("server.workers",
                                          self._collect_metrics)
        return self

    def _spawn(self, port: int):
        """Spawn one worker; returns (process, resolved port)."""
        parent, child = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(target=_worker_main,
                                 args=(child, self.host, port,
                                       self._server_kwargs),
                                 daemon=True)
        proc.start()
        child.close()
        # The first worker resolves port 0 to a real port; the rest
        # (and every restart) must bind exactly that one.
        if not parent.poll(self.start_timeout):
            proc.terminate()
            proc.join(timeout=5.0)
            raise ConfigError(
                f"server worker (pid {proc.pid}) did not report "
                f"its port within {self.start_timeout:.0f}s")
        port = parent.recv()
        parent.close()
        return proc, port

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        backoff = [self.backoff_base_s] * self.workers
        while not self._closing and self._failure is None:
            time.sleep(self.poll_interval_s)
            for slot in range(len(self._procs)):
                with self._lock:
                    if self._closing or self._failure is not None:
                        return
                    proc = self._procs[slot]
                    if proc is None or proc.is_alive() or \
                            slot in self._done_slots:
                        continue
                    exitcode = proc.exitcode
                    proc.join()  # reap promptly: no zombie between polls
                    self._record_exit_locked(slot, proc.pid, exitcode)
                    if exitcode == 0:
                        # Deliberate exit (drain / max_requests): this
                        # slot is done, not crashed.
                        self._done_slots.add(slot)
                        continue
                    uptime = time.monotonic() - self._slot_spawned_at[slot]
                    if uptime >= self.healthy_reset_s:
                        self._slot_restarts[slot] = 0
                        backoff[slot] = self.backoff_base_s
                    if self._slot_restarts[slot] >= self.max_restarts:
                        self._failure = WorkerCrashLoop(
                            f"worker slot {slot} crashed "
                            f"{self._slot_restarts[slot] + 1} times "
                            f"(last exit code {exitcode}); restart "
                            f"budget {self.max_restarts} exhausted")
                        return
                    self._slot_restarts[slot] += 1
                    delay = backoff[slot]
                    backoff[slot] = min(backoff[slot] * 2.0,
                                        self.backoff_max_s)
                # Back off outside the lock so close() stays responsive.
                time.sleep(delay)
                with self._lock:
                    if self._closing or self._failure is not None:
                        return
                    try:
                        proc, _ = self._spawn(self.port)
                    except ConfigError as exc:
                        # A failed respawn is itself a crash: it eats
                        # budget and the loop tries again (or trips).
                        self._record_exit_locked(
                            slot, None, f"respawn failed: {exc}")
                        if self._slot_restarts[slot] >= self.max_restarts:
                            self._failure = WorkerCrashLoop(
                                f"worker slot {slot}: respawn failed "
                                f"with the restart budget exhausted: "
                                f"{exc}")
                            return
                        self._slot_restarts[slot] += 1
                        continue
                    self._procs[slot] = proc
                    self._slot_spawned_at[slot] = time.monotonic()
                    self._stats["restarts"] += 1

    def _record_exit_locked(self, slot: int, pid, exitcode) -> None:
        """Account one worker exit (caller holds ``self._lock`` or is
        the only live accessor); each pid is recorded at most once."""
        if pid is not None:
            if pid in self._recorded_pids:
                return
            self._recorded_pids.add(pid)
        self._stats["exits"].append(
            {"slot": slot, "pid": pid, "exitcode": exitcode})

    def stats(self) -> dict:
        """Snapshot of the restart/exit accounting.

        ``{"restarts": <supervised respawns>, "exits": [{"slot",
        "pid", "exitcode"}, ...]}`` — every worker exit appears exactly
        once, whether the supervisor reaped it live or :meth:`close`
        reaped it during teardown.
        """
        with self._lock:
            return {"restarts": self._stats["restarts"],
                    "exits": [dict(e) for e in self._stats["exits"]]}

    def _collect_metrics(self) -> dict:
        """Registry collector view: exits flattened to a count so the
        snapshot stays a flat JSON-safe dict."""
        with self._lock:
            return {"restarts": self._stats["restarts"],
                    "exits": len(self._stats["exits"]),
                    "workers": len(self._procs)}

    def check(self) -> None:
        """Raise :class:`WorkerCrashLoop` if the restart budget tripped."""
        if self._failure is not None:
            raise self._failure

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Reap every worker: bounded join, escalating SIGTERM -> SIGKILL."""
        with self._lock:
            self._closing = True
        if self._supervisor is not None:
            self._supervisor.join(timeout=self.reap_timeout_s)
            self._supervisor = None
        procs = [p for p in self._procs if p is not None]
        for proc in procs:
            if proc.is_alive():
                proc.terminate()  # SIGTERM: in-worker graceful drain
        deadline = time.monotonic() + self.reap_timeout_s
        for proc in procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in procs:
            if proc.is_alive():  # drain wedged or TERM ignored: escalate
                proc.kill()
        for proc in procs:
            if proc.is_alive():
                proc.join(timeout=5.0)
        with self._lock:
            # Account the exits this reap produced (and any that died
            # unsupervised, e.g. restart=False pools) exactly once —
            # the supervisor's records are pid-deduplicated above.
            for slot, proc in enumerate(self._procs):
                if proc is not None and proc.exitcode is not None:
                    self._record_exit_locked(slot, proc.pid,
                                             proc.exitcode)
        self._procs = []
        self._slot_restarts = []
        self._slot_spawned_at = []
        self._done_slots = set()
        from ..obs import registry as obs_registry
        obs_registry().unregister_collector("server.workers")

    def alive(self) -> int:
        """How many workers are currently running."""
        return sum(1 for proc in self._procs
                   if proc is not None and proc.is_alive())

    def join(self, poll_s: float = 0.1, stop=None) -> None:
        """Block until the pool finishes (the CLI's foreground wait).

        Returns when every worker has exited cleanly, the pool was
        closed, or the optional ``stop`` event (a ``threading.Event``,
        e.g. set from a SIGTERM handler) fires; raises
        :class:`WorkerCrashLoop` if supervision tripped the crash-loop
        budget.
        """
        while True:
            self.check()
            if self._closing or not self._procs:
                return
            if stop is not None and stop.is_set():
                return
            if len(self._done_slots) == len(self._procs):
                return
            if not self.restart and self.alive() == 0:
                return
            if stop is not None:
                stop.wait(poll_s)
            else:
                time.sleep(poll_s)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
