"""A deterministic TCP chaos proxy for fault-injection testing.

``FaultProxy`` sits between a client and a quantization server,
forwards whole wire frames in both directions, and injects failures
according to a seeded :class:`FaultPlan`:

* **delay** — hold a frame for ``delay_s`` before forwarding;
* **kill** — abort the connection instead of forwarding a frame
  (simulates a crashed peer / RST mid-conversation);
* **truncate** — forward a random *prefix* of a frame, then abort
  (the receiver sees a mid-frame close);
* **corrupt** — flip one byte in the frame's magic/version region
  before forwarding (the receiver gets an immediate typed
  ``ProtocolError``; payload bytes are left alone on purpose — the
  protocol carries no checksum, so payload corruption would be
  silent, and the chaos suite's job is proving *detectable* faults
  never corrupt results);
* **close-after-N** — abort once a connection has carried N frames.

Every decision comes from ``random.Random(f"{seed}:{conn}:{dir}")`` —
per-connection, per-direction streams — so a given traffic order
replays the same faults. The knobs are also readable from the
environment (``FaultPlan.from_env``): ``REPRO_FAULT_SEED``,
``REPRO_FAULT_DELAY_S``, ``REPRO_FAULT_DELAY_PROB``,
``REPRO_FAULT_KILL_PROB``, ``REPRO_FAULT_TRUNCATE_PROB``,
``REPRO_FAULT_CORRUPT_PROB``, ``REPRO_FAULT_CLOSE_AFTER``.

Example::

    from repro.server import FaultPlan, FaultProxy, QuantClient

    plan = FaultPlan(seed=7, kill_prob=0.05, truncate_prob=0.05)
    with FaultProxy(target_port=server_port, plan=plan) as px:
        with QuantClient(port=px.port, retries=8) as cli:
            out = cli.quantize(x, fmt="m2xfp", verify=True)  # still exact
"""

from __future__ import annotations

import asyncio
import os
import random
import struct
import threading

from ..errors import ConfigError
from dataclasses import dataclass

__all__ = ["FaultPlan", "FaultProxy",
           "FAULT_SEED_ENV", "FAULT_DELAY_S_ENV", "FAULT_DELAY_PROB_ENV",
           "FAULT_KILL_PROB_ENV", "FAULT_TRUNCATE_PROB_ENV",
           "FAULT_CORRUPT_PROB_ENV", "FAULT_CLOSE_AFTER_ENV"]

#: Environment knobs (documented in the README's env-knob table).
FAULT_SEED_ENV = "REPRO_FAULT_SEED"
FAULT_DELAY_S_ENV = "REPRO_FAULT_DELAY_S"
FAULT_DELAY_PROB_ENV = "REPRO_FAULT_DELAY_PROB"
FAULT_KILL_PROB_ENV = "REPRO_FAULT_KILL_PROB"
FAULT_TRUNCATE_PROB_ENV = "REPRO_FAULT_TRUNCATE_PROB"
FAULT_CORRUPT_PROB_ENV = "REPRO_FAULT_CORRUPT_PROB"
FAULT_CLOSE_AFTER_ENV = "REPRO_FAULT_CLOSE_AFTER"

_LEN = struct.Struct("<I")

#: Corruptible body offsets: the magic + version + kind bytes. Any flip
#: here is *detectable* by the receiving frame parser.
_CORRUPT_SPAN = 6


def _env(env: dict | None, name: str, cast, default):
    raw = (os.environ if env is None else env).get(name)
    if raw is None or raw == "":
        return default
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"{name} must be a {cast.__name__}, "
                          f"got {raw!r}") from None


@dataclass(frozen=True)
class FaultPlan:
    """Seeded fault probabilities applied per forwarded frame."""

    seed: int = 0
    delay_s: float = 0.0
    delay_prob: float = 0.0
    kill_prob: float = 0.0
    truncate_prob: float = 0.0
    corrupt_prob: float = 0.0
    close_after_frames: int | None = None

    def __post_init__(self) -> None:
        for name in ("delay_prob", "kill_prob", "truncate_prob",
                     "corrupt_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
        if self.delay_s < 0:
            raise ConfigError("delay_s must be >= 0")
        if self.close_after_frames is not None \
                and self.close_after_frames < 1:
            raise ConfigError("close_after_frames must be >= 1")

    @classmethod
    def from_env(cls, env: dict | None = None) -> "FaultPlan":
        """A plan from the ``REPRO_FAULT_*`` knobs (all default to off)."""
        close_after = _env(env, FAULT_CLOSE_AFTER_ENV, int, None)
        return cls(
            seed=_env(env, FAULT_SEED_ENV, int, 0),
            delay_s=_env(env, FAULT_DELAY_S_ENV, float, 0.0),
            delay_prob=_env(env, FAULT_DELAY_PROB_ENV, float, 0.0),
            kill_prob=_env(env, FAULT_KILL_PROB_ENV, float, 0.0),
            truncate_prob=_env(env, FAULT_TRUNCATE_PROB_ENV, float, 0.0),
            corrupt_prob=_env(env, FAULT_CORRUPT_PROB_ENV, float, 0.0),
            close_after_frames=close_after,
        )

    @property
    def any_faults(self) -> bool:
        return bool(self.delay_prob or self.kill_prob or self.truncate_prob
                    or self.corrupt_prob
                    or self.close_after_frames is not None)


class _Abort(Exception):
    """Internal: this connection dies now (both directions)."""


class FaultProxy:
    """A frame-aware TCP proxy injecting :class:`FaultPlan` faults.

    Runs its own asyncio loop on a background thread (same shape as
    ``ServerThread``); entering the context binds ``port`` (0 =
    ephemeral) and :attr:`port` then holds the real listen port.
    :attr:`stats` counts connections, forwarded frames and each
    injected fault kind.
    """

    def __init__(self, target_port: int, *,
                 target_host: str = "127.0.0.1",
                 host: str = "127.0.0.1", port: int = 0,
                 plan: FaultPlan | None = None) -> None:
        self.target_host = target_host
        self.target_port = int(target_port)
        self.host = host
        self.port = int(port)
        self.plan = FaultPlan.from_env() if plan is None else plan
        self.stats = {"connections": 0, "frames_forwarded": 0,
                      "killed": 0, "truncated": 0, "corrupted": 0,
                      "delayed": 0, "refused": 0}
        self._conn_seq = 0
        self._conn_tasks: set = set()
        self._pumps: set = set()
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "FaultProxy":
        self._thread = threading.Thread(target=self._main,
                                        name="fault-proxy", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ConfigError("fault proxy failed to start in 30s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def __exit__(self, *exc) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._on_connection,
                                            host=self.host, port=self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            # Reap live connections before the loop dies by cancelling
            # their pumps: each handler's gather then returns, and the
            # handler tears down and returns normally. A cancelled
            # handler would make asyncio's stream done-callback log a
            # CancelledError as a callback error.
            for pump in list(self._pumps):
                pump.cancel()
            while self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)

    # ------------------------------------------------------------------
    async def _on_connection(self, creader: asyncio.StreamReader,
                             cwriter: asyncio.StreamWriter) -> None:
        conn = self._conn_seq
        self._conn_seq += 1
        self.stats["connections"] += 1
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        try:
            sreader, swriter = await asyncio.open_connection(
                self.target_host, self.target_port)
        except OSError:
            self.stats["refused"] += 1
            cwriter.transport.abort()
            return
        if self._stop.is_set():
            # Stopped while connecting upstream: no pumps to reap.
            cwriter.transport.abort()
            swriter.transport.abort()
            return
        shared = {"frames": 0}
        writers = (cwriter, swriter)
        pumps = [
            asyncio.create_task(self._pump(
                creader, swriter, writers, shared,
                random.Random(f"{self.plan.seed}:{conn}:c2s"))),
            asyncio.create_task(self._pump(
                sreader, cwriter, writers, shared,
                random.Random(f"{self.plan.seed}:{conn}:s2c"))),
        ]
        for pump in pumps:
            self._pumps.add(pump)
            pump.add_done_callback(self._pumps.discard)
        try:
            await asyncio.gather(*pumps, return_exceptions=True)
        finally:
            for writer in writers:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError, asyncio.CancelledError):
                    pass

    async def _pump(self, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter, writers, shared,
                    rng: random.Random) -> None:
        """Forward frames one way, rolling the fault dice per frame."""
        try:
            while True:
                try:
                    prefix = await reader.readexactly(_LEN.size)
                    (body_len,) = _LEN.unpack(prefix)
                    body = await reader.readexactly(body_len)
                except (asyncio.IncompleteReadError, ConnectionError,
                        OSError):
                    # Upstream EOF / abort: mirror it downstream.
                    raise _Abort from None
                frame = bytearray(prefix + body)
                shared["frames"] += 1
                if self.plan.close_after_frames is not None and \
                        shared["frames"] > self.plan.close_after_frames:
                    self.stats["killed"] += 1
                    raise _Abort
                if rng.random() < self.plan.kill_prob:
                    self.stats["killed"] += 1
                    raise _Abort
                if rng.random() < self.plan.truncate_prob:
                    cut = rng.randrange(1, len(frame))
                    writer.write(bytes(frame[:cut]))
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass
                    self.stats["truncated"] += 1
                    raise _Abort
                if len(body) >= _CORRUPT_SPAN and \
                        rng.random() < self.plan.corrupt_prob:
                    offset = _LEN.size + rng.randrange(_CORRUPT_SPAN)
                    frame[offset] ^= 0xFF
                    self.stats["corrupted"] += 1
                if self.plan.delay_s > 0 and \
                        rng.random() < self.plan.delay_prob:
                    self.stats["delayed"] += 1
                    await asyncio.sleep(self.plan.delay_s)
                # Count before the write: the peer may read the frame and
                # inspect these stats before this task resumes.
                self.stats["frames_forwarded"] += 1
                writer.write(bytes(frame))
                await writer.drain()
        except _Abort:
            for w in writers:
                try:
                    w.transport.abort()
                except (ConnectionError, OSError, AttributeError):
                    pass
        except (ConnectionError, OSError):
            pass
