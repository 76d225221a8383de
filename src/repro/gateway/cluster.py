"""Local multi-replica cluster: N independent ``QuantServer`` replicas.

``ReplicaCluster`` is the gateway's default upstream topology when no
``--upstream`` endpoints are given: N single-worker
:class:`~repro.server.WorkerPool` instances, each on its **own**
ephemeral port. Distinct ports (rather than one ``SO_REUSEPORT``
shard) is the point — the consistent-hash router needs addressable
replicas so a format's traffic pins to one plan cache / weight memo,
which kernel-level accept balancing would scramble. Each replica keeps
the pool's supervision for free: a crashed replica process restarts on
its own port and the gateway's probe loop picks it back up.

Env knob: ``REPRO_GATEWAY_REPLICAS`` (default 2) — consumed by
``python -m repro gateway`` and the bench harness.

Example::

    from repro.gateway import ReplicaCluster, GatewayThread

    with ReplicaCluster(replicas=2) as cluster:
        with GatewayThread(upstreams=cluster.endpoints, port=0) as gw:
            ...
"""

from __future__ import annotations

from ..errors import ConfigError
from ..server.server import _env_int
from ..server.workers import WorkerPool

__all__ = ["ReplicaCluster", "REPLICAS_ENV", "DEFAULT_REPLICAS"]

#: Environment knob (documented in the README's env-knob table).
REPLICAS_ENV = "REPRO_GATEWAY_REPLICAS"

DEFAULT_REPLICAS = 2


class ReplicaCluster:
    """N supervised single-process ``QuantServer`` replicas.

    Parameters
    ----------
    replicas:
        Replica count (``None`` reads ``REPRO_GATEWAY_REPLICAS``,
        default 2).
    host:
        Bind address shared by every replica (each gets its own
        ephemeral port).
    **server_kwargs:
        Forwarded to each replica's ``QuantServer`` (``max_inflight``,
        ``read_timeout_s``, ...).
    """

    def __init__(self, replicas: int | None = None, *,
                 host: str = "127.0.0.1", restart: bool = True,
                 **server_kwargs) -> None:
        n = _env_int(REPLICAS_ENV, DEFAULT_REPLICAS) \
            if replicas is None else int(replicas)
        if n < 1:
            raise ConfigError("ReplicaCluster needs at least 1 replica")
        self.replicas = n
        self.host = host
        self._restart = restart
        self._server_kwargs = dict(server_kwargs)
        self.pools: list[WorkerPool] = []

    @property
    def endpoints(self) -> list[str]:
        """``host:port`` per started replica — feed to the gateway."""
        return [f"{pool.host}:{pool.port}" for pool in self.pools]

    def start(self) -> "ReplicaCluster":
        if self.pools:
            return self
        try:
            for _ in range(self.replicas):
                pool = WorkerPool(workers=1, host=self.host, port=0,
                                  restart=self._restart,
                                  **self._server_kwargs)
                pool.start()
                self.pools.append(pool)
        except BaseException:
            self.close()
            raise
        return self

    def check(self) -> None:
        """Surface any replica's crash-loop failure."""
        for pool in self.pools:
            pool.check()

    def drain(self) -> None:
        """SIGTERM every replica: graceful in-process drains."""
        for pool in self.pools:
            for proc in pool._procs:
                if proc is not None and proc.is_alive():
                    proc.terminate()

    def close(self) -> None:
        for pool in self.pools:
            pool.close()
        self.pools = []

    def __enter__(self) -> "ReplicaCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
