"""Network quantization serving: wire protocol, asyncio server, clients.

The deployment layer the ROADMAP's "serves heavy traffic" goal asks
for: :mod:`repro.server.protocol` defines a versioned length-prefixed
binary frame format (golden-pinned in
``tests/golden/wire_vectors.json``); :class:`QuantServer` bridges TCP
connections onto shared :class:`~repro.serve.QuantService` arms with
explicit ``BUSY`` backpressure; :class:`WorkerPool` shards the port
across spawned worker processes via ``SO_REUSEPORT``;
:class:`QuantClient` / :class:`AsyncQuantClient` round-trip numpy
arrays (or packed containers) bit-exactly, with per-request deadlines
and bounded reconnect-retry. The stack is fault-tolerant end to end: the pool
supervises and restarts crashed workers, SIGTERM triggers a graceful
drain, and :class:`FaultProxy` (``repro.server.faults``) injects
seeded network chaos for the ``tests/test_faults.py`` suite.
``python -m repro serve`` runs it from the command line;
``scripts/bench_server.py`` load-tests it into ``BENCH_server.json``.

Example::

    from repro.server import ServerThread, QuantClient

    with ServerThread(port=0) as st, QuantClient(port=st.port) as cli:
        out = cli.quantize(x, fmt="m2xfp", op="weight", verify=True)
"""

from . import protocol
from .client import AsyncQuantClient, QuantClient, local_expected
from .faults import FaultPlan, FaultProxy
from .server import (DEFAULT_MAX_INFLIGHT, DEFAULT_PORT, DRAIN_TIMEOUT_ENV,
                     MAX_INFLIGHT_ENV, PORT_ENV, READ_TIMEOUT_ENV,
                     WORKERS_ENV, QuantServer, ServerThread, run_server)
from .workers import MAX_RESTARTS_ENV, WorkerPool, reuseport_listener

__all__ = [
    "protocol", "QuantServer", "ServerThread", "run_server",
    "QuantClient", "AsyncQuantClient", "local_expected",
    "WorkerPool", "reuseport_listener",
    "FaultPlan", "FaultProxy",
    "PORT_ENV", "MAX_INFLIGHT_ENV", "WORKERS_ENV",
    "READ_TIMEOUT_ENV", "DRAIN_TIMEOUT_ENV", "MAX_RESTARTS_ENV",
    "DEFAULT_PORT", "DEFAULT_MAX_INFLIGHT",
]
