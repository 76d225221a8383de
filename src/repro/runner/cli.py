"""Unified command-line interface for the experiment runner.

Usage::

    python -m repro list
    python -m repro run tbl3 fig6 --jobs 4 --fast
    python -m repro run all --jobs 4
    python -m repro sweep --formats mxfp4,m2xfp --profiles llama2-7b
    python -m repro serve --port 7421 --workers 2
    python -m repro gateway --port 7420 --replicas 2

The pre-runner invocation style (``python -m repro tbl3 [--full]``) is
kept as an alias for ``run``: a first argument that is a known
experiment id is treated as ``run`` with that id.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ReproError
from ..experiments import EXPERIMENTS, list_experiments
from .context import RunContext
from .formats import list_formats
from .runner import ExperimentRunner
from .sweep import SweepRunner

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's experiments (sharded, cached).")
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run experiments (default command)")
    run.add_argument("ids", nargs="+",
                     help="experiment ids, or 'all' for the whole registry")
    _add_run_options(run)

    sub.add_parser("list", help="list experiment ids and formats")

    sweep = sub.add_parser("sweep", help="format x profile perplexity grid")
    sweep.add_argument("--formats", required=True,
                       help="comma-separated catalog format names")
    sweep.add_argument("--profiles", default="llama2-7b,llama3-8b",
                       help="comma-separated profile keys")
    _add_run_options(sweep)

    serve = sub.add_parser(
        "serve", help="asyncio TCP quantization server (repro.server)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (default REPRO_SERVER_PORT or 7421; "
                            "0 binds an ephemeral port)")
    serve.add_argument("--workers", type=int, default=None,
                       help="spawned worker processes sharing the port via "
                            "SO_REUSEPORT (default REPRO_SERVER_WORKERS or "
                            "0 = serve in this process)")
    serve.add_argument("--max-inflight", type=int, default=None,
                       help="admitted-but-unanswered request bound per "
                            "worker; beyond it requests get BUSY (default "
                            "REPRO_SERVER_MAX_INFLIGHT or 64)")
    serve.add_argument("--max-requests", type=int, default=None,
                       help="exit after this many responses (smoke runs; "
                            "in-process mode only)")
    serve.add_argument("--read-timeout-s", type=float, default=None,
                       help="slow-loris guard: a started frame must "
                            "complete within this many seconds (default "
                            "REPRO_SERVER_READ_TIMEOUT_S or 60; 0 disables)")
    serve.add_argument("--drain-timeout-s", type=float, default=None,
                       help="bound on finishing in-flight work during a "
                            "SIGTERM/DRAIN graceful shutdown (default "
                            "REPRO_SERVER_DRAIN_TIMEOUT_S or 30)")
    serve.add_argument("--max-restarts", type=int, default=None,
                       help="per-slot crash-loop budget for supervised "
                            "worker restarts (default "
                            "REPRO_SERVER_MAX_RESTARTS or 5; pool mode)")
    serve.add_argument("--no-restart", action="store_true",
                       help="disable worker supervision/restart "
                            "(pool mode)")

    gateway = sub.add_parser(
        "gateway", help="HTTP front-end over N server replicas "
                        "(repro.gateway)")
    gateway.add_argument("--host", default="127.0.0.1")
    gateway.add_argument("--port", type=int, default=None,
                         help="HTTP port (default REPRO_GATEWAY_PORT or "
                              "7420; 0 binds an ephemeral port)")
    gateway.add_argument("--replicas", type=int, default=None,
                         help="QuantServer replicas to launch locally "
                              "(default REPRO_GATEWAY_REPLICAS or 2; "
                              "ignored with --upstream)")
    gateway.add_argument("--upstream", default=None,
                         help="comma-separated host:port of already-"
                              "running replicas (skips launching any)")
    gateway.add_argument("--hash-seed", type=int, default=None,
                         help="consistent-hash ring salt (default "
                              "REPRO_GATEWAY_HASH_SEED or 0)")
    gateway.add_argument("--probe-interval-s", type=float, default=None,
                         help="replica PING/HEALTH probe period (default "
                              "REPRO_GATEWAY_PROBE_INTERVAL_S or 1.0)")
    gateway.add_argument("--upstream-timeout-s", type=float, default=30.0,
                         help="deadline per upstream attempt "
                              "(default 30)")
    gateway.add_argument("--max-inflight", type=int, default=None,
                         help="per-replica admission bound (default "
                              "REPRO_SERVER_MAX_INFLIGHT or 64; launched "
                              "replicas only)")
    gateway.add_argument("--drain-timeout-s", type=float, default=30.0,
                         help="bound on finishing in-flight requests "
                              "during a SIGTERM graceful drain "
                              "(default 30)")
    return parser


def _add_run_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--jobs", type=int, default=1,
                     help="worker processes (default 1: in-process)")
    mode = cmd.add_mutually_exclusive_group()
    mode.add_argument("--fast", dest="fast", action="store_true",
                      default=True, help="reduced eval sizes (default)")
    mode.add_argument("--full", dest="fast", action="store_false",
                      help="full profile-default eval sizes")
    cmd.add_argument("--seed", type=int, default=0,
                     help="global seed applied in every worker")
    cmd.add_argument("--no-cache", action="store_true",
                     help="ignore and do not write the result cache")
    cmd.add_argument("--results-dir", default=None,
                     help="artifact directory (default results/)")
    cmd.add_argument("--cache-dir", default=None,
                     help="cache directory (default <results>/cache)")
    cmd.add_argument("--quiet", action="store_true",
                     help="suppress per-experiment table output")


def _context(args: argparse.Namespace) -> RunContext:
    kwargs = dict(fast=args.fast, seed=args.seed, jobs=args.jobs,
                  use_cache=not args.no_cache)
    if args.results_dir is not None:
        kwargs["results_dir"] = args.results_dir
    if args.cache_dir is not None:
        kwargs["cache_dir"] = args.cache_dir
    return RunContext(**kwargs)


def _cmd_list() -> int:
    print("experiments (python -m repro run <id> ...):")
    for exp_id in list_experiments():
        module = sys.modules[EXPERIMENTS[exp_id].__module__]
        doc = (module.__doc__ or "").strip().splitlines()[0] if module.__doc__ else ""
        print(f"  {exp_id:10s} {doc}")
    print("\nsweep formats (python -m repro sweep --formats <a,b,...>):")
    print("  " + ", ".join(list_formats()))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    ids = list(args.ids)
    if ids == ["all"]:
        ids = list_experiments()
    context = _context(args)
    runner = ExperimentRunner(context)

    def progress(record) -> None:
        src = "cache" if record.cached else f"{record.seconds:.1f}s"
        if not args.quiet:
            print(record.result.render())
        print(f"[{record.experiment_id}: {src} -> {record.artifact_path}]")

    runner.run(ids, progress=progress)
    stats = runner.cache.stats
    print(f"cache: {stats['hits']} hits / {stats['hits'] + stats['misses']} "
          f"experiments (jobs={context.jobs}, "
          f"{'fast' if context.fast else 'full'} mode)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    context = _context(args)
    runner = SweepRunner(context)
    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    profiles = [p.strip() for p in args.profiles.split(",") if p.strip()]

    def progress(arm, outcome) -> None:
        print(f"[{arm[0]} x {arm[1]}: {outcome['seconds']:.1f}s]")

    record = runner.run(formats, profiles, progress=progress)
    if not args.quiet:
        print(record.result.render())
    stats = runner.cache.stats
    print(f"cache: {stats['hits']} hits / {stats['hits'] + stats['misses']} "
          f"arms -> {record.artifact_path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from ..server import QuantServer, WorkerPool, run_server
    from ..server.server import WORKERS_ENV, _env_int
    workers = args.workers
    if workers is None:
        workers = _env_int(WORKERS_ENV, 0)
    server_kwargs = dict(max_inflight=args.max_inflight,
                         read_timeout_s=args.read_timeout_s,
                         drain_timeout_s=args.drain_timeout_s)
    if workers > 0:
        with WorkerPool(workers=workers, host=args.host,
                        port=args.port if args.port is not None else 0,
                        restart=not args.no_restart,
                        max_restarts=args.max_restarts,
                        **server_kwargs) as pool:
            print(f"serving on {args.host}:{pool.port} "
                  f"({pool.workers} workers, SO_REUSEPORT, "
                  f"{'supervised' if pool.restart else 'unsupervised'})",
                  flush=True)
            # SIGTERM drains the pool: join() returns, then close()
            # SIGTERMs each worker (graceful in-worker drain) and reaps.
            import threading
            stop = threading.Event()
            old = signal.signal(signal.SIGTERM, lambda s, f: stop.set())
            try:
                pool.join(stop=stop)
            except KeyboardInterrupt:
                pass
            finally:
                signal.signal(signal.SIGTERM, old)
        return 0
    server = QuantServer(host=args.host, port=args.port,
                         max_requests=args.max_requests, **server_kwargs)
    run_server(server, ready=lambda port: print(
        f"serving on {args.host}:{port} (in-process)", flush=True))
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    import contextlib
    import signal

    from ..gateway import QuantGateway, ReplicaCluster, run_gateway
    server_kwargs = dict(max_inflight=args.max_inflight)
    with contextlib.ExitStack() as stack:
        if args.upstream:
            upstreams = [u.strip() for u in args.upstream.split(",")
                         if u.strip()]
        else:
            cluster = stack.enter_context(
                ReplicaCluster(replicas=args.replicas, host=args.host,
                               **server_kwargs))
            stack.callback(cluster.drain)  # graceful before close() reaps
            upstreams = cluster.endpoints
        gateway = QuantGateway(
            upstreams, host=args.host, port=args.port,
            hash_seed=args.hash_seed,
            probe_interval_s=args.probe_interval_s,
            upstream_timeout_s=args.upstream_timeout_s,
            drain_timeout_s=args.drain_timeout_s)
        # run_gateway installs SIGTERM -> gateway drain (main thread);
        # once it returns, the stack drains + reaps the local replicas.
        run_gateway(gateway, ready=lambda port: print(
            f"gateway on {args.host}:{port} over "
            f"{len(upstreams)} replica(s): {', '.join(upstreams)}",
            flush=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    # Legacy alias: `python -m repro tbl3 [--full]` == `run tbl3 [--full]`.
    # The old CLI accepted flags in any position (`--full tbl3`), so the
    # alias triggers whenever every positional is a known experiment id.
    positional = [a for a in args if not a.startswith("-")]
    if positional and positional[0] not in ("run", "list", "sweep",
                                            "serve", "gateway") and \
            all(p in EXPERIMENTS for p in positional):
        args = ["run"] + args
    parser = build_parser()
    if not args:
        parser.print_help()
        print("\navailable experiments:", ", ".join(list_experiments()))
        return 1
    ns = parser.parse_args(args)
    try:
        if ns.command == "list":
            return _cmd_list()
        if ns.command == "run":
            return _cmd_run(ns)
        if ns.command == "sweep":
            return _cmd_sweep(ns)
        if ns.command == "serve":
            return _cmd_serve(ns)
        if ns.command == "gateway":
            return _cmd_gateway(ns)
    except (ReproError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.print_help()
    return 1
