"""CLI for the sort service: ``python -m repro.serve {serve,loadgen}``.

``serve`` runs a server in the foreground until SIGINT/SIGTERM (or a
client ``shutdown`` op), draining the queue before exiting.  ``loadgen``
drives a closed-loop load against a running server and prints a JSON
summary (p50/p95/p99 latency, sustained RPS, rejection counts); with
``--spawn`` it hosts the server in-process for the duration of the run,
so docs examples and CI smoke lanes get a full TCP round trip from one
synchronous command.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import signal
import sys
from pathlib import Path

from repro.errors import ConfigError
from repro.execution import ExecConfig, use

from .client import run_load
from .degrade import DegradePolicy
from .server import SortServer
from .tenants import DEFAULT_PROFILES, load_profiles


def _profiles(args) -> list:
    profiles = (
        load_profiles(args.tenants) if args.tenants else list(DEFAULT_PROFILES)
    )
    if args.fit_samples is not None:
        # One switch for fast docs/CI runs: shrink every profile's
        # error-model fit without editing a tenant file.
        profiles = [
            dataclasses.replace(p, fit_samples=args.fit_samples)
            for p in profiles
        ]
    return profiles


def _build_server(args) -> SortServer:
    degrade = None
    if args.degrade:
        degrade = DegradePolicy(
            high_watermark=args.degrade_high,
            low_watermark=args.degrade_low,
            sustain_s=args.degrade_sustain_s,
            recover_s=args.degrade_recover_s,
        )
    return SortServer(
        host=args.host,
        port=args.port,
        profiles=_profiles(args),
        queue_depth=args.queue_depth,
        per_tenant_depth=args.per_tenant_depth,
        window_s=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        degrade=degrade,
    )


async def _serve_async(server: SortServer, port_file) -> None:
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, server.shutdown)
    await server.serve_until_shutdown(port_file)


def cmd_serve(args) -> int:
    server = _build_server(args)
    asyncio.run(_serve_async(server, args.port_file))
    stats = server.scheduler.stats()
    print(json.dumps({"event": "served", **stats}), file=sys.stderr)
    return 0


def cmd_loadgen(args) -> int:
    load_kwargs = dict(
        tenant=args.tenant,
        requests=args.requests,
        concurrency=args.concurrency,
        n=args.n,
        workload=args.workload,
        seed=args.seed,
        retry_rejected=not args.no_retry,
    )
    if args.spawn:
        async def spawned() -> tuple:
            server = _build_server(args)
            await server.start()
            try:
                report = await run_load(server.host, server.port,
                                        **load_kwargs)
            finally:
                await server.aclose()
            return report, server.scheduler.stats()

        report, stats = asyncio.run(spawned())
    else:
        port = args.port
        if args.port_file:
            port = int(Path(args.port_file).read_text().strip())
        if not port:
            print("loadgen: need --port or --port-file (or use --spawn)",
                  file=sys.stderr)
            return 2
        report = asyncio.run(run_load(args.host, port, **load_kwargs))
        stats = None
    summary = report.summary()
    if stats is not None:
        summary["server"] = stats
    print(json.dumps(summary, indent=2))
    return 0 if report.errors == 0 else 1


def _add_server_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral)")
    parser.add_argument("--port-file", default=None,
                        help="write the bound port to this file once ready")
    parser.add_argument("--tenants", default=None,
                        help="JSON tenant-profile file (default: built-ins)")
    parser.add_argument("--queue-depth", type=int, default=256)
    parser.add_argument("--per-tenant-depth", type=int, default=None)
    parser.add_argument("--window-ms", type=float, default=2.0,
                        help="coalescing window in ms (0 disables batching)")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--fit-samples", type=int, default=None,
                        help="override every profile's error-model fit size")
    parser.add_argument("--degrade", action="store_true",
                        help="enable the degradation policy")
    parser.add_argument("--degrade-high", type=float, default=0.75)
    parser.add_argument("--degrade-low", type=float, default=0.25)
    parser.add_argument("--degrade-sustain-s", type=float, default=2.0)
    parser.add_argument("--degrade-recover-s", type=float, default=5.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Approx-refine sorting as a long-running service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a server in the foreground")
    _add_server_flags(serve)
    serve.set_defaults(func=cmd_serve)

    loadgen = sub.add_parser(
        "loadgen", help="drive closed-loop load and print p50/p99/RPS"
    )
    _add_server_flags(loadgen)
    loadgen.add_argument("--spawn", action="store_true",
                         help="host the server in-process for this run")
    loadgen.add_argument("--tenant", default="approx-fast")
    loadgen.add_argument("--requests", type=int, default=200)
    loadgen.add_argument("--concurrency", type=int, default=16)
    loadgen.add_argument("--n", type=int, default=256,
                         help="keys per request")
    loadgen.add_argument("--workload", default="uniform")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--no-retry", action="store_true",
                         help="count OVERLOADED as final instead of retrying")
    loadgen.set_defaults(func=cmd_loadgen)

    args = parser.parse_args(argv)
    try:
        # Resolved once, so a malformed setting fails at startup, not in
        # the first request.
        config = ExecConfig.from_env()
    except ConfigError as exc:
        parser.error(str(exc))
    with use(config):
        return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
