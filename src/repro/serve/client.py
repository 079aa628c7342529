"""Clients for the sort service: a blocking client and a load generator.

:class:`SortServiceClient` is the synchronous building block — one
socket, one request/response at a time — used by tests, docs examples
and operators poking a live server.  :func:`run_load` is the asyncio
closed-loop load generator behind ``python -m repro.serve loadgen`` and
``benchmarks/bench_serve.py``: ``concurrency`` connections each keep one
request in flight, latencies are recorded per request, and the report
carries exact nearest-rank p50/p95/p99 (same order-statistics helper the
metrics registry uses) plus sustained RPS.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ReproError
from repro.obs.metrics import percentile
from repro.workloads.generators import make_keys

from . import protocol


class ServiceError(ReproError):
    """An error frame received from the server (code + message)."""

    def __init__(self, code: str, message: str, response: dict) -> None:
        self.code = code
        self.response = response
        super().__init__(f"{code}: {message}")


class SortServiceClient:
    """Blocking newline-JSON client for one connection to the server."""

    def __init__(
        self, host: str, port: int, timeout: Optional[float] = 30.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def request(self, payload: dict) -> dict:
        """Send one frame and block for the matching response frame.

        Raises :class:`ServiceError` on an ``ok: false`` response and
        ``ConnectionError`` if the server hangs up mid-exchange.
        """
        self._file.write(protocol.encode_frame(payload))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line.decode("utf-8"))
        if not response.get("ok"):
            error = response.get("error", {})
            raise ServiceError(
                error.get("code", "UNKNOWN"),
                error.get("message", "?"),
                response,
            )
        return response

    def sort(
        self,
        tenant: str,
        keys: list[int],
        seed: int = 0,
        request_id: object = None,
    ) -> dict:
        payload = {"op": "sort", "tenant": tenant, "keys": keys, "seed": seed}
        if request_id is not None:
            payload["id"] = request_id
        return self.request(payload)

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def profiles(self) -> list[dict]:
        return self.request({"op": "profiles"})["profiles"]

    def stats(self) -> dict:
        return self.request({"op": "stats"})["stats"]

    def metrics_text(self) -> str:
        return self.request({"op": "metrics"})["prometheus"]

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "SortServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


@dataclass
class LoadReport:
    """Outcome of one load-generator run (the bench's raw material)."""

    requests: int
    ok: int
    rejected: int
    errors: int
    degraded: int
    total_s: float
    latencies_s: list[float] = field(repr=False, default_factory=list)

    @property
    def rps(self) -> float:
        """Sustained completed requests per second over the whole run."""
        return self.ok / self.total_s if self.total_s > 0 else 0.0

    def latency_percentile(self, q: float) -> Optional[float]:
        return percentile(sorted(self.latencies_s), q)

    def summary(self) -> dict:
        """JSON-ready summary (printed by the loadgen CLI)."""
        return {
            "requests": self.requests,
            "ok": self.ok,
            "rejected": self.rejected,
            "errors": self.errors,
            "degraded": self.degraded,
            "total_s": round(self.total_s, 4),
            "rps": round(self.rps, 1),
            "p50_s": self.latency_percentile(0.5),
            "p95_s": self.latency_percentile(0.95),
            "p99_s": self.latency_percentile(0.99),
        }


async def run_load(
    host: str,
    port: int,
    tenant: str = "approx-fast",
    requests: int = 200,
    concurrency: int = 16,
    n: int = 256,
    workload: str = "uniform",
    seed: int = 0,
    retry_rejected: bool = True,
    timeout_s: float = 120.0,
) -> LoadReport:
    """Closed-loop load: ``concurrency`` connections, one job in flight each.

    Each request sorts a fresh ``n``-key workload (seeded per request,
    so the server cannot cache anything).  ``OVERLOADED`` responses
    honour the server's ``retry_after_s`` hint when ``retry_rejected``
    is set — rejections are counted either way, so the report shows the
    backpressure rate alongside the sustained throughput.
    """
    counter = {"next": 0, "ok": 0, "rejected": 0, "errors": 0, "degraded": 0}
    latencies: list[float] = []

    async def worker() -> None:
        # asyncio's default 64 KiB line limit fails every sort response
        # of more than a few thousand keys.
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_RESPONSE_BYTES
        )
        try:
            while True:
                index = counter["next"]
                if index >= requests:
                    return
                counter["next"] = index + 1
                keys = make_keys(workload, n, seed=seed + index)
                frame = protocol.encode_frame({
                    "op": "sort", "tenant": tenant, "keys": keys,
                    "seed": seed + index, "id": index,
                })
                while True:
                    t0 = time.perf_counter()
                    writer.write(frame)
                    await writer.drain()
                    line = await reader.readline()
                    if not line:
                        counter["errors"] += 1
                        return
                    response = json.loads(line)
                    latency = time.perf_counter() - t0
                    if response.get("ok"):
                        counter["ok"] += 1
                        counter["degraded"] += bool(response.get("degraded"))
                        latencies.append(latency)
                        break
                    code = response.get("error", {}).get("code")
                    if code == protocol.OVERLOADED and retry_rejected:
                        counter["rejected"] += 1
                        await asyncio.sleep(
                            response.get("retry_after_s") or 0.05
                        )
                        continue
                    counter["rejected" if code == protocol.OVERLOADED
                            else "errors"] += 1
                    break
        finally:
            writer.close()

    t0 = time.perf_counter()
    await asyncio.wait_for(
        asyncio.gather(*(worker() for _ in range(min(concurrency, requests)))),
        timeout=timeout_s,
    )
    total_s = time.perf_counter() - t0
    return LoadReport(
        requests=requests,
        ok=counter["ok"],
        rejected=counter["rejected"],
        errors=counter["errors"],
        degraded=counter["degraded"],
        total_s=total_s,
        latencies_s=latencies,
    )
