"""Serve phase: an open-loop generator against ``python -m repro.serve``.

The server runs in its own process with default flags (degradation off).
This process is the single generator: it sends pre-encoded requests over
two pipelined connections on a fixed schedule and times each request
from its due time, so a stall is charged to every request queued behind
it.  ``OVERLOADED`` refusals are never retried: at the reference rate a
refusal fails the run, above it a refusal is an SLO miss.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Request mix per block of 50: (tenant, keys or None for the large size,
#: requests).  Small requests are shuffled within a block from the seed;
#: the large one sits mid-block, so every seed sees the same spacing of
#: head-of-line blocking (2 large requests per second at the reference rate).
MIX = (
    ("approx-fast", 256, 40),
    ("approx-merge", 256, 5),
    ("precise", 256, 4),
    ("approx-fast", None, 1),
)
SMALL_N = 256
REFERENCE_RPS = 100.0
#: ``slo_rps`` search: rate growth per ladder step, the most ladder steps,
#: and the bisection steps inside the last bracket.
LADDER_FACTOR = 2.0
LADDER_STEPS = 6
BISECT_STEPS = 3
SLO_P99_MS = 100.0
SLO_ATTAINMENT = 0.99
RERUN_ATTAINMENT = 0.95
#: A reference phase whose sends ran later than this (p99) makes the run
#: invalid, not fast.
GEN_LATE_LIMIT_MS = 25.0
CONNECTIONS = 2


@dataclass
class Request:
    index: int
    tenant: str
    keys: np.ndarray
    frame: bytes
    large: bool
    due: float = 0.0
    sent: float = 0.0
    recv: float = math.inf
    response: dict | None = None

    @property
    def latency_ms(self) -> float:
        if self.response is None or not self.response.get("ok"):
            return math.inf
        return (self.recv - self.due) * 1000.0


@dataclass
class Phase:
    rate: float
    requests: list[Request] = field(default_factory=list)

    def small_ms(self) -> list[float]:
        """Small-request latencies; failed or refused requests of any size
        count as misses (infinite latency)."""
        return [
            r.latency_ms for r in self.requests
            if not r.large or math.isinf(r.latency_ms)
        ]

    def large_ms(self) -> list[float]:
        return [r.latency_ms for r in self.requests if r.large]

    def late_ms(self) -> list[float]:
        return [(r.sent - r.due) * 1000.0 for r in self.requests]

    def outstanding_at(self, t: float) -> int:
        return sum(1 for r in self.requests if r.due <= t < r.recv)

    def refused(self) -> int:
        return sum(
            1 for r in self.requests
            if r.response is not None and not r.response.get("ok")
            and r.response.get("error", {}).get("code") == "OVERLOADED"
        )

    def backlog(self) -> tuple[int, int]:
        """Requests outstanding at the phase's middle and at its last send."""
        first, last = self.requests[0].due, self.requests[-1].due
        return self.outstanding_at((first + last) / 2), self.outstanding_at(last)

    def describe(self) -> dict:
        return {
            "rate": self.rate, "requests": len(self.requests),
            "p99_ms": percentile(self.small_ms(), 0.99),
            "attainment": self.attainment(),
            "late_p99_ms": percentile(self.late_ms(), 0.99),
            "backlog_mid_end": self.backlog(), "refused": self.refused(),
            "meets_slo": self.meets_slo(),
        }

    def attainment(self) -> float:
        """Share of small requests answered within the latency limit."""
        small = self.small_ms()
        return sum(ms <= SLO_P99_MS for ms in small) / len(small)

    def meets_slo(self) -> bool:
        """p99 within the limit, rate really offered, no growing backlog.

        Latency counts from the due time, so a late send cannot make a
        phase look fast; the phase only fails to offer its rate when the
        last send trails its due time by more than 5% of the phase.
        """
        if self.attainment() < SLO_ATTAINMENT:
            return False
        last = self.requests[-1]
        if last.sent - last.due > 0.05 * len(self.requests) / self.rate:
            return False
        mid, end = self.backlog()
        return end <= mid + math.ceil(0.05 * self.rate)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``inf`` entries sort last)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def make_requests(rng: np.random.Generator, count: int, large_n: int,
                  first_index: int) -> list[Request]:
    small = [(t, n, False) for t, n, c in MIX if n is not None
             for _ in range(c)]
    large = [(t, large_n, True) for t, n, c in MIX if n is None
             for _ in range(c)]
    requests = []
    while len(requests) < count:
        block = [small[i] for i in rng.permutation(len(small))]
        block[len(block) // 2:len(block) // 2] = large
        for tenant, n, is_large in block[:count - len(requests)]:
            keys = rng.integers(0, 2**32, n, dtype=np.uint64)
            index = first_index + len(requests)
            frame = json.dumps(
                {"op": "sort", "tenant": tenant, "keys": keys.tolist(),
                 "seed": index, "id": index},
                separators=(",", ":"),
            ).encode() + b"\n"
            requests.append(Request(index, tenant, keys, frame, is_large))
    return requests


def response_ok(request: Request) -> bool:
    """The response is exactly ``sorted(keys)`` and its ids map back."""
    response = request.response
    if response is None or not response.get("ok"):
        return False
    out = np.asarray(response.get("keys", []), dtype=np.uint64)
    ids = np.asarray(response.get("ids", []), dtype=np.int64)
    n = len(request.keys)
    if out.shape != (n,) or ids.shape != (n,):
        return False
    if not np.array_equal(np.sort(ids), np.arange(n)):
        return False
    return bool(
        np.array_equal(out, np.sort(request.keys))
        and np.array_equal(request.keys[ids], out)
    )


class ServerProcess:
    """``python -m repro.serve serve`` in its own process."""

    def __init__(self, root: Path, workdir: Path, env: dict) -> None:
        self.port_file = workdir / "serve.port"
        self.log_path = workdir / "serve.log"
        self.port_file.unlink(missing_ok=True)
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "serve", "--port", "0",
             "--port-file", str(self.port_file)],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.port = 0

    def wait_ready(self, timeout_s: float = 120.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before"
                    f" binding; see {self.log_path}"
                )
            text = (
                self.port_file.read_text() if self.port_file.exists() else ""
            )
            if text.endswith("\n"):
                self.port = int(text)
                return
            time.sleep(0.005)
        raise RuntimeError(f"server not ready after {timeout_s}s")

    def wait_exit(self, timeout_s: float = 60.0) -> int:
        try:
            return self.proc.wait(timeout=timeout_s)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


class OpenLoopClient:
    """Pipelined connections; responses are matched to requests by id."""

    def __init__(self) -> None:
        self.pending: dict = {}
        self.conns: list = []
        self.readers: list[asyncio.Task] = []

    async def connect(self, port: int) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=16 * 1024 * 1024
            )
            self.conns.append(writer)
            self.readers.append(asyncio.create_task(self._read(reader)))

    async def _read(self, reader) -> None:
        loop = asyncio.get_running_loop()
        while True:
            line = await reader.readline()
            if not line:
                return
            now = loop.time()
            message = json.loads(line)
            waiter = self.pending.pop(message.get("id"), None)
            if waiter is not None and not waiter.done():
                waiter.set_result((now, message))

    async def run_phase(self, phase: Phase, grace_s: float = 10.0) -> None:
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.02
        waiters = []
        for k, request in enumerate(phase.requests):
            request.due = start + k / phase.rate
            delay = request.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            waiter = loop.create_future()
            self.pending[request.index] = waiter
            waiters.append(waiter)
            writer = self.conns[k % CONNECTIONS]
            request.sent = loop.time()
            writer.write(request.frame)
            await writer.drain()
        done, _ = await asyncio.wait(waiters, timeout=grace_s)
        for request, waiter in zip(phase.requests, waiters):
            if waiter in done:
                request.recv, request.response = waiter.result()
            else:
                self.pending.pop(request.index, None)
                waiter.cancel()

    async def call(self, op: str, timeout_s: float = 30.0) -> dict:
        waiter = asyncio.get_running_loop().create_future()
        self.pending[op] = waiter
        self.conns[0].write(json.dumps({"op": op, "id": op}).encode() + b"\n")
        await self.conns[0].drain()
        _, message = await asyncio.wait_for(waiter, timeout_s)
        return message

    async def close(self) -> None:
        for writer in self.conns:
            writer.close()
        for task in self.readers:
            try:
                await asyncio.wait_for(task, 10.0)
            except (asyncio.TimeoutError, ConnectionError):
                task.cancel()


async def _drive(port: int, seed: int, large_n: int, reference_s: float,
                 step_s: float, ladder: bool, speed) -> dict:
    def phase(index: int, rate: float, seconds: float) -> Phase:
        rng = np.random.default_rng([seed, 0x5E27E, index])
        count = max(1, int(rate * seconds))
        return Phase(rate, make_requests(rng, count, large_n, index << 20))

    steps: list[Phase] = []

    async def passes(rate: float) -> bool:
        """Run a step at ``rate``.  A marginal miss (attainment at least
        ``RERUN_ATTAINMENT``) is rerun once and counts only if it repeats,
        so a brief burst of host noise cannot end the search early."""
        for _ in range(2):
            step = phase(len(steps) + 1, rate, step_s)
            speed.probe()
            await client.run_phase(step)
            steps.append(step)
            if step.meets_slo():
                return True
            if step.attainment() < RERUN_ATTAINMENT:
                return False
        return False

    client = OpenLoopClient()
    await client.connect(port)
    try:
        speed.probe()
        reference = phase(0, REFERENCE_RPS, reference_s)
        await client.run_phase(reference)
        speed.probe()
        lo, hi = REFERENCE_RPS, None
        if not reference.meets_slo():
            lo, hi = 0.0, REFERENCE_RPS
        elif ladder:
            for _ in range(LADDER_STEPS):
                if not await passes(lo * LADDER_FACTOR):
                    hi = lo * LADDER_FACTOR
                    break
                lo *= LADDER_FACTOR
            for _ in range(BISECT_STEPS if hi is not None else 0):
                mid = (lo + hi) / 2
                if await passes(mid):
                    lo = mid
                else:
                    hi = mid
        stats = (await client.call("stats"))["stats"]
        await client.call("shutdown")
    finally:
        await client.close()
    return {
        "reference": reference, "steps": steps, "stats": stats,
        "bracket": (lo, hi),
    }


def slo_rps(phases: list[Phase], lo: float, hi: "float | None") -> float:
    """Highest offered rate meeting the SLO, interpolated in attainment.

    ``lo`` is the highest rate that met the SLO and ``hi`` the lowest that
    missed it twice (``None`` when the ladder never missed: ``lo`` is then
    reported, censored).  A phase's attainment is the share of its small
    requests answered within ``SLO_P99_MS`` (refused and failed ones are
    misses), so the p99 limit is attainment >= 0.99; between ``lo`` and
    ``hi`` attainment is taken as linear in the offered rate.
    """
    if hi is None:
        return lo
    lo_att = max(
        [p.attainment() for p in phases if p.rate == lo and p.meets_slo()]
        or [1.0]
    )
    hi_att = statistics.mean(p.attainment() for p in phases if p.rate == hi)
    if hi_att >= SLO_ATTAINMENT:
        return lo
    return lo + (hi - lo) * (lo_att - SLO_ATTAINMENT) / (lo_att - hi_att)


def run_serve(server: ServerProcess, seed: int, large_n: int,
              reference_s: float, step_s: float, ladder: bool,
              speed) -> dict:
    """Reference phase, then the ``slo_rps`` search, then stats + shutdown.

    The search multiplies the offered rate by ``LADDER_FACTOR`` until a
    step misses the SLO, then bisects the last bracket ``BISECT_STEPS``
    times.  ``speed`` (a :class:`hostspeed.HostSpeed`) probes the host
    between phases, while no request is in flight.
    """
    out = asyncio.run(_drive(
        server.port, seed, large_n, reference_s, step_s, ladder, speed
    ))
    out["exit_code"] = server.wait_exit()
    return out


def summarize(out: dict) -> dict:
    """Per-layer serve figures (host units) plus correctness counts."""
    reference: Phase = out["reference"]
    steps: list[Phase] = out["steps"]
    # Every reference-rate request must succeed.  Above the reference rate
    # a refused or unanswered request is an SLO miss (the ladder's stop
    # signal), not a run failure; every answered one is still checked.
    checked = list(reference.requests) + [
        r for p in steps for r in p.requests
        if r.response is not None and r.response.get("ok")
    ]
    attempted = len(checked)
    failed = sum(not response_ok(r) for r in checked)
    stats = out["stats"]
    ref_ok = [r for r in reference.requests if r.response and r.response.get("ok")]
    residence = [r.response["queued_ms"] for r in ref_ok]
    wire = [r.latency_ms - r.response["queued_ms"] for r in ref_ok]
    batch_jobs = [r.response["batch_jobs"] for r in ref_ok]
    late = percentile(reference.late_ms(), 0.99)
    lo, hi = out["bracket"]
    group_sizes = {}
    for r in ref_ok:
        group_sizes.setdefault(r.tenant, []).append(r.response["batch_jobs"])
    return {
        "layer": {
            "serve.p50_ms": percentile(reference.small_ms(), 0.50),
            "serve.p99_ms": percentile(reference.small_ms(), 0.99),
            "serve.large_p50_ms": percentile(reference.large_ms(), 0.50),
            "serve.slo_rps": slo_rps([reference, *steps], lo, hi),
            "serve.residence_ms.p50": percentile(residence, 0.50),
            "serve.residence_ms.p99": percentile(residence, 0.99),
            "serve.wire_ms.p50": percentile(wire, 0.50),
            "serve.wire_ms.p99": percentile(wire, 0.99),
            "serve.batch_jobs.p50": percentile(batch_jobs, 0.50),
            "serve.drains": stats["drains"],
            "serve.refused": stats["rejected"],
            "serve.gen_late_ms": late,
        },
        "samples": {
            "small": len(reference.small_ms()),
            "large": len(reference.large_ms()),
            "phases": [phase.describe() for phase in (reference, *steps)],
            "slo_bracket": [lo, hi],
        },
        "group_sizes": {
            tenant: int(statistics.median_low(sizes))
            for tenant, sizes in group_sizes.items()
        },
        "valid": late <= GEN_LATE_LIMIT_MS,
        "exit_code": out["exit_code"],
        "attempted": attempted,
        "failed": failed + (out["exit_code"] != 0),
    }


def replay_groups(group_sizes: dict, seed: int, rec, reps: int = 5) -> dict:
    """Time ``repro.batch.run_job_group`` on groups of the observed sizes.

    Every job's output must be exactly its sorted keys.
    """
    from repro.batch import BatchJob, run_job_group
    from repro.serve.tenants import DEFAULT_PROFILES, TenantRegistry

    registry = TenantRegistry(DEFAULT_PROFILES)
    rng = np.random.default_rng([seed, 0x6A0])
    metrics = {}
    attempted = failed = 0
    for profile in DEFAULT_PROFILES:
        size = group_sizes.get(profile.name, 1)
        memory = registry.memory_for(profile)
        timings = []
        for rep in range(reps):
            jobs = [
                BatchJob(
                    keys=rng.integers(0, 2**32, SMALL_N, dtype=np.uint64).tolist(),
                    sorter=profile.sorter, memory=memory, seed=rep * size + j,
                    kernels=profile.kernels,
                )
                for j in range(size)
            ]
            with rec.span("batch.run_job_group", tenant=profile.name,
                          jobs=size) as span:
                results = run_job_group(jobs)
            timings.append(rec.duration(span) * 1000.0)
            attempted += len(jobs)
            failed += sum(
                result.final_keys != sorted(job.keys)
                for job, result in zip(jobs, results)
            )
        metrics[f"batch.group_ms.{profile.name}"] = statistics.median(timings)
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def server_env(src: Path, cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["REPRO_MODEL_CACHE_DIR"] = str(cache_dir)
    return env
