"""Command-line experiment runner.

Usage::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner --exp fig09 --scale smoke
    python -m repro.experiments.runner --all --scale default --save --jobs 4
    python -m repro.experiments.runner --all --jobs 4 --checkpoint nightly
    python -m repro.experiments.runner --resume nightly

Each experiment prints its table; ``--save`` also writes the JSON record to
``benchmarks/results/``.

``--jobs N`` runs independent experiments in worker processes.  When a
*single* experiment is selected and it supports cell-level parallelism (see
:data:`CELL_PARALLEL`), the job count is passed down so its independent
(seed, parameter) cells fan out instead.  Tables are printed in submission
order and are bit-identical for any job count: each cell reconstructs its
inputs from primitive arguments and derives randomness only from its own
seeds, never from shared mutable state.

Resilience (DESIGN.md section 10): ``--checkpoint [RUN_ID]`` journals every
completed experiment (and every completed *cell* of a cell-parallel
experiment) under ``.repro_runs/<run-id>/``; after a crash, OOM kill or
Ctrl-C, ``--resume RUN_ID`` restores the finished results and re-fans only
the remainder, producing bit-identical tables to an uninterrupted run.
``--timeout S`` bounds each experiment attempt, ``--retries N`` re-runs a
crashed/hung/failed experiment with exponential backoff, and any of these
flags switches execution to supervised mode: each experiment runs in its
own process group, so a hung or crashed worker is killed and isolated
without taking down the rest of the run.  On partial failure the runner
still prints every completed table, appends a ``FAILED`` summary table, and
exits with status :data:`EXIT_PARTIAL` (3) — distinct from usage/config
errors (2).  The ``REPRO_FAULT`` environment variable injects test faults
(``crash:<exp>[:limit]`` / ``hang:<exp>[:limit]``).

``--bench-json [PATH]`` appends a wall-clock record (per-experiment and
total seconds, plus the scale/seed/jobs/kernels configuration) to a JSON
array file, ``BENCH_runner.json`` by default.

``--kernels``, ``--shards``, ``--sanitize`` and ``--batch`` (else their
``REPRO_*`` variables) form the run's :class:`repro.execution.ExecConfig`,
resolved once and installed for the whole run, workers included; nothing
is exported to ``os.environ``.  A checkpoint records its kernels and shards;
a resume adopts the recorded kernel mode when the command line gives none.

``--kernels numpy`` switches every sorter and refine call to the
vectorized kernels; accounted counts are unchanged (DESIGN.md section 8).

``--batch``: experiments that declare a cell batcher (currently
``ext_variance``) coalesce their independent cells through the
:mod:`repro.batch` segmented-sort engine — one vectorized kernel pass
advances every cell — with per-cell results bit-identical to looped
execution (DESIGN.md section 13, docs/batching.md).

``--sanitize``: the pipelines wrap their arrays in the
:mod:`repro.verify` runtime sanitizer, which re-checks bounds, accounting
conservation and corruption-modeling invariants on every access.  Results
are bit-identical to an unsanitized run (the sanitizer is
observation-only); wall-clock is several times slower
(docs/verifying.md).

``--trace [PATH]`` turns on structured tracing (DESIGN.md section 9):
every process of the run appends span/counter/gauge events to its own
per-pid JSONL file, and the runner merges them into ``PATH`` (default
``trace.jsonl``) when the run finishes.  Analyze with ``python -m
repro.obs.report PATH``.  A per-run id (``REPRO_TRACE_RUN``) is exported
alongside the trace directory so pooled shard workers can stamp
cross-process parent links into their part files.  ``--profile``
additionally runs each experiment under :mod:`cProfile`, dumping
``<name>.prof`` next to the trace.  Resumes and retries are traced too: a
``run.resume`` span plus ``run.restored``, ``run.retry`` and
``run.experiment_failed`` counters.

``--metrics [PATH]`` turns on the metrics registry (docs/observability.md):
every process records counters/gauges/latency histograms and exports
periodic snapshots to its own per-pid JSONL file; the runner concatenates
them into ``PATH`` (default ``metrics.jsonl``) and writes a
Prometheus-style text exposition of the cross-process aggregate next to it
(``PATH`` with a ``.prom`` suffix).  Analyze with ``python -m
repro.obs.report --metrics PATH``.

``--quiet`` suppresses the result tables (timing lines still print);
``--heartbeat S`` prints a progress line to stderr every ``S`` seconds
(default 30, ``0`` disables), with per-cell detail while a cell-parallel
experiment fans in-process.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import signal
import sys
import time
import uuid
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from multiprocessing.connection import Connection, wait as _mp_wait
from pathlib import Path
from typing import Callable, Optional

from repro.errors import CheckpointCorruptError, ConfigError
from repro.execution import BATCH_ENV, KERNELS_ENV, SANITIZE_ENV, SHARDS_ENV
from repro.execution import KERNEL_MODES, ExecConfig, use
from repro.obs import (
    METRICS_DIR_ENV,
    TRACE_DIR_ENV,
    TRACE_RUN_ENV,
    close_metrics,
    close_tracer,
    get_metrics,
    get_tracer,
)
from repro.obs.flight import dump_flight, get_flight
from repro.obs.io import merge_traces
from repro.obs.metrics import (
    aggregate_snapshots,
    read_snapshots,
    snapshot_to_prometheus,
)

from .checkpoint import RunCheckpoint
from .common import (
    ExperimentTable,
    Heartbeat,
    SCALES,
    maybe_inject_fault,
    resolve_scale,
    set_current_heartbeat,
)

from . import (
    ablation_refine,
    ext_db,
    ext_density,
    ext_distributions,
    ext_external,
    ext_gray,
    ext_pipeline_sim,
    ext_priority,
    ext_sequential,
    ext_total_time,
    ext_variance,
    ext_write_combining,
    ext_write_efficient,
    fig02_cell,
    fig04_sortedness,
    fig05_07_shapes,
    fig09_write_reduction_t,
    fig10_write_reduction_n,
    fig11_breakdown,
    fig12_spintronic_rem,
    fig13_spintronic_saving,
    fig14_spintronic_breakdown,
    fig15_histogram_radix,
    pcmsim_consistency,
    table3_rem,
)

#: Registry of experiment names to their run() callables: the paper's
#: tables/figures in paper order, then the extension studies.
EXPERIMENTS: dict[str, Callable[..., ExperimentTable]] = {
    "fig02": fig02_cell.run,
    "fig04": fig04_sortedness.run,
    "fig05_07": fig05_07_shapes.run,
    "table3": table3_rem.run,
    "fig09": fig09_write_reduction_t.run,
    "fig10": fig10_write_reduction_n.run,
    "fig11": fig11_breakdown.run,
    "fig12": fig12_spintronic_rem.run,
    "fig13": fig13_spintronic_saving.run,
    "fig14": fig14_spintronic_breakdown.run,
    "fig15": fig15_histogram_radix.run,
    "pcmsim": pcmsim_consistency.run,
    "ablation_refine": ablation_refine.run,
    "ext_db": ext_db.run,
    "ext_density": ext_density.run,
    "ext_distributions": ext_distributions.run,
    "ext_external": ext_external.run,
    "ext_gray": ext_gray.run,
    "ext_pipeline_sim": ext_pipeline_sim.run,
    "ext_priority": ext_priority.run,
    "ext_sequential": ext_sequential.run,
    "ext_total_time": ext_total_time.run,
    "ext_variance": ext_variance.run,
    "ext_write_combining": ext_write_combining.run,
    "ext_write_efficient": ext_write_efficient.run,
}

#: Experiments whose ``run()`` accepts ``jobs=`` and fans its own
#: independent measurement cells across processes (and, when
#: checkpointing, journals each completed cell for resume).
CELL_PARALLEL = frozenset({"fig09", "ext_variance", "ext_write_efficient"})

#: Exit status when some experiments failed but the completed subset was
#: still emitted (argparse/config errors use 2, success 0).
EXIT_PARTIAL = 3

#: Exit status after Ctrl-C (the shell convention for SIGINT).
EXIT_INTERRUPTED = 130

#: Environment variable: base seconds of the exponential retry backoff
#: (attempt k waits ``base * 2**(k-1)``; default 1.0; tests set 0).
RETRY_BACKOFF_ENV = "REPRO_RETRY_BACKOFF_S"


def _run_single(
    name: str,
    scale: str | None,
    seed: int,
    jobs: int = 1,
    profile_dir: str | None = None,
    cell_journal_path: str | None = None,
) -> tuple[str, ExperimentTable, float]:
    """Run one experiment and time it (module-level so it pickles)."""
    get_flight().record("experiment_start", name, seed=seed, jobs=jobs)
    maybe_inject_fault(name)
    kwargs: dict = {}
    if jobs > 1 and name in CELL_PARALLEL:
        kwargs["jobs"] = jobs
    if cell_journal_path is not None and name in CELL_PARALLEL:
        from .checkpoint import CellJournal

        kwargs["cell_journal"] = CellJournal(cell_journal_path)
    profiler = None
    if profile_dir is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    start = time.perf_counter()
    with get_tracer().span(
        f"experiment.{name}",
        attrs={"scale": resolve_scale(scale), "seed": seed, "jobs": jobs},
    ):
        table = EXPERIMENTS[name](scale=scale, seed=seed, **kwargs)
    elapsed = time.perf_counter() - start
    metrics = get_metrics()
    if metrics.enabled:
        metrics.observe("runner.experiment_s", elapsed, experiment=name)
    get_flight().record("experiment_done", name, elapsed_s=elapsed)
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(str(Path(profile_dir) / f"{name}.prof"))
    return name, table, elapsed


def _supervised_worker(
    conn: Connection,
    config: ExecConfig,
    name: str,
    scale: str | None,
    seed: int,
    jobs: int,
    profile_dir: str | None,
    cell_journal_path: str | None,
) -> None:
    """Child-process entry: run one experiment, ship the result back.

    The child detaches into its own session (and hence process group), so
    the supervisor can kill it *and any grandchildren it forked* — e.g. a
    cell-parallel experiment's pool workers — with one ``killpg``, and so
    a terminal Ctrl-C reaches only the supervisor, which shuts the
    children down deliberately.  The execution config arrives as an
    argument, so a child started without fork runs under the same one.
    """
    try:
        os.setsid()
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX
        pass
    try:
        with use(config):
            _, table, elapsed = _run_single(
                name, scale, seed, jobs, profile_dir, cell_journal_path
            )
    except BaseException as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        os._exit(1)
    conn.send(("ok", table, elapsed))
    conn.close()


class _OrderedEmitter:
    """Print/save results in submission order as they become available.

    Out-of-order completions are buffered; a failed experiment releases
    the head of the line so later tables still stream out.
    """

    def __init__(
        self,
        order: list[str],
        args: argparse.Namespace,
        timings: dict[str, float],
        heartbeat: Heartbeat,
    ) -> None:
        self.order = list(order)
        self.args = args
        self.timings = timings
        self.heartbeat = heartbeat
        self._ready: dict[str, tuple[ExperimentTable, float, bool]] = {}
        self._skipped: set[str] = set()
        self._next = 0

    def ready(
        self,
        name: str,
        table: ExperimentTable,
        elapsed: float,
        restored: bool = False,
    ) -> None:
        self._ready[name] = (table, elapsed, restored)
        self._flush()

    def failed(self, name: str) -> None:
        self._skipped.add(name)
        self._flush()

    def _flush(self) -> None:
        while self._next < len(self.order):
            name = self.order[self._next]
            if name in self._skipped:
                self._next += 1
                continue
            if name not in self._ready:
                break
            table, elapsed, restored = self._ready.pop(name)
            self._next += 1
            if not restored:
                self.timings[name] = elapsed
            self.heartbeat.advance()
            if not self.args.quiet:
                print(table.to_text())
            if restored:
                print(f"[{name} restored from checkpoint]")
            else:
                print(f"[{name} finished in {elapsed:.1f}s]")
            if not self.args.quiet:
                print()
            if self.args.save:
                path = table.save()
                print(f"saved {path}")


@dataclass
class _Job:
    """One experiment's supervision state."""

    name: str
    attempt: int = 1
    not_before: float = 0.0
    deadline: float = math.inf
    process: "multiprocessing.process.BaseProcess | None" = None
    conn: Optional[Connection] = None


class _Supervisor:
    """Fault-isolating scheduler: one process group per experiment attempt.

    Unlike a shared ``ProcessPoolExecutor`` — where one worker dying of a
    hard crash breaks the whole pool — every attempt here is its own
    process (in its own session), so a crash, OOM kill, injected fault, or
    timeout costs exactly that attempt.  Failures are retried up to
    ``retries`` times with exponential backoff; exhausted experiments are
    reported and the rest of the run continues.
    """

    def __init__(
        self,
        pending: list[str],
        *,
        config: ExecConfig,
        scale: str | None,
        seed: int,
        child_jobs: int,
        max_workers: int,
        timeout: float | None,
        retries: int,
        backoff: float,
        profile_dir: str | None,
        checkpoint: RunCheckpoint | None,
        emitter: _OrderedEmitter,
    ) -> None:
        self.config = config
        self.scale = scale
        self.seed = seed
        self.child_jobs = child_jobs
        self.max_workers = max_workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.profile_dir = profile_dir
        self.checkpoint = checkpoint
        self.emitter = emitter
        self.waiting: list[_Job] = [_Job(name) for name in pending]
        self.running: list[_Job] = []
        self.failures: dict[str, tuple[int, str]] = {}
        if "fork" in multiprocessing.get_all_start_methods():
            # Fork keeps the in-memory model cache warm in children.
            self._ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX
            self._ctx = multiprocessing.get_context()

    # ------------------------------------------------------------------ #

    def run(self) -> dict[str, tuple[int, str]]:
        """Supervise until every experiment completed or exhausted retries."""
        try:
            while self.waiting or self.running:
                self._launch_eligible()
                if not self.running:
                    # Everyone is waiting out a backoff window.
                    pause = min(j.not_before for j in self.waiting)
                    time.sleep(max(pause - time.monotonic(), 0.01))
                    continue
                self._await_events()
        except BaseException:
            self._terminate_running()
            raise
        return self.failures

    def _launch_eligible(self) -> None:
        now = time.monotonic()
        for job in list(self.waiting):
            if len(self.running) >= self.max_workers:
                break
            if job.not_before > now:
                continue
            self.waiting.remove(job)
            self._start(job)
            self.running.append(job)

    def _start(self, job: _Job) -> None:
        cell_path = None
        if self.checkpoint is not None and job.name in CELL_PARALLEL:
            cell_path = str(self.checkpoint.cell_journal_path(job.name))
        recv, send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_supervised_worker,
            args=(
                send, self.config, job.name, self.scale, self.seed,
                self.child_jobs, self.profile_dir, cell_path,
            ),
            name=f"repro-{job.name}",
        )
        process.start()
        send.close()
        job.process, job.conn = process, recv
        job.deadline = (
            time.monotonic() + self.timeout
            if self.timeout is not None else math.inf
        )
        if self.checkpoint is not None:
            self.checkpoint.journal_event(
                "attempt", experiment=job.name, attempt=job.attempt,
                pid=process.pid,
            )

    def _await_events(self) -> None:
        now = time.monotonic()
        horizons = [j.deadline - now for j in self.running]
        # Only backoff windows bound the wait; a job queued purely because
        # max_workers is reached (not_before in the past) must not clamp
        # the timeout to zero and spin the supervisor.
        horizons += [
            j.not_before - now for j in self.waiting if j.not_before > now
        ]
        wait_s = max(min(horizons), 0.0) if horizons else None
        if wait_s is not None and math.isinf(wait_s):
            wait_s = None
        handles = []
        for job in self.running:
            handles.append(job.conn)
            handles.append(job.process.sentinel)
        _mp_wait(handles, timeout=wait_s)
        now = time.monotonic()
        for job in list(self.running):
            outcome = self._poll(job, now)
            if outcome is None:
                continue
            self.running.remove(job)
            self._finish_attempt(job, *outcome)

    def _poll(
        self, job: _Job, now: float
    ) -> "tuple[str, object, object] | None":
        if job.conn.poll():
            try:
                message = job.conn.recv()
            except (EOFError, OSError):
                message = None
            if message is not None and message[0] == "ok":
                return ("ok", message[1], message[2])
            if message is not None:
                return ("error", message[1], None)
            return ("crash", None, None)
        if not job.process.is_alive():
            return ("crash", None, None)
        if now >= job.deadline:
            self._kill(job)
            return ("timeout", None, None)
        return None

    def _kill(self, job: _Job) -> None:
        """SIGKILL the attempt's whole process group (grandchildren too).

        SIGKILL gives the child no chance to write its own post-mortem, so
        the supervisor dumps *its* flight ring — which holds the attempt
        history leading up to the kill — on the child's behalf.
        """
        get_flight().record(
            "sigkill", job.name, attempt=job.attempt, pid=job.process.pid
        )
        dump_flight(f"sigkill:{job.name}")
        process = job.process
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (AttributeError, ProcessLookupError, PermissionError, OSError):
            process.kill()

    def _terminate_running(self) -> None:
        for job in self.running:
            self._kill(job)
            job.process.join()
        self.running.clear()

    def _finish_attempt(self, job: _Job, kind: str, payload, extra) -> None:
        job.process.join()
        exitcode = job.process.exitcode
        job.conn.close()
        if kind == "ok":
            table, elapsed = payload, extra
            if self.checkpoint is not None:
                self.checkpoint.record(job.name, table, elapsed)
            self.emitter.ready(job.name, table, elapsed)
            return
        if kind == "timeout":
            reason = f"timed out after {self.timeout:g}s"
        elif kind == "error":
            reason = str(payload)
        else:
            reason = f"crashed (exit code {exitcode})"
        get_flight().record(
            "attempt_failed", job.name, outcome=kind, attempt=job.attempt,
            reason=reason,
        )
        if kind == "crash":
            # A crashed child took the no-cleanup exit; leave a parent-side
            # post-mortem next to whatever the child managed to dump.
            dump_flight(f"crash:{job.name}")
        if job.attempt <= self.retries:
            delay = self.backoff * (2 ** (job.attempt - 1))
            get_tracer().counter(
                "run.retry",
                attrs={
                    "experiment": job.name, "attempt": job.attempt,
                    "reason": reason,
                },
            )
            if self.checkpoint is not None:
                self.checkpoint.journal_event(
                    "retry", experiment=job.name, attempt=job.attempt,
                    reason=reason,
                )
            print(
                f"[{job.name} attempt {job.attempt} {reason};"
                f" retrying in {delay:g}s]",
                file=sys.stderr, flush=True,
            )
            job.attempt += 1
            job.not_before = time.monotonic() + delay
            job.process = job.conn = None
            job.deadline = math.inf
            self.waiting.append(job)
            return
        self.failures[job.name] = (job.attempt, reason)
        get_tracer().counter(
            "run.experiment_failed",
            attrs={"experiment": job.name, "reason": reason},
        )
        if self.checkpoint is not None:
            self.checkpoint.journal_event(
                "failed", experiment=job.name, attempts=job.attempt,
                reason=reason,
            )
        noun = "attempt" if job.attempt == 1 else "attempts"
        print(
            f"[{job.name} failed after {job.attempt} {noun}: {reason}]",
            file=sys.stderr, flush=True,
        )
        self.emitter.failed(job.name)


def _failed_table(failures: dict[str, tuple[int, str]]) -> ExperimentTable:
    """The partial-failure summary appended after the completed tables."""
    table = ExperimentTable(
        experiment="FAILED",
        title="experiments that did not complete",
        columns=["experiment", "attempts", "reason"],
        notes=[
            "the completed tables above are valid; re-run (or --resume a"
            " checkpointed run) to fill in the rest",
        ],
    )
    for name, (attempts, reason) in failures.items():
        table.add_row(name, attempts, reason)
    return table


def _serial_baseline(path: Path, record: dict) -> "dict | None":
    """The latest comparable serial record already in ``path``, if any.

    Comparable means the same experiment set, scale, seed and kernel mode,
    run without any parallelism (``jobs`` 1 and no sharding) — the
    denominator the speedup/scaling-efficiency fields are defined against.
    """
    if not path.exists():
        return None
    try:
        records = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return None
    if not isinstance(records, list):
        records = [records]
    for candidate in reversed(records):
        if not isinstance(candidate, dict):
            continue
        if (
            sorted(candidate.get("experiments", {})) ==
            sorted(record.get("experiments", {}))
            and candidate.get("scale") == record.get("scale")
            and candidate.get("seed") == record.get("seed")
            and candidate.get("kernels") == record.get("kernels")
            and candidate.get("jobs", 1) == 1
            and (candidate.get("shards") or 1) == 1
            and not candidate.get("batch")
            and candidate.get("total_s")
        ):
            return candidate
    return None


def _append_bench_record(path: Path, record: dict) -> None:
    """Append ``record`` to the JSON array in ``path`` (created if absent).

    A corrupt existing file is *not* silently discarded: it is moved aside
    to ``<path>.bad`` (with a warning) so the history can be repaired, and
    the new record starts a fresh array.
    """
    records = []
    if path.exists():
        try:
            records = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            backup = path.with_name(path.name + ".bad")
            try:
                path.replace(backup)
                where = f"backed up to {backup}"
            except OSError:
                where = "backup failed; leaving it in place"
            print(
                f"warning: existing {path} is unreadable ({exc}); {where}",
                file=sys.stderr,
            )
            records = []
        if not isinstance(records, list):
            records = [records]
    records.append(record)
    path.write_text(json.dumps(records, indent=2) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "--exp", action="append", choices=sorted(EXPERIMENTS),
        help="experiment to run (repeatable)",
    )
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--scale", choices=SCALES, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--save", action="store_true",
        help="write JSON results to benchmarks/results/",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes: fans independent experiments, or the"
        " cells of a single cell-parallel experiment (output is"
        " bit-identical for any N)",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="shard every sort N ways inside the cell (default:"
        f" {SHARDS_ENV}, else 1; intra-sort parallelism over shared memory —"
        " the right granularity when a single experiment dominates;"
        " see docs/scaling.md)",
    )
    parser.add_argument(
        "--checkpoint", nargs="?", const="", default=None, metavar="RUN_ID",
        help="journal completed experiments/cells under"
        " .repro_runs/<run-id>/ so an interrupted run can be resumed"
        " (id auto-generated when omitted)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="restore a checkpointed run's finished results and run only"
        " the remainder (bit-identical tables to an uninterrupted run);"
        " with no --exp/--all, the recorded selection is reused",
    )
    parser.add_argument(
        "--runs-dir", default=None, metavar="PATH",
        help="checkpoint root directory (default: REPRO_RUNS_DIR or"
        " .repro_runs)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-experiment attempt budget; a hung worker's whole process"
        " group is killed without taking down the run",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-run a crashed/hung/failed experiment up to N times with"
        f" exponential backoff ({RETRY_BACKOFF_ENV} seconds base,"
        " default 1)",
    )
    parser.add_argument(
        "--bench-json", nargs="?", const="BENCH_runner.json", default=None,
        metavar="PATH",
        help="append per-experiment wall-clock seconds to a JSON array"
        " file (default PATH: BENCH_runner.json)",
    )
    parser.add_argument(
        "--kernels", choices=sorted(KERNEL_MODES), default=None,
        help="execution kernels for every sorter/refine call: 'numpy'"
        " enables the vectorized fast path (same accounted counts),"
        " 'scalar' forces the reference loops; default: the"
        f" {KERNELS_ENV} environment variable, else scalar",
    )
    parser.add_argument(
        "--batch", action="store_true",
        help="coalesce an experiment's independent cells through the"
        " repro.batch segmented-sort engine where the experiment supports"
        f" it (or {BATCH_ENV}=1; per-cell results are bit-identical"
        " to looped execution; ignored under --sanitize/--shards, which"
        " fall back to the looped pipeline — traced runs stay batched and"
        " synthesize per-segment spans)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run with the repro.verify runtime sanitizer: every array"
        " access is invariant-checked against a precise shadow copy"
        f" (or {SANITIZE_ENV}=1; for the whole run, workers included;"
        " results are bit-identical, wall-clock is several times slower)",
    )
    parser.add_argument(
        "--trace", nargs="?", const="trace.jsonl", default=None,
        metavar="PATH",
        help="write structured span/counter/gauge events; per-process"
        " part files are merged into PATH (default: trace.jsonl) when"
        " the run finishes",
    )
    parser.add_argument(
        "--metrics", nargs="?", const="metrics.jsonl", default=None,
        metavar="PATH",
        help="record counters/gauges/latency histograms (exact p50/p95/"
        "p99); per-process snapshot files are merged into PATH (default:"
        " metrics.jsonl) and a Prometheus-style exposition is written"
        " next to it when the run finishes",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run each experiment under cProfile, dumping <name>.prof"
        " next to the trace (or into the working directory)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress result tables; timing lines still print",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="seconds between progress lines on stderr (default:"
        " REPRO_HEARTBEAT_S or 30; 0 disables)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _main(args, parser)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except CheckpointCorruptError as exc:
        print(f"error: corrupt checkpoint: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _main(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.shards is not None and args.shards < 1:
        parser.error("--shards must be >= 1")

    if args.list:
        width = max(len(name) for name in EXPERIMENTS)
        for name, fn in EXPERIMENTS.items():
            parallel = (
                "  [cell-parallel: --jobs fans cells]"
                if name in CELL_PARALLEL else ""
            )
            print(f"{name:<{width}}  {_describe(fn)}{parallel}")
        return 0
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.resume is not None and args.checkpoint is not None:
        parser.error("--resume already journals to the resumed run;"
                      " drop --checkpoint")

    names = list(EXPERIMENTS) if args.all else list(args.exp or [])
    if not names and args.resume is None:
        parser.error("choose experiments with --exp/--all (or use --list)")

    # Tracing: every process (this one and fork-inherited workers) appends
    # to its own per-pid file in the parts directory; merged afterwards.
    # The run id travels the same way, so pooled workers can stamp
    # cross-process parent attrs that the merged report can trust.
    trace_path = Path(args.trace) if args.trace is not None else None
    saved_trace_env = os.environ.get(TRACE_DIR_ENV)
    saved_run_env = os.environ.get(TRACE_RUN_ENV)
    parts_dir = None
    if trace_path is not None:
        parts_dir = Path(str(trace_path) + ".parts")
        parts_dir.mkdir(parents=True, exist_ok=True)
        os.environ[TRACE_DIR_ENV] = str(parts_dir)
        os.environ[TRACE_RUN_ENV] = uuid.uuid4().hex[:12]
        close_tracer()  # lazy re-init picks up the new directory

    # Metrics mirror the trace plumbing: per-pid snapshot files in a parts
    # directory, concatenated (plus an aggregate exposition) afterwards.
    metrics_path = Path(args.metrics) if args.metrics is not None else None
    saved_metrics_env = os.environ.get(METRICS_DIR_ENV)
    metrics_parts_dir = None
    if metrics_path is not None:
        metrics_parts_dir = Path(str(metrics_path) + ".parts")
        metrics_parts_dir.mkdir(parents=True, exist_ok=True)
        os.environ[METRICS_DIR_ENV] = str(metrics_parts_dir)
        close_metrics()  # lazy re-init picks up the new directory
    profile_dir = None
    if args.profile:
        profile_dir = str(trace_path.parent) if trace_path is not None else "."
        Path(profile_dir).mkdir(parents=True, exist_ok=True)

    checkpoint: RunCheckpoint | None = None
    restored: dict[str, tuple[ExperimentTable, float]] = {}
    timings: dict[str, float] = {}
    failures: dict[str, tuple[int, str]] = {}
    wall_start = time.perf_counter()
    try:
        recorded: dict = {}
        if args.resume is not None:
            checkpoint = RunCheckpoint.load(args.resume, root=args.runs_dir)
            recorded = checkpoint.config
            if not names:
                names = list(recorded.get("experiments", []))
                if not names:
                    parser.error(
                        f"run {args.resume!r} recorded no experiment"
                        " selection; pass --exp/--all explicitly"
                    )
            if args.scale is None:
                args.scale = recorded.get("scale")
            if args.seed is None:
                args.seed = recorded.get("seed")
        seed = args.seed if args.seed is not None else 0
        # Command line > environment > default; a resume's recorded kernel
        # mode stands in for a --kernels the command line left out.
        env = ExecConfig.from_env()
        exec_config = replace(
            env,
            kernels=args.kernels or recorded.get("kernels") or env.kernels,
            shards=env.shards if args.shards is None else args.shards,
            sanitize=args.sanitize or env.sanitize,
            batch=args.batch or env.batch,
        )
        config = {
            "experiments": names,
            "scale": resolve_scale(args.scale),
            "seed": seed,
            **exec_config.result_fields(),
        }
        if args.resume is not None:
            checkpoint.check_config(config)
            with get_tracer().span(
                "run.resume", attrs={"run_id": checkpoint.run_id}
            ):
                restored = checkpoint.completed()
            get_tracer().counter(
                "run.restored", len(restored),
                attrs={"run_id": checkpoint.run_id},
            )
            checkpoint.journal_event(
                "resume",
                restored=sorted(restored),
                pending=[n for n in names if n not in restored],
            )
            print(
                f"[resume] run {checkpoint.run_id}: {len(restored)}/"
                f"{len(names)} experiments restored from checkpoint",
                file=sys.stderr,
            )
        elif args.checkpoint is not None:
            checkpoint = RunCheckpoint.create(
                config, run_id=args.checkpoint or None, root=args.runs_dir
            )
            print(
                f"[checkpoint] journaling to {checkpoint.directory};"
                f" resume with: --resume {checkpoint.run_id}",
                file=sys.stderr,
            )

        if (
            args.jobs > 1
            and len(names) == 1
            and names[0] in CELL_PARALLEL
            and exec_config.shards == 1
        ):
            # Measured in BENCH_runner.json: experiment-level fan-out of a
            # single cell-parallel experiment buys ~nothing (fig09 even
            # regresses) — the per-cell work is one big sort, which --jobs
            # cannot split.
            print(
                f"[hint] --jobs {args.jobs} fans cells of {names[0]}, which"
                " measured ~no speedup; intra-sort sharding is the right"
                " granularity here — try --shards"
                f" {args.jobs} (see docs/scaling.md)",
                file=sys.stderr,
            )

        pending = [name for name in names if name not in restored]
        heartbeat = Heartbeat(
            "experiments", len(names), interval=args.heartbeat
        )
        # Installed process-wide so an in-process map_cells fan-out can
        # report per-cell progress through this heartbeat's detail field.
        set_current_heartbeat(heartbeat)
        emitter = _OrderedEmitter(names, args, timings, heartbeat)
        for name, (table, elapsed) in restored.items():
            emitter.ready(name, table, elapsed, restored=True)

        supervise = pending and (
            args.timeout is not None
            or args.retries > 0
            or (args.jobs > 1 and len(pending) > 1)
        )
        try:
            if supervise:
                supervisor = _Supervisor(
                    pending,
                    config=exec_config,
                    scale=args.scale,
                    seed=seed,
                    child_jobs=args.jobs if len(pending) == 1 else 1,
                    max_workers=min(args.jobs, len(pending)),
                    timeout=args.timeout,
                    retries=args.retries,
                    backoff=float(
                        os.environ.get(RETRY_BACKOFF_ENV, "") or 1.0
                    ),
                    profile_dir=profile_dir,
                    checkpoint=checkpoint,
                    emitter=emitter,
                )
                # The heartbeat thread starts only after construction; the
                # supervisor forks fresh children throughout the run.
                heartbeat.start()
                failures = supervisor.run()
            else:
                heartbeat.start()
                for name in pending:
                    cell_path = None
                    if checkpoint is not None and name in CELL_PARALLEL:
                        cell_path = str(checkpoint.cell_journal_path(name))
                    with use(exec_config):
                        _, table, elapsed = _run_single(
                            name, args.scale, seed, jobs=args.jobs,
                            profile_dir=profile_dir,
                            cell_journal_path=cell_path,
                        )
                    if checkpoint is not None:
                        checkpoint.record(name, table, elapsed)
                    emitter.ready(name, table, elapsed)
        except KeyboardInterrupt:
            if checkpoint is not None:
                checkpoint.journal_event("interrupted")
                print(
                    f"\n[interrupted] completed work is checkpointed;"
                    f" resume with: --resume {checkpoint.run_id}",
                    file=sys.stderr,
                )
            raise
        finally:
            set_current_heartbeat(None)
            heartbeat.stop()
        if checkpoint is not None:
            checkpoint.journal_event(
                "complete" if not failures else "partial",
                failed=sorted(failures),
            )
    finally:
        if checkpoint is not None:
            checkpoint.close()
        if trace_path is not None:
            close_tracer()  # flush this process's part file
            if saved_trace_env is None:
                os.environ.pop(TRACE_DIR_ENV, None)
            else:
                os.environ[TRACE_DIR_ENV] = saved_trace_env
            if saved_run_env is None:
                os.environ.pop(TRACE_RUN_ENV, None)
            else:
                os.environ[TRACE_RUN_ENV] = saved_run_env
            parts = sorted(parts_dir.glob("trace-*.jsonl"))
            count = merge_traces(parts, trace_path)
            for part in parts:
                part.unlink()
            try:
                parts_dir.rmdir()
            except OSError:
                pass  # foreign files in the parts dir: leave it
            print(f"merged {count} trace events into {trace_path}")
        if metrics_path is not None:
            close_metrics()  # final snapshot for this process
            if saved_metrics_env is None:
                os.environ.pop(METRICS_DIR_ENV, None)
            else:
                os.environ[METRICS_DIR_ENV] = saved_metrics_env
            metric_parts = sorted(
                metrics_parts_dir.glob("metrics-*.jsonl")
            )
            snapshots = read_snapshots(metric_parts)
            with open(metrics_path, "w", encoding="utf-8") as out:
                for snapshot in snapshots:
                    out.write(
                        json.dumps(snapshot, separators=(",", ":")) + "\n"
                    )
            exposition = metrics_path.with_suffix(".prom")
            exposition.write_text(
                snapshot_to_prometheus(aggregate_snapshots(snapshots))
            )
            for part in metric_parts:
                part.unlink()
            try:
                metrics_parts_dir.rmdir()
            except OSError:
                pass  # foreign files in the parts dir: leave it
            print(
                f"merged {len(snapshots)} metric snapshots into"
                f" {metrics_path} (exposition: {exposition})"
            )
    total = time.perf_counter() - wall_start

    if args.bench_json is not None:
        # `cpus` is the machine (os.cpu_count() — what the hardware offers);
        # `workers_effective` is what this run actually used: --jobs fans
        # cells when a single cell-parallel experiment is selected, else at
        # most one worker per experiment.
        if len(names) == 1 and names[0] in CELL_PARALLEL:
            workers_effective = args.jobs
        else:
            workers_effective = min(args.jobs, max(1, len(names)))
        record = {
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "scale": resolve_scale(args.scale),
            "seed": seed,
            "jobs": args.jobs,
            "cpus": os.cpu_count(),
            "workers_effective": workers_effective,
            **exec_config.result_fields(),
            "batch": exec_config.batch,
            "experiments": {name: round(t, 3) for name, t in timings.items()},
            "total_s": round(total, 3),
        }
        path = Path(args.bench_json)
        baseline = _serial_baseline(path, record)
        if baseline is not None and total > 0:
            speedup = baseline["total_s"] / total
            parallelism = (
                exec_config.shards
                if exec_config.shards > 1
                else workers_effective
            )
            record["speedup_vs_serial"] = round(speedup, 3)
            record["scaling_efficiency"] = round(
                speedup / max(1, parallelism), 3
            )
        if args.resume is not None:
            record["resumed"] = args.resume
        if failures:
            record["failed"] = sorted(failures)
        _append_bench_record(path, record)
        print(f"bench record appended to {path}")

    if failures:
        print(_failed_table(failures).to_text())
        if checkpoint is not None:
            print(
                f"[partial failure] retry the failed experiments with:"
                f" --resume {checkpoint.run_id}",
                file=sys.stderr,
            )
        return EXIT_PARTIAL
    return 0


def _describe(fn: Callable) -> str:
    """One-line description of an experiment: its module docstring's head."""
    doc = sys.modules[fn.__module__].__doc__ or ""
    for line in doc.splitlines():
        line = line.strip()
        if line:
            return line
    return ""


if __name__ == "__main__":
    sys.exit(main())
