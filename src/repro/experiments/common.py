"""Shared infrastructure of the experiment harness.

Every table/figure of the paper has a module in this package exposing::

    run(scale: str = ..., seed: int = 0) -> ExperimentTable

Scales
------
The paper's experiments sort 16M records in a native C implementation.  This
reproduction's per-access simulation is pure Python, so each experiment
defines scaled-down input sizes per scale tier:

* ``smoke``   — seconds; used by the test suite to exercise the harness.
* ``default`` — minutes for the full bench suite; the recorded results in
  EXPERIMENTS.md use this tier.
* ``large``   — closer to the paper's regime; use when time permits.

The tier comes from the ``REPRO_SCALE`` environment variable (or an explicit
``scale=`` argument).  What is being reproduced are *shapes* — who wins,
where the optimum ``T`` sits, signs of write reductions — which the paper's
own Figure 10 (and Equation 4) shows are stable across sizes.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError
from repro.execution import batching_enabled, current, install

SCALES = ("smoke", "default", "large", "paper")

#: Environment variable: default seconds between heartbeat lines.
HEARTBEAT_ENV = "REPRO_HEARTBEAT_S"

#: Environment variable relocating the saved-results directory (used by the
#: docs-example smoke checker to keep the committed records pristine).
RESULTS_DIR_ENV = "REPRO_RESULTS_DIR"

#: Directory where bench runs persist their tables (JSON).
RESULTS_DIR = Path(
    os.environ.get(RESULTS_DIR_ENV)
    or Path(__file__).resolve().parents[3] / "benchmarks" / "results"
)


def resolve_scale(scale: str | None = None) -> str:
    """Pick the scale tier: explicit argument > REPRO_SCALE > default."""
    value = scale if scale is not None else os.environ.get("REPRO_SCALE", "default")
    if value not in SCALES:
        raise ConfigError(
            f"scale must be one of {SCALES}, got {value!r} (set --scale or"
            " the REPRO_SCALE environment variable)"
        )
    return value


def scaled(
    scale: str | None,
    smoke: int,
    default: int,
    large: int,
    paper: "int | None" = None,
) -> int:
    """Select a size by tier.

    ``paper`` is the size at which the source paper reports the figure
    (e.g. n = 16M keys for fig09–fig11).  Experiments that have not been
    given a paper-tier size yet fall back to ``large`` — the ``paper``
    tier must never silently shrink an experiment below ``large``.
    """
    tier = resolve_scale(scale)
    sizes = {
        "smoke": smoke,
        "default": default,
        "large": large,
        "paper": paper if paper is not None else large,
    }
    return sizes[tier]


@dataclass
class ExperimentTable:
    """A reproduced table/figure: labelled rows of measured values.

    ``paper_reference`` carries the corresponding numbers or shape claims
    from the paper so EXPERIMENTS.md can show paper-vs-measured side by
    side.
    """

    experiment: str
    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    paper_reference: list[str] = field(default_factory=list)
    #: Auxiliary payload (e.g. downsampled series for plotting); serialized
    #: to JSON but not rendered in the text table.
    extra: dict = field(default_factory=dict)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list:
        """All values of one column, by header name."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def to_text(self) -> str:
        """Render as an aligned text table with notes."""

        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.4f}"
            return str(value)

        cells = [self.columns] + [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(row[i]) for row in cells) for i in range(len(self.columns))
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        for row in cells:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        for ref in self.paper_reference:
            lines.append(f"paper: {ref}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment": self.experiment,
                "title": self.title,
                "columns": self.columns,
                "rows": self.rows,
                "notes": self.notes,
                "paper_reference": self.paper_reference,
                "extra": self.extra,
            },
            indent=2,
        )

    def save(self, directory: Path | None = None) -> Path:
        """Persist to ``benchmarks/results/<experiment>.json``."""
        target_dir = directory if directory is not None else RESULTS_DIR
        target_dir.mkdir(parents=True, exist_ok=True)
        path = target_dir / f"{self.experiment}.json"
        path.write_text(self.to_json())
        return path


def fmt_pct(value: float) -> str:
    """Format a ratio as a signed percentage for notes."""
    return f"{value * 100:+.1f}%"


class Heartbeat:
    """Periodic progress lines on stderr while a long run is in flight.

    ``interval`` is the seconds between lines; ``None`` reads the
    ``REPRO_HEARTBEAT_S`` environment variable (default 30) and ``0``
    disables the thread entirely.  Call :meth:`start` only *after*
    submitting work to a process pool — forking a process that already
    carries threads is best avoided (and deprecated on newer Pythons).

    :meth:`advance` counts completed top-level units (experiments);
    :meth:`set_detail` carries finer-grained in-flight progress — the
    runner installs its heartbeat via :func:`set_current_heartbeat` so
    :func:`map_cells` can report per-cell progress of the experiment it
    is fanning, turning ``3/12 done`` into ``3/12 done (fig09: 40/96
    cells)`` on long runs.
    """

    def __init__(
        self, label: str, total: int, interval: "float | None" = None
    ) -> None:
        if interval is None:
            interval = float(os.environ.get(HEARTBEAT_ENV, "") or 30.0)
        self.label = label
        self.total = total
        self.interval = interval
        self._done = 0
        self._detail = ""
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._t0 = time.perf_counter()

    def start(self) -> "Heartbeat":
        if self.interval > 0 and self._thread is None:
            self._thread = threading.Thread(
                target=self._beat, name="repro-heartbeat", daemon=True
            )
            self._thread.start()
        return self

    def _beat(self) -> None:
        while not self._stop.wait(self.interval):
            elapsed = time.perf_counter() - self._t0
            detail = f" ({self._detail})" if self._detail else ""
            print(
                f"[heartbeat] {self.label}: {self._done}/{self.total} done"
                f" after {elapsed:.0f}s{detail}",
                file=sys.stderr, flush=True,
            )

    def advance(self, n: int = 1) -> None:
        self._done += n
        # A finished unit invalidates any finer-grained detail under it.
        self._detail = ""

    def set_detail(self, text: str) -> None:
        """In-flight progress shown in parentheses on the next beat line."""
        self._detail = text

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None


#: The heartbeat of the run currently in flight, when execution happens in
#: this process (the runner's unsupervised path); ``None`` otherwise.  A
#: supervised attempt runs in a forked child and cannot reach the parent's
#: heartbeat — there the per-experiment granularity stands.
_CURRENT_HEARTBEAT: "Heartbeat | None" = None


def set_current_heartbeat(
    heartbeat: "Heartbeat | None",
) -> "Heartbeat | None":
    """Install the process-wide heartbeat; returns the previous one."""
    global _CURRENT_HEARTBEAT
    previous = _CURRENT_HEARTBEAT
    _CURRENT_HEARTBEAT = heartbeat
    return previous


def current_heartbeat() -> "Heartbeat | None":
    return _CURRENT_HEARTBEAT


def map_cells(
    fn, cells: list[tuple], jobs: int = 1, journal=None, batcher=None
) -> list:
    """Run ``fn(*cell)`` for every cell, optionally across processes.

    The experiment modules express their independent measurement cells as
    tuples of primitives and a module-level function (so the pair pickles
    into worker processes).  Results come back in cell order regardless of
    ``jobs``, and the sequential path calls the exact same function, so the
    output is bit-identical for any job count — each cell derives all of its
    randomness from its own arguments, never from shared mutable state.

    ``journal`` (a :class:`repro.experiments.checkpoint.CellJournal`)
    makes the fan-out resumable: cells already recorded for these exact
    arguments are restored instead of recomputed, and every fresh result is
    journaled the moment it lands — so a crashed or timed-out experiment
    re-fans only its missing cells on the next attempt.  Restored values
    round-trip through JSON (tuples come back as lists; floats are exact).

    ``batcher`` (optional) is a function taking a list of cells and
    returning their results in the same order, by coalescing the cells
    through the :mod:`repro.batch` engine.  It is used only when batching
    is enabled (the execution config's ``batch``), sequential
    (``jobs <= 1``) and there is more than one outstanding cell; the batch
    engine's bit-identity contract keeps the table identical to the looped
    run.
    """
    results: list = [None] * len(cells)
    heartbeat = current_heartbeat()
    total = len(cells)
    if journal is not None:
        restored = journal.load(cells)
        todo = [i for i in range(len(cells)) if i not in restored]
        for i, value in restored.items():
            results[i] = value
    else:
        todo = list(range(len(cells)))
    completed = total - len(todo)

    def _cell_done() -> None:
        # Per-cell heartbeat granularity: a long fan-out reports inside its
        # experiment instead of sitting silent until the whole table lands.
        nonlocal completed
        completed += 1
        if heartbeat is not None:
            heartbeat.set_detail(f"{completed}/{total} cells")

    if not todo:
        return results
    if batcher is not None and jobs <= 1 and len(todo) > 1:
        if batching_enabled():
            if heartbeat is not None:
                heartbeat.set_detail(f"batching {len(todo)} cells")
            batch_values = batcher([cells[i] for i in todo])
            for i, value in zip(todo, batch_values):
                results[i] = value
                if journal is not None:
                    journal.record(i, cells[i], value)
                _cell_done()
            return results
    if jobs <= 1 or len(todo) <= 1:
        for i in todo:
            results[i] = fn(*cells[i])
            if journal is not None:
                journal.record(i, cells[i], results[i])
            _cell_done()
        return results
    from concurrent.futures import ProcessPoolExecutor, as_completed

    # Workers get the execution config explicitly, not through the start
    # method: a spawned worker would otherwise fall back to the env's.
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(todo)),
        initializer=install, initargs=(current(),),
    ) as pool:
        futures = {pool.submit(fn, *cells[i]): i for i in todo}
        # Journal each cell the moment it finishes (not in index order), so
        # an interruption preserves every completed measurement.
        for future in as_completed(futures):
            i = futures[future]
            results[i] = future.result()
            if journal is not None:
                journal.record(i, cells[i], results[i])
            _cell_done()
    return results


# ---------------------------------------------------------------------- #
# Fault injection (testing hooks for the resilience layer)
# ---------------------------------------------------------------------- #

#: Environment variable holding fault clauses: ``kind:experiment[:limit]``
#: comma-separated, e.g. ``crash:fig09`` or ``crash:fig09:1,hang:table3``.
FAULT_ENV = "REPRO_FAULT"

#: Directory where counted fault clauses persist their trip counts (so a
#: ``crash:fig09:1`` clause stops firing after one crash even though each
#: attempt runs in a fresh process).
FAULT_DIR_ENV = "REPRO_FAULT_DIR"

#: Exit status of an injected crash (distinct from real Python failures).
FAULT_CRASH_EXIT = 86

_FAULT_KINDS = ("crash", "hang")


def parse_fault_spec(spec: str) -> list[tuple[str, str, int | None]]:
    """Parse ``REPRO_FAULT`` into ``(kind, experiment, limit)`` clauses."""
    clauses = []
    for clause in spec.split(","):
        parts = clause.strip().split(":")
        if len(parts) not in (2, 3) or parts[0] not in _FAULT_KINDS:
            raise ConfigError(
                f"bad {FAULT_ENV} clause {clause!r}; expected"
                f" kind:experiment[:limit] with kind in {_FAULT_KINDS}"
            )
        limit = None
        if len(parts) == 3:
            try:
                limit = int(parts[2])
            except ValueError:
                raise ConfigError(
                    f"bad {FAULT_ENV} limit {parts[2]!r} in {clause!r};"
                    " expected an integer attempt count"
                ) from None
        clauses.append((parts[0], parts[1], limit))
    return clauses


def _fault_trips(kind: str, name: str) -> "tuple[int, Path]":
    """Trips already fired for this clause, and where they are counted."""
    directory = os.environ.get(FAULT_DIR_ENV)
    if not directory:
        raise ConfigError(
            f"counted {FAULT_ENV} clauses need {FAULT_DIR_ENV} to persist"
            " their trip counts across worker processes"
        )
    path = Path(directory) / f"{kind}-{name}.trips"
    try:
        return path.stat().st_size, path
    except OSError:
        return 0, path


def maybe_inject_fault(name: str) -> None:
    """Fire any ``REPRO_FAULT`` clause targeting experiment ``name``.

    ``crash`` exits the process immediately via ``os._exit`` (no cleanup,
    like an OOM kill); ``hang`` sleeps forever (until the supervisor's
    ``--timeout`` kills the worker).  A ``:limit`` suffix fires the clause
    on the first ``limit`` attempts only — the mechanism retry tests use to
    let a later attempt succeed.
    """
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    for kind, target, limit in parse_fault_spec(spec):
        if target != name:
            continue
        if limit is not None:
            trips, path = _fault_trips(kind, name)
            if trips >= limit:
                continue
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "ab") as sink:
                sink.write(b"x")
        # The flight ring's whole reason to exist: the dying process writes
        # its own post-mortem (when REPRO_FLIGHT_DIR arms dumping) before
        # os._exit skips every other teardown path.
        from repro.obs.flight import dump_flight, get_flight

        get_flight().record("fault_injected", name, fault=kind)
        dump_flight(f"fault-{kind}:{name}")
        if kind == "crash":
            print(
                f"[fault] injected crash in {name} (pid {os.getpid()})",
                file=sys.stderr, flush=True,
            )
            os._exit(FAULT_CRASH_EXIT)
        print(
            f"[fault] injected hang in {name} (pid {os.getpid()})",
            file=sys.stderr, flush=True,
        )
        while True:  # pragma: no cover - only ever exits by being killed
            time.sleep(60)
