"""Differential oracle: one configuration, several must-agree executions.

The repo has independently built execution paths that are required to be
observationally equivalent; each *equivalence class* here runs one
``(sorter, workload, memory config, seed)`` tuple through two such paths
and compares everything observable:

``scalar_numpy_precise``
    Scalar vs numpy kernels on precise memory — bit-identical final keys,
    final IDs, and :class:`MemoryStats` (DESIGN.md section 8's contract).
``scalar_numpy_approx``
    Scalar vs numpy kernels on approximate PCM.  Bit-identical for the
    block-writing sorters (:data:`repro.sorting.registry.
    APPROX_KERNEL_EXACT`); distributional for quicksort/mergesort, whose
    kernels consume the corruption streams through differently-shaped
    sampler calls — compared over several seeds with a two-sample
    Kolmogorov–Smirnov test on per-run corruption rates (scipy when
    available, with a conservative built-in fallback).
``traced_untraced``
    The same run with a live file tracer vs the NullTracer default —
    bit-identical results *and* per-stage stats, plus the tiling law: the
    seven Listing-1 stage deltas must sum exactly to the run totals.
``resumed_uninterrupted``
    A multi-cell computation journaled through
    :class:`repro.experiments.checkpoint.CellJournal`, interrupted halfway
    and resumed, vs the same cells computed in one pass — bit-identical
    per-cell digests.
``sharded_serial``
    The same sharded sort plan executed on the fork worker pool (keys in
    ``multiprocessing.shared_memory`` segments) vs entirely in-process —
    bit-identical keys, IDs, Rem~, and stats on both precise and
    approximate memory.  Sharded execution must be a pure performance
    decision, never an observable one.
``batched_loop``
    A ragged batch of jobs (including empty and singleton segments) run
    through the :mod:`repro.batch` segmented engine vs job-by-job looped
    execution — bit-identical per-job keys, IDs, Rem~, ``MemoryStats``
    and per-stage stats on precise *and* approximate memory, plus the
    tiling law: the per-segment stats must merge to exactly the sum of
    the looped per-job stats.  Batching, like sharding, must be a pure
    performance decision.
``served_direct``
    Sort responses from a live :class:`repro.serve.SortServer` (real TCP
    round trip, pipelined requests riding one coalesced admission drain)
    vs direct :func:`run_approx_refine`/:func:`run_precise_baseline`
    calls with the tenant profile's configuration — bit-identical keys,
    IDs, Rem~ and ``MemoryStats`` after a JSON round trip, on both
    lanes.  The serving stack (protocol, scheduler, batching, executor
    thread) must be a pure transport, never an observable one.
``write_budget``
    Measured key-write counts vs the sorter's closed-form worst-case
    bound (:meth:`~repro.sorting.base.BaseSorter.max_key_writes`).  For
    every sorter with a value-independent write schedule (mergesort, LSD
    radix, and the write-efficient family of DESIGN.md section 16), both
    kernel modes are run on precise *and* approximate memory and the
    ``MemoryStats`` write counters must not exceed the bound — the
    write-efficiency claims are machine-checked, never asserted.
    Sorters whose write count is value-dependent (quicksort's swaps, MSD
    recursion) return ``None`` from ``max_key_writes`` and the class
    degenerates to a no-op.

Every divergence is reported as a :class:`Divergence` carrying the first
differing element/counter and a replayable description of the case; the
fuzzer (:mod:`repro.verify.fuzz`) shrinks failing cases by ``n`` before
persisting them.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.memory.approx_array import WORD_LIMIT
from repro.memory.config import MLCParams
from repro.memory.factories import PCMMemoryFactory
from repro.memory.stats import MemoryStats
from repro.obs import NULL_TRACER, Tracer, set_tracer
from repro.sorting.registry import APPROX_KERNEL_EXACT, available_sorters
from repro.workloads.generators import GENERATORS, make_keys

#: Monte-Carlo fit size for oracle-scope memory models (cached per T).
ORACLE_FIT_SAMPLES = 8_000

#: T values the oracle/fuzzer draw from (paper Figure 9's sweep range).
T_CHOICES = (0.04, 0.055, 0.07, 0.1)

#: Seeds per kernel mode for the distributional class.
STAT_SEEDS = 8

#: KS-test significance level.  With derandomized seeds the test statistic
#: is deterministic, so this does not flake in CI.
KS_ALPHA = 1e-3

#: Oracle-only workloads beyond the registered generators.  ``max_word``
#: is seed-independent (every key is the largest representable word — the
#: P&V model's highest-cost, highest-error value), which disqualifies it
#: from the generator registry's seed-sensitivity contract but makes it a
#: prime fuzz edge case.
EXTRA_WORKLOADS: dict[str, Callable[[int, int], list[int]]] = {
    "max_word": lambda n, seed=0: [WORD_LIMIT - 1] * n,
}


@dataclass(frozen=True)
class OracleCase:
    """One fuzzable configuration: what to sort, where, and how."""

    algorithm: str
    workload: str = "uniform"
    n: int = 300
    t: float = 0.055
    seed: int = 0

    def keys(self) -> list[int]:
        if self.workload in EXTRA_WORKLOADS:
            return EXTRA_WORKLOADS[self.workload](self.n, self.seed)
        return make_keys(self.workload, self.n, seed=self.seed)

    def describe(self) -> str:
        return (
            f"algorithm={self.algorithm} workload={self.workload}"
            f" n={self.n} T={self.t} seed={self.seed}"
        )


@dataclass
class Divergence:
    """One observed disagreement between two must-agree executions."""

    equivalence: str
    field: str
    index: Optional[int]
    expected: object
    actual: object
    detail: str = ""

    def describe(self) -> str:
        where = f"[{self.index}]" if self.index is not None else ""
        text = (
            f"{self.equivalence}: {self.field}{where}:"
            f" expected {self.expected!r}, got {self.actual!r}"
        )
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class CaseResult:
    """Outcome of running one case through a set of equivalence classes."""

    case: OracleCase
    classes_run: list[str] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.divergences

    def to_json(self) -> dict:
        return {
            "case": asdict(self.case),
            "classes_run": self.classes_run,
            "divergences": [asdict(d) for d in self.divergences],
        }


# --------------------------------------------------------------------- #
# Comparison helpers
# --------------------------------------------------------------------- #


def _first_mismatch(
    out: list[Divergence],
    equivalence: str,
    name: str,
    expected: list,
    actual: list,
) -> None:
    """Record the first divergent element of two sequences (if any)."""
    if expected == actual:
        return
    if len(expected) != len(actual):
        out.append(Divergence(
            equivalence, name, None, len(expected), len(actual),
            detail="length mismatch",
        ))
        return
    for i, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            out.append(Divergence(equivalence, name, i, want, got))
            return


def _compare_stats(
    out: list[Divergence],
    equivalence: str,
    name: str,
    expected: MemoryStats,
    actual: MemoryStats,
) -> None:
    """Record the first divergent counter of two stats payloads (if any)."""
    want = expected.as_dict()
    got = actual.as_dict()
    for counter in want:
        if want[counter] != got[counter]:
            out.append(Divergence(
                equivalence, f"{name}.{counter}", None,
                want[counter], got[counter],
            ))
            return


def digest_keys(keys: list[int]) -> str:
    """Compact bit-exact digest of a key sequence."""
    h = hashlib.sha256()
    for key in keys:
        h.update(key.to_bytes(4, "little"))
    return h.hexdigest()[:16]


_MEMORY_CACHE: dict[float, PCMMemoryFactory] = {}


def memory_for(t: float) -> PCMMemoryFactory:
    """PCM factory for ``T = t`` with the oracle fit size (process-cached)."""
    if t not in _MEMORY_CACHE:
        _MEMORY_CACHE[t] = PCMMemoryFactory(
            MLCParams(t=t), fit_samples=ORACLE_FIT_SAMPLES
        )
    return _MEMORY_CACHE[t]


# --------------------------------------------------------------------- #
# Equivalence classes
# --------------------------------------------------------------------- #


def check_scalar_numpy_precise(case: OracleCase) -> list[Divergence]:
    """Scalar ≡ numpy kernels on precise memory, bit for bit."""
    out: list[Divergence] = []
    keys = case.keys()
    scalar = run_precise_baseline(keys, case.algorithm, kernels="scalar")
    vector = run_precise_baseline(keys, case.algorithm, kernels="numpy")
    name = "scalar_numpy_precise"
    _first_mismatch(out, name, "final_keys", sorted(keys), scalar.final_keys)
    _first_mismatch(out, name, "final_keys", scalar.final_keys,
                    vector.final_keys)
    _first_mismatch(out, name, "final_ids", scalar.final_ids,
                    vector.final_ids)
    _compare_stats(out, name, "stats", scalar.stats, vector.stats)
    return out


def check_scalar_numpy_approx(case: OracleCase) -> list[Divergence]:
    """Scalar vs numpy kernels on approximate memory.

    Exact for the block writers; distributional (KS on corruption rates,
    plus exact sortedness of every output) for quicksort/mergesort.
    """
    out: list[Divergence] = []
    name = "scalar_numpy_approx"
    memory = memory_for(case.t)
    keys = case.keys()
    if case.algorithm in APPROX_KERNEL_EXACT:
        scalar = run_approx_refine(
            keys, case.algorithm, memory, seed=case.seed, kernels="scalar"
        )
        vector = run_approx_refine(
            keys, case.algorithm, memory, seed=case.seed, kernels="numpy"
        )
        _first_mismatch(out, name, "final_keys", sorted(keys),
                        scalar.final_keys)
        _first_mismatch(out, name, "final_keys", scalar.final_keys,
                        vector.final_keys)
        _first_mismatch(out, name, "final_ids", scalar.final_ids,
                        vector.final_ids)
        if scalar.rem_tilde != vector.rem_tilde:
            out.append(Divergence(
                name, "rem_tilde", None, scalar.rem_tilde, vector.rem_tilde
            ))
        _compare_stats(out, name, "stats", scalar.stats, vector.stats)
        return out

    # Distributional: per-run corruption rates across seeds per mode.
    rates: dict[str, list[float]] = {"scalar": [], "numpy": []}
    for mode in rates:
        for offset in range(STAT_SEEDS):
            result = run_approx_refine(
                keys, case.algorithm, memory,
                seed=case.seed * STAT_SEEDS + offset, kernels=mode,
            )
            if result.final_keys != sorted(keys):
                _first_mismatch(out, name, f"final_keys[{mode}]",
                                sorted(keys), result.final_keys)
                return out
            rates[mode].append(
                result.stats.corrupted_writes
                / max(1, result.stats.approx_writes)
            )
    p_value = _ks_p_value(rates["scalar"], rates["numpy"])
    if p_value < KS_ALPHA:
        out.append(Divergence(
            name, "corruption_rate_distribution", None,
            f"KS p >= {KS_ALPHA}", f"p = {p_value:.2e}",
            detail=(
                f"scalar rates {rates['scalar']!r} vs"
                f" numpy rates {rates['numpy']!r}"
            ),
        ))
    return out


def check_traced_untraced(case: OracleCase) -> list[Divergence]:
    """A live tracer must never change an execution's observable output."""
    out: list[Divergence] = []
    name = "traced_untraced"
    memory = memory_for(case.t)
    keys = case.keys()

    previous = set_tracer(NULL_TRACER)
    try:
        untraced = run_approx_refine(
            keys, case.algorithm, memory, seed=case.seed
        )
        with tempfile.TemporaryDirectory(prefix="verify-trace-") as tmp:
            tracer = Tracer(path=os.path.join(tmp, "trace.jsonl"))
            set_tracer(tracer)
            try:
                traced = run_approx_refine(
                    keys, case.algorithm, memory, seed=case.seed
                )
            finally:
                tracer.close()
                set_tracer(NULL_TRACER)
    finally:
        set_tracer(previous)

    _first_mismatch(out, name, "final_keys", untraced.final_keys,
                    traced.final_keys)
    _first_mismatch(out, name, "final_ids", untraced.final_ids,
                    traced.final_ids)
    if untraced.rem_tilde != traced.rem_tilde:
        out.append(Divergence(
            name, "rem_tilde", None, untraced.rem_tilde, traced.rem_tilde
        ))
    _compare_stats(out, name, "stats", untraced.stats, traced.stats)
    for stage in untraced.stage_stats:
        if stage not in traced.stage_stats:
            out.append(Divergence(
                name, f"stage_stats.{stage}", None, "present", "missing"
            ))
            return out
        _compare_stats(
            out, name, f"stage_stats.{stage}",
            untraced.stage_stats[stage], traced.stage_stats[stage],
        )
        if out:
            return out
    # Conservation: the per-stage deltas must tile the run totals.  Integer
    # counters are compared exactly; ``approx_write_units`` is a float whose
    # stage deltas come from snapshot subtraction, so re-summing them is
    # only ULP-accurate (the tracer emits cum_start/cum chains precisely to
    # avoid float re-summation) — compare within a tight relative tolerance.
    for result, label in ((untraced, "untraced"), (traced, "traced")):
        tiled = MemoryStats()
        for stage_delta in result.stage_stats.values():
            tiled.merge(stage_delta)
        want = result.stats.as_dict()
        got = tiled.as_dict()
        for counter in want:
            if counter == "approx_write_units":
                agree = math.isclose(
                    want[counter], got[counter],
                    rel_tol=1e-9, abs_tol=1e-6,
                )
            else:
                agree = want[counter] == got[counter]
            if not agree:
                out.append(Divergence(
                    name, f"stage_tiling[{label}].{counter}", None,
                    want[counter], got[counter],
                ))
                return out
    return out


def check_resumed_uninterrupted(case: OracleCase) -> list[Divergence]:
    """Journal half the cells, resume, and require bit-identical digests."""
    from repro.experiments.checkpoint import CellJournal

    out: list[Divergence] = []
    name = "resumed_uninterrupted"
    memory = memory_for(case.t)
    cells = [(case.algorithm, case.seed + j) for j in range(4)]

    def compute(cell: tuple) -> dict:
        algorithm, seed = cell
        result = run_approx_refine(case.keys(), algorithm, memory, seed=seed)
        return {
            "keys": digest_keys(result.final_keys),
            "ids": digest_keys(result.final_ids),
            "rem": result.rem_tilde,
            "stats": result.stats.as_dict(),
        }

    straight = [compute(cell) for cell in cells]

    with tempfile.TemporaryDirectory(prefix="verify-resume-") as tmp:
        path = os.path.join(tmp, "cells.jsonl")
        # First attempt: complete half the cells, then "crash".
        journal = CellJournal(path)
        for index in range(len(cells) // 2):
            journal.record(index, cells[index], straight[index])
        journal.close()
        # Resume: restore completed cells, compute only the remainder.
        journal = CellJournal(path)
        restored = journal.load(cells)
        resumed: list[dict] = []
        for index, cell in enumerate(cells):
            if index in restored:
                resumed.append(restored[index])
            else:
                value = compute(cell)
                journal.record(index, cell, value)
                resumed.append(value)
        journal.close()

    for index, (want, got) in enumerate(zip(straight, resumed)):
        if want != got:
            bad = next(k for k in want if want[k] != got.get(k))
            out.append(Divergence(
                name, f"cell[{index}].{bad}", index, want[bad], got.get(bad)
            ))
            return out
    return out


def check_sharded_serial(case: OracleCase) -> list[Divergence]:
    """Pooled sharded execution ≡ in-process sharded execution, bit for bit.

    Both runs execute the *same* sharded plan (partition, per-shard seeds,
    stats reduction order are all fixed parent-side); only where the shard
    kernels run differs — forked workers over shared memory vs the calling
    process.  Any divergence means shard state leaked across the process
    boundary.  On platforms without fork both runs are in-process and the
    class degenerates to a self-consistency check.
    """
    from repro.parallel.sharded import ShardedSorter
    from repro.sorting.registry import make_base_sorter

    out: list[Divergence] = []
    name = "sharded_serial"
    memory = memory_for(case.t)
    keys = case.keys()

    def build(workers: int) -> ShardedSorter:
        return ShardedSorter(
            make_base_sorter(case.algorithm),
            shards=3, workers=workers, min_n=2, kernels="numpy",
        )

    pooled = run_approx_refine(keys, build(2), memory, seed=case.seed)
    local = run_approx_refine(keys, build(0), memory, seed=case.seed)
    _first_mismatch(out, name, "final_keys", sorted(keys), pooled.final_keys)
    _first_mismatch(out, name, "final_keys", pooled.final_keys,
                    local.final_keys)
    _first_mismatch(out, name, "final_ids", pooled.final_ids,
                    local.final_ids)
    if pooled.rem_tilde != local.rem_tilde:
        out.append(Divergence(
            name, "rem_tilde", None, pooled.rem_tilde, local.rem_tilde
        ))
    _compare_stats(out, name, "stats", pooled.stats, local.stats)
    if out:
        return out

    pooled_precise = run_precise_baseline(keys, build(2))
    local_precise = run_precise_baseline(keys, build(0))
    _first_mismatch(out, name, "precise_final_keys", sorted(keys),
                    pooled_precise.final_keys)
    _first_mismatch(out, name, "precise_final_ids",
                    pooled_precise.final_ids, local_precise.final_ids)
    if sorted(pooled_precise.final_ids) != list(range(len(keys))):
        out.append(Divergence(
            name, "precise_final_ids", None,
            "a permutation of input positions", "not a permutation",
        ))
    _compare_stats(out, name, "precise_stats", pooled_precise.stats,
                   local_precise.stats)
    return out


def check_batched_loop(case: OracleCase) -> list[Divergence]:
    """Batched segmented execution ≡ looped execution, bit for bit.

    Builds a ragged batch around the case (full-size, singleton, empty and
    tiny segments), runs it through :func:`repro.batch.run_batch` on both
    precise and approximate memory, and compares every job's observables
    against its looped run — including the per-stage stats and the tiling
    of the per-segment stats into the batch aggregate.
    """
    from repro.batch import BatchJob, run_batch, tiled_aggregate

    out: list[Divergence] = []
    name = "batched_loop"
    memory = memory_for(case.t)

    def keys_for(n: int, seed: int) -> list[int]:
        if n == 0:
            return []
        if case.workload in EXTRA_WORKLOADS:
            return EXTRA_WORKLOADS[case.workload](n, seed)
        return make_keys(case.workload, n, seed=seed)

    lengths = (case.n, 1, 0, max(2, case.n // 2), 2, 3)
    keys_list = [keys_for(n, case.seed + j) for j, n in enumerate(lengths)]

    for lane in ("precise", "approx"):
        jobs = [
            BatchJob(
                keys=keys, sorter=case.algorithm,
                memory=None if lane == "precise" else memory,
                seed=case.seed + 17 * j, kernels="numpy",
            )
            for j, keys in enumerate(keys_list)
        ]
        if lane == "precise":
            looped = [
                run_precise_baseline(job.keys, case.algorithm, kernels="numpy")
                for job in jobs
            ]
        else:
            looped = [
                run_approx_refine(
                    job.keys, case.algorithm, memory, seed=job.seed,
                    kernels="numpy",
                )
                for job in jobs
            ]
        batched = run_batch(jobs)
        for j, (want, got) in enumerate(zip(looped, batched)):
            where = f"{lane}[{j}]"
            _first_mismatch(out, name, f"{where}.final_keys",
                            want.final_keys, got.final_keys)
            _first_mismatch(out, name, f"{where}.final_ids",
                            want.final_ids, got.final_ids)
            _compare_stats(out, name, f"{where}.stats", want.stats, got.stats)
            if lane == "approx":
                if want.rem_tilde != got.rem_tilde:
                    out.append(Divergence(
                        name, f"{where}.rem_tilde", None,
                        want.rem_tilde, got.rem_tilde,
                    ))
                for stage in want.stage_stats:
                    if stage not in got.stage_stats:
                        out.append(Divergence(
                            name, f"{where}.stage_stats.{stage}", None,
                            "present", "missing",
                        ))
                        break
                    _compare_stats(
                        out, name, f"{where}.stage_stats.{stage}",
                        want.stage_stats[stage], got.stage_stats[stage],
                    )
                    if out:
                        break
            if out:
                return out
        aggregate = tiled_aggregate([result.stats for result in batched])
        reference = MemoryStats()
        for result in looped:
            reference.merge(result.stats)
        _compare_stats(out, name, f"{lane}.tiled_aggregate",
                       reference, aggregate)
        if out:
            return out
    return out


def check_batch_span_tiling(case: OracleCase) -> list[Divergence]:
    """Traced batched execution stays batched and its spans tile exactly.

    Runs a ragged batch (the ``batched_loop`` construction) under a live
    file tracer and requires: bit-identical results to the looped
    references, exactly one synthesized ``batch.run`` span, one
    ``batch.segment`` per job whose ``stats`` match that job's
    ``MemoryStats`` (integers exactly, write-units to ulp tolerance), and
    the verbatim ``cum_start``/``cum`` tiling chain that
    :func:`repro.obs.report.check_events` enforces.  Under the sanitizer
    or a shard count of 2 or more the engine legitimately loops and emits
    no batch spans, so the class degenerates to a no-op there.
    """
    from repro.batch import BatchJob, run_batch
    from repro.batch.engine import _needs_looped_run
    from repro.obs.io import read_traces
    from repro.obs.report import check_events

    if _needs_looped_run():
        return []

    out: list[Divergence] = []
    name = "batch_span_tiling"
    memory = memory_for(case.t)

    def keys_for(n: int, seed: int) -> list[int]:
        if n == 0:
            return []
        if case.workload in EXTRA_WORKLOADS:
            return EXTRA_WORKLOADS[case.workload](n, seed)
        return make_keys(case.workload, n, seed=seed)

    lengths = (case.n, 1, 0, max(2, case.n // 2), 2, 3)
    jobs = [
        BatchJob(
            keys=keys_for(n, case.seed + j), sorter=case.algorithm,
            memory=memory, seed=case.seed + 17 * j, kernels="numpy",
        )
        for j, n in enumerate(lengths)
    ]

    previous = set_tracer(NULL_TRACER)
    try:
        looped = [
            run_approx_refine(
                job.keys, case.algorithm, memory, seed=job.seed,
                kernels="numpy",
            )
            for job in jobs
        ]
        with tempfile.TemporaryDirectory(prefix="verify-batchspan-") as tmp:
            path = os.path.join(tmp, "trace.jsonl")
            tracer = Tracer(path=path)
            set_tracer(tracer)
            try:
                batched = run_batch(jobs)
            finally:
                tracer.close()
                set_tracer(NULL_TRACER)
            events = read_traces([path])
    finally:
        set_tracer(previous)

    for j, (want, got) in enumerate(zip(looped, batched)):
        where = f"[{j}]"
        _first_mismatch(out, name, f"{where}.final_keys",
                        want.final_keys, got.final_keys)
        _first_mismatch(out, name, f"{where}.final_ids",
                        want.final_ids, got.final_ids)
        _compare_stats(out, name, f"{where}.stats", want.stats, got.stats)
        if out:
            return out

    problems = check_events(events)
    if problems:
        out.append(Divergence(
            name, "check_events", None, "no problems", problems[0]
        ))
        return out
    span_ends = [e for e in events if e.get("ev") == "span_end"]
    runs = [e for e in span_ends if e["name"] == "batch.run"]
    if len(runs) != 1:
        out.append(Divergence(
            name, "batch.run spans (engine stood down?)", None, 1, len(runs)
        ))
        return out
    segments = sorted(
        (e for e in span_ends if e["name"] == "batch.segment"),
        key=lambda e: e["id"],
    )
    if len(segments) != len(jobs):
        out.append(Divergence(
            name, "batch.segment spans", None, len(jobs), len(segments)
        ))
        return out
    for j, (segment, result) in enumerate(zip(segments, batched)):
        want_stats = result.stats.as_dict()
        got_stats = segment["stats"]
        if segment["attrs"]["n"] != result.n:
            out.append(Divergence(
                name, f"segment[{j}].attrs.n", j,
                result.n, segment["attrs"]["n"],
            ))
            return out
        for counter, want_value in want_stats.items():
            got_value = got_stats[counter]
            if counter == "approx_write_units":
                agree = math.isclose(
                    want_value, got_value, rel_tol=1e-9, abs_tol=1e-6
                )
            else:
                agree = want_value == got_value
            if not agree:
                out.append(Divergence(
                    name, f"segment[{j}].stats.{counter}", j,
                    want_value, got_value,
                ))
                return out
    return out


def check_served_direct(case: OracleCase) -> list[Divergence]:
    """Served sort responses ≡ direct library calls, bit for bit.

    Boots a real :class:`repro.serve.SortServer` on an ephemeral port
    with one approx and one precise tenant pinned to the case's
    configuration, pipelines several differently-sized requests down a
    single connection (so they coalesce into the same admission drain),
    and compares every response field against the direct call.  Floats
    survive the JSON hop exactly (shortest-round-trip encoding), so the
    comparison is bit-level even for ``approx_write_units``.
    """
    import asyncio
    import json

    from repro.serve import SortServer, TenantProfile
    from repro.serve import protocol as serve_protocol

    out: list[Divergence] = []
    name = "served_direct"
    memory = memory_for(case.t)

    profiles = (
        TenantProfile(
            name="oracle-approx", lane="approx", sorter=case.algorithm,
            kernels="numpy", t=case.t, fit_samples=ORACLE_FIT_SAMPLES,
        ),
        TenantProfile(
            name="oracle-precise", lane="precise", sorter=case.algorithm,
            kernels="numpy",
        ),
    )

    def keys_for(n: int, seed: int) -> list[int]:
        if case.workload in EXTRA_WORKLOADS:
            return EXTRA_WORKLOADS[case.workload](n, seed)
        return make_keys(case.workload, n, seed=seed)

    requests = [
        (tenant, keys_for(n, case.seed + j), case.seed + 17 * j)
        for tenant in ("oracle-approx", "oracle-precise")
        for j, n in enumerate((case.n, 1, max(2, case.n // 2), 3))
    ]

    async def round_trip() -> dict[int, dict]:
        server = SortServer(profiles=profiles, window_s=0.02)
        await server.start()
        try:
            # Responses to large sorts outgrow asyncio's 64 KiB default
            # line limit; accept any frame the server may send.
            reader, writer = await asyncio.open_connection(
                server.host, server.port, limit=server.max_frame_bytes
            )
            for i, (tenant, keys, seed) in enumerate(requests):
                writer.write(serve_protocol.encode_frame({
                    "op": "sort", "tenant": tenant, "keys": keys,
                    "seed": seed, "id": i,
                }))
            await writer.drain()
            responses: dict[int, dict] = {}
            for _ in requests:
                responses.update(
                    (r["id"], r)
                    for r in [json.loads(await reader.readline())]
                )
            writer.close()
        finally:
            await server.aclose()
        return responses

    responses = asyncio.run(round_trip())

    for i, (tenant, keys, seed) in enumerate(requests):
        response = responses.get(i)
        if response is None or not response.get("ok"):
            out.append(Divergence(
                name, f"response[{i}]", i, "ok", repr(response)
            ))
            return out
        if tenant == "oracle-approx":
            want = run_approx_refine(
                keys, case.algorithm, memory, seed=seed, kernels="numpy"
            )
        else:
            want = run_precise_baseline(keys, case.algorithm, kernels="numpy")
        where = f"{tenant}[{i}]"
        _first_mismatch(out, name, f"{where}.final_keys",
                        want.final_keys, response["keys"])
        _first_mismatch(out, name, f"{where}.final_ids",
                        want.final_ids, response["ids"])
        want_stats = want.stats.as_dict()
        for counter, want_value in want_stats.items():
            got_value = response["stats"].get(counter)
            if want_value != got_value:
                out.append(Divergence(
                    name, f"{where}.stats.{counter}", i,
                    want_value, got_value,
                ))
                break
        if tenant == "oracle-approx":
            if response.get("rem_tilde") != want.rem_tilde:
                out.append(Divergence(
                    name, f"{where}.rem_tilde", i,
                    want.rem_tilde, response.get("rem_tilde"),
                ))
            if response.get("tier") != 0 or response.get("tier_t") != case.t:
                out.append(Divergence(
                    name, f"{where}.tier", i, (0, case.t),
                    (response.get("tier"), response.get("tier_t")),
                    detail="degradation must stay off by default",
                ))
        if out:
            return out
    return out


def check_write_budget(case: OracleCase) -> list[Divergence]:
    """Measured key writes never exceed the closed-form worst-case bound.

    Sorters with a value-independent write schedule publish an exact
    worst-case key-write count via ``max_key_writes``; this class sorts
    the case's keys (keys only — the bound prices *key* writes, the
    paper's TEPMW currency) in both kernel modes on precise and
    approximate memory and compares the measured ``MemoryStats`` write
    counters against the bound.  The precise lane additionally requires
    a correctly sorted output — a sorter must not buy writes back by not
    sorting.  ``max_key_writes() is None`` (value-dependent schedule)
    degenerates to a no-op.
    """
    from repro.memory.approx_array import PreciseArray
    from repro.sorting.registry import make_base_sorter, with_kernels

    out: list[Divergence] = []
    name = "write_budget"
    sorter = make_base_sorter(case.algorithm)
    bound = sorter.max_key_writes(case.n)
    if bound is None:
        return out
    keys = case.keys()
    memory = memory_for(case.t)
    for mode in ("scalar", "numpy"):
        runner = with_kernels(sorter, mode)
        stats = MemoryStats()
        array = PreciseArray(keys, stats=stats, name="budget-precise")
        runner.sort(array)
        if array.to_list() != sorted(keys):
            _first_mismatch(out, name, f"precise[{mode}].final_keys",
                            sorted(keys), array.to_list())
            return out
        if stats.precise_writes > bound:
            out.append(Divergence(
                name, f"precise[{mode}].writes", None,
                f"<= {bound:g}", stats.precise_writes,
                detail=f"n={case.n}, bound from {case.algorithm}.max_key_writes",
            ))
            return out
        approx_stats = MemoryStats()
        runner.sort(memory.make_array(keys, stats=approx_stats, seed=case.seed))
        if approx_stats.approx_writes > bound:
            out.append(Divergence(
                name, f"approx[{mode}].writes", None,
                f"<= {bound:g}", approx_stats.approx_writes,
                detail=f"n={case.n}, T={case.t}",
            ))
            return out
    return out


#: Registry of equivalence classes.  ``bit`` classes are deterministic;
#: ``scalar_numpy_approx`` is distributional for non-block-writers.
EQUIVALENCE_CLASSES: dict[str, Callable[[OracleCase], list[Divergence]]] = {
    "scalar_numpy_precise": check_scalar_numpy_precise,
    "scalar_numpy_approx": check_scalar_numpy_approx,
    "traced_untraced": check_traced_untraced,
    "resumed_uninterrupted": check_resumed_uninterrupted,
    "sharded_serial": check_sharded_serial,
    "batched_loop": check_batched_loop,
    "batch_span_tiling": check_batch_span_tiling,
    "served_direct": check_served_direct,
    "write_budget": check_write_budget,
}

#: The deterministic subset (safe for tight CI gates and fuzz smoke).
BIT_CLASSES = (
    "scalar_numpy_precise",
    "traced_untraced",
    "resumed_uninterrupted",
    "sharded_serial",
    "batched_loop",
    "batch_span_tiling",
    "served_direct",
    "write_budget",
)


def resolve_classes(spec: "str | list[str] | None") -> list[str]:
    """Expand a class selection: ``None``/"all", "bit", or explicit names."""
    if spec is None or spec == "all":
        return list(EQUIVALENCE_CLASSES)
    if spec == "bit":
        return list(BIT_CLASSES)
    names = spec.split(",") if isinstance(spec, str) else list(spec)
    for class_name in names:
        if class_name not in EQUIVALENCE_CLASSES:
            raise ValueError(
                f"unknown equivalence class {class_name!r}; available:"
                f" {', '.join(EQUIVALENCE_CLASSES)}, or 'bit'/'all'"
            )
    return names


def run_case(
    case: OracleCase, classes: "str | list[str] | None" = None
) -> CaseResult:
    """Run ``case`` through the selected equivalence classes."""
    if case.algorithm not in available_sorters():
        raise ValueError(f"unknown sorter {case.algorithm!r}")
    if case.workload not in GENERATORS and case.workload not in EXTRA_WORKLOADS:
        raise ValueError(f"unknown workload {case.workload!r}")
    result = CaseResult(case=case)
    for class_name in resolve_classes(classes):
        check = EQUIVALENCE_CLASSES[class_name]
        result.classes_run.append(class_name)
        result.divergences.extend(check(case))
        if result.divergences:
            break  # report the first divergent class; fuzzer shrinks next
    return result


# --------------------------------------------------------------------- #
# KS test (scipy when present, exact small-sample fallback otherwise)
# --------------------------------------------------------------------- #


def _ks_p_value(a: list[float], b: list[float]) -> float:
    try:
        from scipy.stats import ks_2samp
    except ImportError:  # pragma: no cover - scipy is in the image
        return _ks_p_value_fallback(a, b)
    return float(ks_2samp(a, b, method="auto").pvalue)


def _ks_p_value_fallback(a: list[float], b: list[float]) -> float:
    """Asymptotic two-sample KS p-value (Smirnov), dependency-free."""
    xs = sorted(a)
    ys = sorted(b)
    d = 0.0
    i = j = 0
    while i < len(xs) and j < len(ys):
        if xs[i] <= ys[j]:
            i += 1
        else:
            j += 1
        d = max(d, abs(i / len(xs) - j / len(ys)))
    en = math.sqrt(len(xs) * len(ys) / (len(xs) + len(ys)))
    lam = (en + 0.12 + 0.11 / en) * d
    total = 0.0
    for k in range(1, 101):
        total += (-1) ** (k - 1) * math.exp(-2.0 * (lam * k) ** 2)
    return max(0.0, min(1.0, 2.0 * total))
