"""Bulk phase: one approx-refine sort at a time of n uniform 32-bit keys.

Each repetition runs the precise baseline (``run_precise_baseline``) for
lsd6 and mergesort, then ``run_approx_refine`` for lsd6, mergesort and
``sharded:lsd6:2`` on the same keys.  The traced pass re-runs
``run_approx_refine`` decomposed into its public calls, each under a
span, with the error model behind a timing proxy, and checks that the
decomposition is bit-identical to the direct call.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.core.refine import find_rem_ids, merge_refined, sort_rem_ids
from repro.memory.approx_array import PreciseArray
from repro.memory.stats import MemoryStats
from repro.metrics.sortedness import rem_ratio
from repro.sorting.registry import make_sorter

KERNELS = "numpy"

#: (metric label, sorter spec, precise baseline it is compared against).
#: A label ending in ``-sharded`` runs on every CPU.
SORTERS = (
    ("lsd6", "lsd6", "lsd6"),
    ("mergesort", "mergesort", "mergesort"),
    ("lsd6-sharded", "sharded:lsd6:2", "lsd6"),
)
PRECISE = ("lsd6", "mergesort")


def make_keys(seed: int, rep: int, n: int) -> list[int]:
    """Uniform 32-bit keys of repetition ``rep``, derived from ``seed``."""
    rng = np.random.default_rng([seed, rep, 0xB01C])
    return rng.integers(0, 2**32, n, dtype=np.uint64).tolist()


def corruption_seed(seed: int, rep: int) -> int:
    return seed * 7919 + rep


def output_ok(keys, expected: np.ndarray, final_keys, final_ids) -> bool:
    """``final_keys == sorted(keys)`` and ``final_ids`` maps back to them."""
    out = np.asarray(final_keys, dtype=np.uint64)
    ids = np.asarray(final_ids, dtype=np.int64)
    if out.shape != expected.shape or ids.shape != expected.shape:
        return False
    if not np.array_equal(out, expected):
        return False
    if not np.array_equal(np.sort(ids), np.arange(len(ids))):
        return False
    return bool(np.array_equal(np.asarray(keys, dtype=np.uint64)[ids], out))


def run_bulk(n: int, seed: int, memory, share_s: float, write_reps: int,
             speed) -> dict:
    """Untraced repetitions until ``share_s`` would be exceeded.

    Runs at least ``write_reps`` repetitions and probes ``speed`` (a
    :class:`hostspeed.HostSpeed`) between calls.  Returns per-call times
    in reference-host seconds (each call scaled by the probes just before
    and after it: of its own CPU, or of every CPU around a sharded call)
    and in host seconds (``raw_times``), the write ratios summed over the
    first ``write_reps`` repetitions (so they depend on the seed only) and
    operation counts.
    """
    times = {f"precise_s.{alg}": [] for alg in PRECISE}
    times.update({f"refine_s.{label}": [] for label, _, _ in SORTERS})
    raw_times = {name: [] for name in times}
    units = {label: [0.0, 0.0] for label, _, _ in SORTERS}
    attempted = failed = 0
    start = time.perf_counter()
    rep = 0
    last = 0.0

    def probe(name: str) -> float:
        if name.endswith("-sharded"):
            return speed.probe()
        return speed.quick_probe()

    def record(name: str, t0: float, before: float) -> None:
        """Time since ``t0``, scaled by ``before`` and a probe after it."""
        seconds = time.perf_counter() - t0
        raw_times[name].append(seconds)
        times[name].append(
            seconds * speed.scale_between(before, probe(name))
        )

    while rep < write_reps or (time.perf_counter() - start) + last <= share_s:
        rep_start = time.perf_counter()
        keys = make_keys(seed, rep, n)
        expected = np.sort(np.asarray(keys, dtype=np.uint64))
        baselines = {}
        for alg in PRECISE:
            before = probe(alg)
            t0 = time.perf_counter()
            result = run_precise_baseline(keys, alg, kernels=KERNELS)
            record(f"precise_s.{alg}", t0, before)
            attempted += 1
            failed += not output_ok(
                keys, expected, result.final_keys, result.final_ids
            )
            baselines[alg] = result.total_units
        for label, spec, base in SORTERS:
            before = probe(label)
            t0 = time.perf_counter()
            result = run_approx_refine(
                keys, spec, memory, seed=corruption_seed(seed, rep),
                kernels=KERNELS,
            )
            record(f"refine_s.{label}", t0, before)
            attempted += 1
            failed += not output_ok(
                keys, expected, result.final_keys, result.final_ids
            )
            if rep < write_reps:
                units[label][0] += result.total_units
                units[label][1] += baselines[base]
        last = time.perf_counter() - rep_start
        rep += 1
    ratios = {
        f"write_ratio.{label}": approx / precise
        for label, (approx, precise) in units.items()
    }
    return {
        "times": times, "raw_times": raw_times, "ratios": ratios, "reps": rep,
        "attempted": attempted, "failed": failed,
    }


class TimedModel:
    """Timing proxy over a ``WordErrorModel``.

    Times every sampling/cost entry point the approximate arrays call and
    counts the words sampled.  Pickles as the bare model, so shard workers
    of a sharded sort get the real model: only parent-side calls are timed.
    """

    def __init__(self, model) -> None:
        self._model = model
        self.seconds = 0.0
        self.words = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def __reduce__(self):
        return (_unwrap, (self._model,))

    def block_cost_and_no_error(self, values):
        t0 = time.perf_counter()
        out = self._model.block_cost_and_no_error(values)
        self.seconds += time.perf_counter() - t0
        return out

    def corrupt_block(self, values, rng, p_ok=None):
        t0 = time.perf_counter()
        out = self._model.corrupt_block(values, rng, p_ok=p_ok)
        self.seconds += time.perf_counter() - t0
        self.words += len(values)
        return out

    def word_write_cost(self, value):
        t0 = time.perf_counter()
        out = self._model.word_write_cost(value)
        self.seconds += time.perf_counter() - t0
        return out

    def corrupt_word_given_u(self, value, u, rng):
        t0 = time.perf_counter()
        out = self._model.corrupt_word_given_u(value, u, rng)
        self.seconds += time.perf_counter() - t0
        self.words += 1
        return out


def _unwrap(model):
    return model


def refine_decomposed(keys, spec: str, memory, seed: int, rec):
    """``run_approx_refine`` as its public calls, one span per layer call.

    Mirrors ``repro.core.approx_refine.run_approx_refine`` step for step
    (tracer, sanitizer and pcmsim trace hooks off), so keys, ids,
    ``MemoryStats`` and Rem~ must equal the direct call's.
    """
    algorithm = make_sorter(spec, kernels=KERNELS)
    n = len(keys)
    stats = MemoryStats()
    with rec.span("core.approx_refine", sorter=spec, n=n) as root:
        key0 = PreciseArray(keys, stats=stats, name="Key0")
        ids = PreciseArray(range(n), stats=stats, name="ID")
        with rec.span("approx_array.load"):
            approx_keys = memory.make_array([0] * n, stats=stats, seed=seed)
            model = approx_keys.model = TimedModel(approx_keys.model)
            approx_keys.load_from(key0)
        with rec.span("sorting.sort"):
            algorithm.sort(approx_keys, ids)
        with rec.span("sortedness.rem"):
            approx_rem = rem_ratio(approx_keys.to_list())
        before_refine = stats.total_writes
        with rec.span("core.find_rem"):
            rem_ids = find_rem_ids(ids, key0, kernels=KERNELS)
        with rec.span("core.sort_rem"):
            sorted_rem_ids = sort_rem_ids(
                rem_ids, key0, algorithm, stats, kernels=KERNELS
            )
        with rec.span("core.merge"):
            final_keys = PreciseArray([0] * n, stats=stats, name="finalKey")
            final_ids = PreciseArray([0] * n, stats=stats, name="finalID")
            merge_refined(
                ids, key0, sorted_rem_ids, final_keys, final_ids,
                kernels=KERNELS,
            )
        refine_writes = stats.total_writes - before_refine
        out_keys = final_keys.to_list()
        out_ids = final_ids.to_list()
    return {
        "keys": out_keys, "ids": out_ids, "stats": stats,
        "rem_tilde": len(rem_ids), "approx_rem": approx_rem,
        "model": model, "root": root, "refine_writes": refine_writes,
    }


def run_traced(n: int, seed: int, memory, rec, speed) -> dict:
    """Direct call vs traced decomposition of repetition 0, per sorter.

    ``speed`` probes the host before each sorter's pair of calls.
    """
    keys = make_keys(seed, 0, n)
    expected = np.sort(np.asarray(keys, dtype=np.uint64))
    metrics: dict[str, float] = {}
    attempted = failed = 0
    sort_s = {}
    for label, spec, _ in SORTERS:
        speed.probe()
        cseed = corruption_seed(seed, 0)
        t0 = time.perf_counter()
        direct = run_approx_refine(
            keys, spec, memory, seed=cseed, kernels=KERNELS
        )
        direct_s = time.perf_counter() - t0
        parts = refine_decomposed(keys, spec, memory, cseed, rec)
        attempted += 2
        failed += not output_ok(
            keys, expected, direct.final_keys, direct.final_ids
        )
        identical = (
            parts["keys"] == direct.final_keys
            and parts["ids"] == direct.final_ids
            and parts["stats"].as_dict() == direct.stats.as_dict()
            and parts["rem_tilde"] == direct.rem_tilde
            and parts["approx_rem"] == direct.approx_rem_ratio
        )
        failed += not identical
        root = parts["root"]
        stats = parts["stats"]
        model = parts["model"]

        def child(name: str) -> float:
            (span,) = [s for s in rec.children(root) if s["name"] == name]
            return rec.duration(span)

        sort_s[label] = child("sorting.sort")
        metrics.update({
            f"error_model.self_s.{label}": model.seconds,
            f"error_model.words.{label}": model.words,
            f"error_model.ns_per_word.{label}": (
                model.seconds / model.words * 1e9 if model.words else 0.0
            ),
            f"approx_array.load_s.{label}": child("approx_array.load"),
            f"approx_array.approx_writes.{label}": stats.approx_writes,
            f"approx_array.corrupted_writes.{label}": stats.corrupted_writes,
            f"approx_array.corrupt_frac.{label}": (
                stats.corrupted_writes / stats.approx_writes
            ),
            f"approx_array.tepmw.{label}": stats.equivalent_precise_writes,
            f"sorting.sort_s.{label}": sort_s[label],
            f"sorting.rem_ratio.{label}": parts["approx_rem"],
            f"sortedness.rem_s.{label}": child("sortedness.rem"),
            f"core.find_rem_s.{label}": child("core.find_rem"),
            f"core.sort_rem_s.{label}": child("core.sort_rem"),
            f"core.merge_s.{label}": child("core.merge"),
            f"core.rem_tilde_frac.{label}": parts["rem_tilde"] / n,
            f"core.refine_writes.{label}": parts["refine_writes"],
            f"core.glue_s.{label}": rec.self_time(root),
            f"trace.overhead_s.{label}": rec.duration(root) - direct_s,
        })
    metrics["parallel.speedup"] = sort_s["lsd6"] / sort_s["lsd6-sharded"]
    return {"metrics": metrics, "attempted": attempted, "failed": failed}
