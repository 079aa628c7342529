"""Grid phase: regenerate the fig09 cell grid through the experiments layer.

The untraced pass calls ``fig09_write_reduction_t.run`` with the cells
fanned out over worker processes.  The traced pass replays every cell
in-process through ``run_approx_refine`` / ``run_precise_baseline`` and
requires each replayed row to equal the table's row exactly.
"""

from __future__ import annotations

import math
import statistics
import time

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.experiments import fig09_write_reduction_t as fig09
from repro.memory.config import MLCParams
from repro.memory.factories import PCMMemoryFactory
from repro.memory.stats import write_reduction
from repro.workloads.generators import uniform_keys

T_VALUES = (0.040, 0.045, 0.050, 0.055, 0.060, 0.065, 0.070)
FAMILIES = ("lsd", "msd", "quicksort", "mergesort")


def family(algorithm: str) -> str:
    return algorithm.rstrip("0123456789")


def run_grid(tier: str, seed: int, jobs: int):
    """One untraced grid regeneration: (seconds, table)."""
    t0 = time.perf_counter()
    table = fig09.run(scale=tier, seed=seed, t_values=list(T_VALUES), jobs=jobs)
    return time.perf_counter() - t0, table


def check_table(table, n: int) -> dict:
    """Gate: one finite row per (T, algorithm) cell at size ``n``; a bad
    table fails every cell."""
    expected = [(t, a) for t in T_VALUES for a in fig09.ALGORITHMS]
    ok = (
        [(row[0], row[1]) for row in table.rows] == expected
        and any(f"n={n}" in note for note in table.notes)
        and all(math.isfinite(v) for row in table.rows for v in row[2:])
    )
    return {"attempted": len(expected), "failed": 0 if ok else len(expected)}


def replay(table, n: int, fit: int, seed: int, rec, cells=None) -> dict:
    """Replay grid cells through the core entry points.

    Each replayed result must be exactly sorted and reproduce the table's
    row bit for bit.  ``cells`` selects row indices (default: all).
    """
    keys = uniform_keys(n, seed=seed)
    expected = sorted(keys)
    rows = table.rows if cells is None else [table.rows[i] for i in cells]
    attempted = failed = 0
    baselines = {}
    with rec.span("experiments.baselines"):
        for algorithm in dict.fromkeys(row[1] for row in rows):
            result = run_precise_baseline(keys, algorithm)
            attempted += 1
            failed += result.final_keys != expected
            baselines[algorithm] = result.total_units
    for row in rows:
        t, algorithm = row[0], row[1]
        with rec.span("experiments.cell", t=t, algorithm=algorithm):
            with rec.span("experiments.factory"):
                memory = PCMMemoryFactory(MLCParams(t=t), fit_samples=fit)
            with rec.span("core.approx_refine"):
                result = run_approx_refine(keys, algorithm, memory, seed=seed)
        attempted += 1
        replayed = [
            t, algorithm,
            write_reduction(baselines[algorithm], result.total_units),
            result.rem_tilde / n, memory.p_ratio,
        ]
        ids_ok = [keys[i] for i in result.final_ids] == result.final_keys
        failed += not (
            result.final_keys == expected and ids_ok and replayed == row
        )
    return {"attempted": attempted, "failed": failed}


def layer_metrics(rec, grid_s: float, jobs: int) -> dict:
    """Per-layer experiments figures from a full traced replay."""
    cells = rec.find("experiments.cell")
    by_family = {f: [] for f in FAMILIES}
    for cell in cells:
        by_family[family(cell["attrs"]["algorithm"])].append(
            rec.duration(cell)
        )
    metrics = {}
    for name, times in by_family.items():
        metrics[f"experiments.cell_s.{name}"] = statistics.median(times)
        metrics[f"experiments.busy_s.{name}"] = sum(times)
    busy = sum(rec.duration(c) for c in cells)
    metrics["experiments.util"] = busy / (grid_s * jobs)
    metrics["experiments.factory_s"] = sum(
        rec.duration(s) for s in rec.find("experiments.factory")
    )
    metrics["experiments.baseline_s"] = sum(
        rec.duration(s) for s in rec.find("experiments.baselines")
    )
    return metrics
