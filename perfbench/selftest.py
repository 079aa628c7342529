#!/usr/bin/env python3
"""Smoke-sized self-test of the benchmark (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

At tiny sizes (the ``smoke`` workload, short rate steps) it checks that

* both passes print a correct result whose metrics are exactly the ones
  ``BENCHMARK.json`` names (``--trace 0``: ``end_to_end``; ``--trace 1``:
  ``per_layer``), each with its declared unit;
* the traced bulk decomposition is bit-identical to the direct
  ``run_approx_refine`` call (keys, ids, ``MemoryStats``, Rem~);
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command fails without printing a result;
* no process a run started (server, pools, resource trackers) outlives it.

Exits non-zero at the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from reaper import become_subreaper, child_pids, stop_children

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE = ["--workload", "smoke", "--seed", "3", "--seconds", "4"]


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    """One run; its orphans are re-parented here, so any new child after
    it has exited is a process the run left running."""
    before = set(child_pids())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *SMOKE, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    left = set(child_pids()) - before
    check(not left, f"--trace {trace} left processes running: {sorted(left)}")
    return proc


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, trace)
        check(proc.returncode == 0, f"--trace {trace} exited"
              f" {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"result keys {sorted(result)}")
        check(result["correct"] and result["failed"] == 0
              and result["attempted"] >= 1, f"--trace {trace} not correct")
        declared = {m["name"]: m["unit"] for m in spec[key]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        check(emitted == declared, f"--trace {trace} metrics differ from"
              f" BENCHMARK.json {key}: {sorted(set(emitted) ^ set(declared))}"
              f" units {[(k, emitted.get(k), u) for k, u in declared.items() if emitted.get(k) != u]}")
        print(f"selftest: --trace {trace} emits all {len(declared)} {key}"
              " metrics with their units", file=sys.stderr)


def check_decomposition() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    cache = ROOT / ".perfbench_out" / f"selftest-cache-{os.getpid()}"
    os.environ["REPRO_MODEL_CACHE_DIR"] = str(cache)
    try:
        import bulk
        from repro.core.approx_refine import run_approx_refine
        from repro.memory.config import MLCParams
        from repro.memory.factories import PCMMemoryFactory
        from tracing import SpanRecorder

        memory = PCMMemoryFactory(MLCParams(t=0.055), fit_samples=4_000)
        keys = bulk.make_keys(3, 0, 3_000)
        for _, spec, _ in bulk.SORTERS:
            direct = run_approx_refine(
                keys, spec, memory, seed=11, kernels=bulk.KERNELS
            )
            parts = bulk.refine_decomposed(
                keys, spec, memory, 11, SpanRecorder("selftest")
            )
            check(parts["keys"] == direct.final_keys, f"{spec}: keys differ")
            check(parts["ids"] == direct.final_ids, f"{spec}: ids differ")
            check(parts["stats"].as_dict() == direct.stats.as_dict(),
                  f"{spec}: MemoryStats differ")
            check(parts["rem_tilde"] == direct.rem_tilde,
                  f"{spec}: Rem~ differs")
        print("selftest: traced bulk decomposition is bit-identical",
              file=sys.stderr)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, 0)
        check(proc.returncode != 0, "bare directory run exited 0")
        check('"metrics"' not in proc.stdout, "bare directory printed a result")
        print("selftest: fails without the program, printing no result",
              file=sys.stderr)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    become_subreaper()
    try:
        check_decomposition()
        check_bare_directory()
        check_metrics()
    finally:
        stop_children()
    print("selftest: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
