#!/usr/bin/env python3
"""The repository benchmark: bulk approx-refine, the fig09 grid, mixed serving.

Run from the repository root::

    python3 perfbench/run.py --workload large --seed 1 --seconds 38 --trace 0

Runs measure three phases against the public entry points of the
program in ``src/repro``, with keys generated here from ``--seed``:

* **bulk** — ``run_precise_baseline`` (lsd6, mergesort) and
  ``run_approx_refine`` (lsd6, mergesort, ``sharded:lsd6:2``), one sort
  at a time, repeated for its share of ``--seconds``;
* **grid** — ``fig09_write_reduction_t.run`` over 10 algorithms x 7 T
  values with the cells fanned out over 2 worker processes;
* **serve** — ``python -m repro.serve serve`` in its own process, fed
  open-loop at the reference rate and then up a rate ladder.

``--workload`` sets the sizes (see ``WORKLOADS``).  ``--trace 0`` runs
bulk and grid and prints the end-to-end metrics; ``--trace 1`` runs the
traced pass of all three phases and prints the per-layer metrics, the
served latencies and capacity among them (see README.md for why they
are not end-to-end metrics).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a human summary goes
to standard error and a stamped record to ``.perfbench_out/``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from interpreter hand-off

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Sizes per workload.  ``smoke`` is the self-test's tiny configuration.
WORKLOADS = {
    "large": {"bulk_n": 1 << 17, "write_reps": 1, "grid_tier": "default",
              "grid_n": 16_000, "grid_fit": 100_000, "serve_large_n": 16_384},
    "small": {"bulk_n": 1 << 14, "write_reps": 8, "grid_tier": "smoke",
              "grid_n": 1_200, "grid_fit": 20_000, "serve_large_n": 2_048},
    "smoke": {"bulk_n": 1 << 11, "write_reps": 2, "grid_tier": "smoke",
              "grid_n": 1_200, "grid_fit": 20_000, "serve_large_n": 1_024},
}
T = 0.055
FIT_SAMPLES = 100_000  # the library default, used by bulk and serve
SHARDS = 2
JOBS = 2
KERNELS = "numpy"
#: Shares of ``--seconds`` per measured phase; bulk and grid run in the
#: untraced pass, serve in the traced one.
SHARE = {"bulk": 0.55, "grid": 0.30, "serve_reference": 0.36,
         "serve_step": 0.06}
SETUP_SAMPLES = 3
#: Grid rows replayed through the core layer in an untraced run.
SPOT_CELLS = 2

END_TO_END = (
    "setup_s",
    "refine_s.lsd6", "refine_s.mergesort", "refine_s.lsd6-sharded",
    "precise_s.lsd6", "precise_s.mergesort",
    "write_ratio.lsd6", "write_ratio.mergesort", "write_ratio.lsd6-sharded",
    "grid_s", "write_reduction.peak",
)


def unit_of(name: str) -> str:
    """Unit of a metric, from its naming convention."""
    if name.endswith("slo_rps"):
        return "1/s"
    if name == "parallel.speedup":
        return "x"
    if ".ns_per_word." in name:
        return "ns"
    if "_ms" in name:
        return "ms"
    if any(part.endswith("_s") for part in name.split(".")[:2]):
        return "s"
    if ".tepmw." in name:
        return "writes"
    if any(part in name for part in (
        ".words.", "_writes.", ".drains", ".refused", ".batch_jobs.",
    )):
        return "count"
    return "ratio"


def reset_env(cache_dir: Path) -> None:
    """One explicit configuration: drop every inherited ``REPRO_*`` setting
    and point the model cache at an empty benchmark-owned directory."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    os.environ["REPRO_MODEL_CACHE_DIR"] = str(cache_dir)
    os.environ["REPRO_KERNELS"] = KERNELS


def setup(cfg: dict, workdir: Path):
    """Import, fit every model into the empty cache, start pool and server.

    Returns ``(memory, server, setup_s)``; ``setup_s`` runs from
    interpreter hand-off to the point the first timed call may start.
    """
    import grid
    import serving
    from repro.memory.config import MLCParams
    from repro.memory.factories import PCMMemoryFactory
    from repro.parallel import get_pool
    from repro.serve.tenants import DEFAULT_PROFILES, TenantRegistry

    memory = PCMMemoryFactory(MLCParams(t=T), fit_samples=FIT_SAMPLES)
    for t in grid.T_VALUES:
        PCMMemoryFactory(MLCParams(t=t), fit_samples=cfg["grid_fit"])
    TenantRegistry(DEFAULT_PROFILES).warm()
    workers = min(SHARDS, os.cpu_count() or 1)
    if workers >= 2:
        get_pool(workers)
    env = serving.server_env(SRC, Path(os.environ["REPRO_MODEL_CACHE_DIR"]))
    server = serving.ServerProcess(ROOT, workdir, env)
    server.wait_ready()
    return memory, server, time.perf_counter() - _T0


def host_scale(metrics: dict, scale: float) -> None:
    """Turn the traced pass's compute timings (bulk and grid phases: units
    s and ns) into reference-host units.  The serve and batch latencies
    (ms) stay in host units: the event loop does not track the probe (see
    ``hostspeed``)."""
    for name in metrics:
        if unit_of(name) in ("s", "ns") and name != "setup_s":
            metrics[name] *= scale


def probe_setup(workload: str) -> float:
    """Time one more complete set-up in a fresh process and cache."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--probe-setup",
         "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def host_stamp() -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "platform": platform.platform(),
    }


def tally(result: dict, part: dict) -> None:
    """Add a phase's operation counts to the run's."""
    result["attempted"] += part["attempted"]
    result["failed"] += part["failed"]


def measure(cfg: dict, seed: int, seconds: float, memory, server,
            speed) -> dict:
    """The untraced pass: every end-to-end metric except ``setup_s``.

    Bulk and grid times are in reference-host seconds, each timed stretch
    scaled by the ``speed`` probes on either side of it; their host-unit
    medians go to ``samples["host_metrics"]``.  The idle server is shut
    down.
    """
    import bulk
    import grid
    from tracing import SpanRecorder

    result = {"metrics": {}, "samples": {}, "attempted": 0, "failed": 0}
    out = bulk.run_bulk(cfg["bulk_n"], seed, memory, SHARE["bulk"] * seconds,
                        cfg["write_reps"], speed)
    tally(result, out)
    host = result["samples"]["host_metrics"] = {}
    for name, values in out["times"].items():
        result["metrics"][name] = statistics.median(values)
        host[name] = statistics.median(out["raw_times"][name])
    result["metrics"].update(out["ratios"])
    result["samples"]["bulk_reps"] = out["reps"]
    result["samples"]["bulk_calls"] = out["raw_times"]

    grid_times = []
    raw_grid = []
    grid_edges = []
    first_table = None
    start = time.perf_counter()
    while not raw_grid or (
        time.perf_counter() - start + raw_grid[-1] <= SHARE["grid"] * seconds
    ):
        before = speed.settled_probe()
        grid_s, table = grid.run_grid(cfg["grid_tier"], seed, JOBS)
        after = speed.settled_probe()
        raw_grid.append(grid_s)
        grid_times.append(grid_s * speed.scale_between(before, after))
        grid_edges.append((before, after))
        tally(result, grid.check_table(table, cfg["grid_n"]))
        if first_table is None:
            first_table = table
        elif table.rows != first_table.rows:
            result["failed"] += 1
    cells = sorted(
        random.Random(seed).sample(range(len(first_table.rows)), SPOT_CELLS)
    )
    tally(result, grid.replay(first_table, cfg["grid_n"], cfg["grid_fit"],
                              seed, SpanRecorder("grid-spot"), cells=cells))
    result["metrics"]["grid_s"] = statistics.median(grid_times)
    host["grid_s"] = statistics.median(raw_grid)
    result["metrics"]["write_reduction.peak"] = max(
        first_table.column("write_reduction")
    )
    result["samples"]["grid_s"] = raw_grid
    result["samples"]["grid_probes"] = grid_edges
    server.proc.terminate()
    result["failed"] += server.wait_exit() != 0
    result["valid"] = True
    return result


def measure_traced(cfg: dict, seed: int, seconds: float, memory, server,
                   speed, rec) -> dict:
    """The traced pass: every per-layer metric."""
    import bulk
    import grid
    import serving

    result = {"metrics": {}, "samples": {}, "attempted": 0, "failed": 0}
    out = bulk.run_traced(cfg["bulk_n"], seed, memory, rec, speed)
    tally(result, out)
    result["metrics"].update(out["metrics"])

    speed.probe()
    grid_s, table = grid.run_grid(cfg["grid_tier"], seed, JOBS)
    speed.probe()
    tally(result, grid.check_table(table, cfg["grid_n"]))
    tally(result, grid.replay(table, cfg["grid_n"], cfg["grid_fit"], seed, rec))
    result["metrics"].update(grid.layer_metrics(rec, grid_s, JOBS))

    served = serving.summarize(serving.run_serve(
        server, seed, cfg["serve_large_n"],
        reference_s=SHARE["serve_reference"] * seconds,
        step_s=SHARE["serve_step"] * seconds, ladder=True, speed=speed,
    ))
    tally(result, served)
    result["metrics"].update(served["layer"])
    groups = serving.replay_groups(served["group_sizes"], seed, rec)
    tally(result, groups)
    result["metrics"].update(groups["metrics"])
    result["samples"]["host_metrics"] = dict(result["metrics"])
    host_scale(result["metrics"], speed.scale())
    result["samples"]["serve"] = served["samples"]
    result["valid"] = served["valid"]
    return result


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds, so the server and pool stop


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cfg = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    cache_dir = workdir / "model-cache"
    reset_env(cache_dir)
    server = None
    try:
        memory, server, setup_s = setup(cfg, workdir)
        from hostspeed import REFERENCE_S, HostSpeed

        speed = HostSpeed()
        # Reference-host seconds, like the other timings: the model fits
        # are compute-bound and track the probe.
        setup_s *= REFERENCE_S / speed.settled_probe()
        if args.probe_setup:
            server.proc.terminate()
            server.wait_exit()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        cache_files = len(list(cache_dir.iterdir()))
        from tracing import SpanRecorder

        if args.trace:
            rec = SpanRecorder(f"{args.workload}-s{args.seed}")
            result = measure_traced(cfg, args.seed, args.seconds, memory,
                                    server, speed, rec)
            rec.write(OUT / f"spans-{args.workload}-s{args.seed}.jsonl")
        else:
            result = measure(cfg, args.seed, args.seconds, memory, server,
                             speed)
        server = None  # both passes shut it down and reaped it
        from repro.parallel import shutdown_pools

        shutdown_pools()
        if not args.trace:
            setups = [setup_s] + [
                probe_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)
            ]
            result["metrics"]["setup_s"] = statistics.median(setups)
            result["samples"]["setup_s"] = setups
        result["samples"]["host_probes"] = speed.probes
    finally:
        if server is not None:
            server.kill()
        if "repro.parallel" in sys.modules:
            sys.modules["repro.parallel"].shutdown_pools()
        shutil.rmtree(workdir, ignore_errors=True)

    names = END_TO_END if not args.trace else sorted(result["metrics"])
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit_of(name)}
        for name in names
    }
    correct = result["failed"] == 0 and result["valid"]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": host_stamp(),
        "settings": {
            "kernels": KERNELS, "t": T, "fit_samples": FIT_SAMPLES,
            "grid_fit_samples": cfg["grid_fit"], "shards": SHARDS,
            "jobs": JOBS, "sizes": cfg,
            "model_cache": {"empty_at_start": True,
                            "files_after_setup": cache_files},
        },
        "valid": result["valid"], "samples": result["samples"],
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:>16.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    from reaper import become_subreaper, stop_children

    become_subreaper()
    try:
        code = main()
    finally:
        stop_children()  # every path out: no process of the run survives it
    sys.exit(code)
