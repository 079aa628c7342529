"""Differential fuzzer over the oracle: seeded drawing, shrinking, replay.

The fuzzer feeds the equivalence classes of :mod:`repro.verify.oracle` a
stream of configurations until a time budget runs out:

1. a deterministic **edge corpus** first — ``n = 0``, ``n = 1``, all-equal
   keys, and max-word keys for every registered sorter;
2. then seeded random draws across algorithm × workload × n × T × seed.

Every case runs with the sanitizer enabled (the execution config's
``sanitize`` forced on for the duration), so each fuzz iteration
exercises both the differential and the per-operation invariants.  A
failing case is shrunk by ``n`` (re-running the failing classes at
smaller sizes, keeping the smallest still-failing configuration) and
persisted as a replayable JSON file under ``.repro_fuzz/``; ``python -m
repro.verify fuzz --replay <file>`` re-runs it verbatim.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from random import Random
from typing import Optional

from repro.execution import current, use
from repro.sorting.registry import available_sorters
from repro.workloads.generators import GENERATORS

from .oracle import (
    CaseResult,
    OracleCase,
    T_CHOICES,
    resolve_classes,
    run_case,
)

#: Schema stamp of persisted fuzz-case files.
CASE_SCHEMA = 1

#: Default directory for failing-case files (repo-root relative).
DEFAULT_CASE_DIR = ".repro_fuzz"

#: Shrinking re-tries the failing classes at these fractions of n.
SHRINK_LADDER = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75)

#: Edge-corpus sizes: tiny arrays stress empty/singleton handling, the
#: degenerate workloads use a size big enough for every radix pass.
EDGE_SIZES = (0, 1)
EDGE_DEGENERATE_N = 24


@dataclass
class FuzzStats:
    """Summary of one fuzz session."""

    cases_run: int = 0
    edge_cases: int = 0
    random_cases: int = 0
    elapsed_s: float = 0.0
    findings: list[dict] = field(default_factory=list)
    case_files: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def edge_corpus(
    algorithms: Optional[list[str]] = None, seed: int = 0
) -> list[OracleCase]:
    """The deterministic always-first cases: boundary sizes and key values."""
    cases = []
    for algorithm in algorithms or available_sorters():
        for n in EDGE_SIZES:
            cases.append(OracleCase(algorithm, "uniform", n=n, seed=seed))
        for workload in ("all_equal", "max_word"):
            cases.append(OracleCase(
                algorithm, workload, n=EDGE_DEGENERATE_N, seed=seed
            ))
    return cases


def draw_case(rng: Random, max_n: int, algorithms: list[str]) -> OracleCase:
    """One seeded random configuration (small sizes heavily favoured)."""
    n = rng.choice((
        rng.randrange(0, 8),
        rng.randrange(8, 64),
        rng.randrange(64, max(65, max_n + 1)),
    ))
    return OracleCase(
        algorithm=rng.choice(algorithms),
        workload=rng.choice(sorted(GENERATORS)),
        n=n,
        t=rng.choice(T_CHOICES),
        seed=rng.randrange(1 << 16),
    )


def _run_guarded(case: OracleCase, classes) -> CaseResult:
    """Run a case, converting crashes into reportable findings."""
    try:
        return run_case(case, classes=classes)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        result = CaseResult(case=case)
        result.divergences.append(_crash_divergence(exc))
        return result


def _crash_divergence(exc: Exception):
    from .oracle import Divergence

    return Divergence(
        equivalence="crash",
        field=type(exc).__name__,
        index=None,
        expected="no exception",
        actual=str(exc),
    )


def shrink(
    case: OracleCase, classes, failing: Optional[CaseResult] = None
) -> tuple[OracleCase, CaseResult]:
    """Smallest ``n`` (along a fixed ladder) that still fails the classes."""
    if failing is None:
        failing = _run_guarded(case, classes)
    if failing.passed:
        raise ValueError("shrink() requires a failing case")
    best_case, best_result = case, failing
    for fraction in SHRINK_LADDER:
        n = int(case.n * fraction)
        if n >= best_case.n:
            break
        candidate = OracleCase(
            case.algorithm, case.workload, n=n, t=case.t, seed=case.seed
        )
        result = _run_guarded(candidate, classes)
        if not result.passed:
            best_case, best_result = candidate, result
            break
    return best_case, best_result


def save_case(
    result: CaseResult, classes: list[str], directory: "str | Path"
) -> Path:
    """Persist a failing case as a replayable JSON file; returns its path."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    case = result.case
    stem = (
        f"case-{case.algorithm}-{case.workload}-n{case.n}"
        f"-t{case.t}-s{case.seed}"
    )
    path = base / f"{stem}.json"
    payload = {
        "schema": CASE_SCHEMA,
        "classes": classes,
        **result.to_json(),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def load_case(path: "str | Path") -> tuple[OracleCase, list[str]]:
    """Read a persisted case file back into a runnable configuration."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("schema") != CASE_SCHEMA:
        raise ValueError(
            f"unsupported fuzz-case schema {payload.get('schema')!r} in {path}"
        )
    return OracleCase(**payload["case"]), list(payload["classes"])


def _sanitized(enabled: bool):
    """Run under the current execution config, sanitizer forced on if asked."""
    config = current()
    return use(replace(config, sanitize=True) if enabled else config)


def run_fuzz(
    budget_s: float,
    seed: int = 0,
    classes: "str | list[str] | None" = "bit",
    max_n: int = 400,
    algorithms: Optional[list[str]] = None,
    case_dir: "str | Path" = DEFAULT_CASE_DIR,
    sanitized: bool = True,
    report=None,
) -> FuzzStats:
    """Fuzz until ``budget_s`` seconds elapse; returns the session summary.

    ``classes`` defaults to the deterministic bit-identity subset so a
    bounded CI smoke can never flake on a statistical test; pass ``"all"``
    for the full sweep.  ``report`` is an optional callable receiving one
    line per case (the CLI wires it to stdout).
    """
    class_names = resolve_classes(classes)
    names = algorithms or available_sorters()
    rng = Random(seed)
    stats = FuzzStats()
    started = time.monotonic()

    def out_of_time() -> bool:
        stats.elapsed_s = time.monotonic() - started
        return stats.elapsed_s >= budget_s

    def handle(result: CaseResult, kind: str) -> None:
        stats.cases_run += 1
        if kind == "edge":
            stats.edge_cases += 1
        else:
            stats.random_cases += 1
        if result.passed:
            return
        _, shrunk_result = shrink(result.case, class_names, failing=result)
        path = save_case(shrunk_result, class_names, case_dir)
        stats.case_files.append(str(path))
        finding = {
            "case": asdict(shrunk_result.case),
            "divergences": [d.describe() for d in shrunk_result.divergences],
            "file": str(path),
        }
        stats.findings.append(finding)
        if report is not None:
            report(
                f"FAIL {shrunk_result.case.describe()}"
                f" -> {shrunk_result.divergences[0].describe()} [{path}]"
            )

    with _sanitized(sanitized):
        for case in edge_corpus(names, seed=seed):
            if out_of_time():
                return stats
            handle(_run_guarded(case, class_names), "edge")
            if report is not None and stats.cases_run % 20 == 0:
                report(
                    f"... {stats.cases_run} cases"
                    f" ({stats.elapsed_s:.0f}s elapsed)"
                )
        while not out_of_time():
            case = draw_case(rng, max_n, names)
            handle(_run_guarded(case, class_names), "random")
            if report is not None and stats.cases_run % 20 == 0:
                report(
                    f"... {stats.cases_run} cases"
                    f" ({stats.elapsed_s:.0f}s elapsed)"
                )
    return stats


def replay(path: "str | Path", sanitized: bool = True) -> CaseResult:
    """Re-run a persisted failing case exactly as the fuzzer ran it."""
    case, class_names = load_case(path)
    with _sanitized(sanitized):
        return _run_guarded(case, class_names)
