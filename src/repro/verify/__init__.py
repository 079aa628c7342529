"""Runtime verification: sanitizer, differential oracle, and fuzzer.

Three layers, all opt-in and observation-only (DESIGN.md section 11):

* :mod:`repro.verify.sanitizer` — :class:`SanitizedArray`, a proxy around
  any :class:`repro.memory.approx_array.InstrumentedArray` that maintains a
  precise shadow copy and checks bounds, word-range, accounting-delta and
  divergence invariants on every operation.  Enabled per process with
  the execution config's ``sanitize`` field (``--sanitize`` or
  ``REPRO_SANITIZE=1``; the pipelines wrap their arrays through
  :func:`maybe_sanitize`) or directly via :func:`sanitize`.
* :mod:`repro.verify.oracle` — differential equivalence classes running one
  ``(sorter, workload, memory, seed)`` case through independently built
  execution paths that must agree (scalar/numpy kernels, traced/untraced,
  resumed/uninterrupted), reporting the first divergent element.
* :mod:`repro.verify.fuzz` — seeded random case generation over the oracle
  with shrinking and replayable case files; ``python -m repro.verify fuzz``.
"""

from __future__ import annotations

from repro.execution import SANITIZE_ENV, current

from .sanitizer import SanitizedArray, checks_performed, sanitize


def sanitizing() -> bool:
    """Whether the execution config asks for sanitized runs.

    Checked only at array-creation sites — a handful per pipeline run —
    never in access paths, so the disabled path has structurally zero
    per-operation overhead.
    """
    return current().sanitize


def maybe_sanitize(array):
    """Wrap ``array`` in a :class:`SanitizedArray` iff sanitizing is on."""
    return sanitize(array) if sanitizing() else array


__all__ = [
    "SANITIZE_ENV",
    "SanitizedArray",
    "checks_performed",
    "maybe_sanitize",
    "sanitize",
    "sanitizing",
]
