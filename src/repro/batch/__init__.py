"""The batch engine (DESIGN.md section 13, docs/batching.md).

Groups many small independent sort/refine jobs by execution config, runs
each through the one approx-refine pipeline, and reports every group as
one unit: ``batch.*`` metrics and a ``batch.run`` span whose per-job
``batch.segment`` children tile it exactly.
"""

from .engine import BatchJob, run_batch, run_job_group, tiled_aggregate

__all__ = [
    "BatchJob",
    "run_batch",
    "run_job_group",
    "tiled_aggregate",
]
