"""Intra-sort parallelism: sharded sorting over shared memory.

Public surface:

* :class:`~repro.parallel.sharded.ShardedSorter` — key-range sharding
  wrapper around any registry sorter (partition → per-shard sorts in a
  persistent fork pool over ``multiprocessing.shared_memory`` → stats
  reduction → write-combined merge).
* :mod:`~repro.parallel.pool` — the persistent fork worker pool.

Spec strings understood by :func:`repro.sorting.make_sorter`:
``"sharded:<base>"`` and ``"sharded:<base>:<shards>"``; the
``REPRO_SHARDS`` environment variable (set by ``runner.py --shards``)
wraps every plain registry sorter the same way.
"""

from .pool import WorkerPool, fork_available, get_pool, shutdown_pools
from .sharded import SHARD_WORKERS_ENV, ShardedSorter

__all__ = [
    "SHARD_WORKERS_ENV",
    "ShardedSorter",
    "WorkerPool",
    "fork_available",
    "get_pool",
    "shutdown_pools",
]
