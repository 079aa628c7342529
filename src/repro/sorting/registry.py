"""Name-based factory for the sorting algorithms.

The experiment harness and the approx-refine mechanism refer to algorithms
by the short names the paper uses in its figures: ``quicksort``,
``mergesort``, ``lsd3``–``lsd6``, ``msd3``–``msd6`` (queue buckets), and the
Appendix-B histogram variants ``hlsd3``–``hlsd6`` / ``hmsd3``–``hmsd6``.
The write-efficient family from asymmetric read/write cost theory
(DESIGN.md section 16) registers as ``wesample`` and
``wemerge4``/``wemerge8``/``wemerge16``.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError
from repro.execution import SHARDS_ENV, current  # noqa: F401 (re-export)

from .base import BaseSorter
from .insertion import InsertionSort
from .mergesort import Mergesort
from .natural_merge import NaturalMergesort
from .quicksort import Quicksort
from .radix import LSDRadixSort, MSDRadixSort
from .radix_histogram import HistogramLSDRadixSort, HistogramMSDRadixSort
from .write_efficient import WriteEfficientKWayMergesort, WriteEfficientSampleSort

#: Registered fan-ins for the write-efficient k-way mergesort
#: (``wemerge4`` ... ``wemerge16``); other fan-ins are constructed
#: directly with ``WriteEfficientKWayMergesort(k=...)``.
WEMERGE_FANINS = (4, 8, 16)

_FACTORIES: dict[str, Callable[[], BaseSorter]] = {
    "quicksort": Quicksort,
    "mergesort": Mergesort,
    "insertion": InsertionSort,
    "natural_merge": NaturalMergesort,
    "wesample": WriteEfficientSampleSort,
}
for _k in WEMERGE_FANINS:
    _FACTORIES[f"wemerge{_k}"] = (
        lambda kk: lambda: WriteEfficientKWayMergesort(k=kk)
    )(_k)
for _bits in (3, 4, 5, 6):
    _FACTORIES[f"lsd{_bits}"] = (lambda b: lambda: LSDRadixSort(bits=b))(_bits)
    _FACTORIES[f"msd{_bits}"] = (lambda b: lambda: MSDRadixSort(bits=b))(_bits)
    _FACTORIES[f"hlsd{_bits}"] = (
        lambda b: lambda: HistogramLSDRadixSort(bits=b)
    )(_bits)
    _FACTORIES[f"hmsd{_bits}"] = (
        lambda b: lambda: HistogramMSDRadixSort(bits=b)
    )(_bits)


#: Sorters whose scalar and numpy kernel paths consume the corruption RNG
#: streams identically on *approximate* memory, making whole approx-refine
#: runs bit-identical across kernel modes.  These are the per-pair/block
#: writers: their scalar path already moves keys through the same
#: ``write_block``-shaped accesses the kernels batch.  Quicksort (swap
#: scatters) and mergesort (level-grouped block writes) draw the same
#: distribution through differently-shaped sampler calls, so they agree
#: only statistically (DESIGN.md section 8).  The differential oracle in
#: :mod:`repro.verify` keys its exact-vs-statistical equivalence classes
#: off this set.
APPROX_KERNEL_EXACT = frozenset(
    name
    for name in (
        "insertion",
        "natural_merge",
        "wesample",
        *(f"wemerge{k}" for k in WEMERGE_FANINS),
        *(f"{fam}{bits}" for fam in ("lsd", "msd", "hlsd", "hmsd")
          for bits in (3, 4, 5, 6)),
    )
)


def available_sorters() -> list[str]:
    """Names accepted by :func:`make_sorter`, sorted alphabetically.

    Only base algorithm names are listed: the ``sharded:`` spec prefix and
    the execution config's shard-count wrap compose over these rather than
    extending the paper's algorithm set.
    """
    return sorted(_FACTORIES)


def make_base_sorter(name: str, **kwargs) -> BaseSorter:
    """Instantiate a plain (unsharded) sorter by its registry name.

    Keyword arguments are forwarded to the constructor (e.g.
    ``make_base_sorter("quicksort", seed=7)``).  This is the factory the
    shard pool workers rebuild from — it must never consult the
    execution config's shard count, or a worker would shard recursively.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown sorter {name!r}; available: {', '.join(available_sorters())}"
        ) from None
    if kwargs:
        # Factories for the radix family are zero-argument closures; rebuild
        # with explicit kwargs by dispatching on the class they produce.
        instance = factory()
        return type(instance)(**{**_implicit_kwargs(instance), **kwargs})
    return factory()


def make_sorter(name: str, **kwargs) -> BaseSorter:
    """Instantiate a sorter by name, honouring sharding spec and config.

    Accepts the plain registry names plus the sharded spec forms
    ``"sharded:<base>"`` (default shard count) and
    ``"sharded:<base>:<shards>"``.  When the execution config
    (:func:`repro.execution.current`) asks for >= 2 shards, plain names
    are wrapped in a :class:`~repro.parallel.sharded.ShardedSorter` too —
    experiments opt in with one setting and the oracle/sanitizer lanes
    exercise the sharded path with zero changes.
    """
    if name.startswith("sharded:"):
        from repro.parallel.sharded import ShardedSorter

        parts = name.split(":")
        if len(parts) == 2:
            base_name, shards = parts[1], None
        elif len(parts) == 3:
            base_name, shards_raw = parts[1], parts[2]
            try:
                shards = int(shards_raw)
            except ValueError:
                raise ConfigError(
                    f"bad shard count in sorter spec {name!r}"
                ) from None
        else:
            raise ConfigError(
                f"bad sharded sorter spec {name!r}; expected "
                "'sharded:<base>' or 'sharded:<base>:<shards>'"
            )
        wrapper_kwargs = {
            key: kwargs.pop(key)
            for key in ("shards", "workers", "partition", "wc_capacity", "min_n")
            if key in kwargs
        }
        if shards is not None:
            wrapper_kwargs["shards"] = shards
        kernels = kwargs.pop("kernels", None)
        return ShardedSorter(
            make_base_sorter(base_name, **kwargs),
            kernels=kernels,
            **wrapper_kwargs,
        )
    sorter = make_base_sorter(name, **kwargs)
    shards = current().shards
    if shards >= 2:
        from repro.parallel.sharded import ShardedSorter

        return ShardedSorter(sorter, shards=shards)
    return sorter


def _implicit_kwargs(instance: BaseSorter) -> dict:
    """Constructor kwargs that reproduce ``instance``'s configuration."""
    kwargs: dict = {}
    if hasattr(instance, "bits"):
        kwargs["bits"] = instance.bits
    if hasattr(instance, "seed"):
        kwargs["seed"] = instance.seed
    if hasattr(instance, "k"):
        kwargs["k"] = instance.k
    if hasattr(instance, "sample_rate"):
        kwargs["sample_rate"] = instance.sample_rate
    if hasattr(instance, "base"):
        # ShardedSorter: reproduce the wrapper around the same base sorter.
        kwargs.update(
            base=instance.base,
            shards=instance.shards,
            workers=instance.workers,
            partition=instance.partition,
            wc_capacity=instance.wc_capacity,
            min_n=instance.min_n,
        )
    if getattr(instance, "kernels", None) is not None:
        kwargs["kernels"] = instance.kernels
    return kwargs


def with_kernels(sorter: BaseSorter, kernels: "str | None") -> BaseSorter:
    """A copy of ``sorter`` configured for the given kernel mode."""
    return type(sorter)(**{**_implicit_kwargs(sorter), "kernels": kernels})
