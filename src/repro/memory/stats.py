"""Access accounting shared by the precise and approximate memory arrays.

The paper's primary metric is *total memory write latency* (TMWL) and its
normalized cousin TEPMW ("total equivalent precise memory writes",
Section 4.3): one precise write counts 1.0, one approximate write counts
``p(t)`` — the ratio of P&V iterations it needed relative to a precise write.

:class:`MemoryStats` accumulates both, plus raw operation counts and energy
(used by the spintronic model of Appendix A where the unit of account is
write energy rather than write latency).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PRECISE_WRITE_LATENCY_NS, READ_LATENCY_NS


@dataclass
class MemoryStats:
    """Mutable accumulator of memory-access counts and costs.

    Attributes
    ----------
    precise_reads, precise_writes:
        Operation counts against the precise region.
    approx_reads, approx_writes:
        Operation counts against the approximate region.
    approx_write_units:
        Sum over approximate writes of their cost in *precise-write
        equivalents* (``p(t)`` units for PCM, ``1 - energy_saving`` for the
        spintronic model).
    corrupted_writes:
        Number of approximate writes whose stored value deviated from the
        value written.
    """

    precise_reads: int = 0
    precise_writes: int = 0
    approx_reads: int = 0
    approx_writes: int = 0
    approx_write_units: float = 0.0
    corrupted_writes: int = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record_precise_read(self, count: int = 1) -> None:
        self.precise_reads += count

    def record_precise_write(self, count: int = 1) -> None:
        self.precise_writes += count

    def record_approx_read(self, count: int = 1) -> None:
        self.approx_reads += count

    def record_approx_write(self, units: float, corrupted: bool = False) -> None:
        self.approx_writes += 1
        self.approx_write_units += units
        if corrupted:
            self.corrupted_writes += 1

    def record_approx_write_block(
        self, count: int, units: float, corrupted: int = 0
    ) -> None:
        self.approx_writes += count
        self.approx_write_units += units
        self.corrupted_writes += corrupted

    def record_approx_write_blocks(self, count: int, units: np.ndarray) -> None:
        """Record clean block writes, ``count`` words in all.

        ``units`` holds each block's cost in write order; they are added
        one at a time (``np.add.accumulate`` is sequential), so the total
        is bit-identical to one :meth:`record_approx_write_block` call per
        block.
        """
        self.approx_writes += count
        if units.size:
            running = np.empty(units.size + 1)
            running[0] = self.approx_write_units
            running[1:] = units
            self.approx_write_units = float(np.add.accumulate(running)[-1])

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #

    @property
    def total_writes(self) -> int:
        """Raw count of write operations, both regions."""
        return self.precise_writes + self.approx_writes

    @property
    def total_reads(self) -> int:
        """Raw count of read operations, both regions."""
        return self.precise_reads + self.approx_reads

    @property
    def equivalent_precise_writes(self) -> float:
        """TEPMW: precise writes plus cost-weighted approximate writes."""
        return self.precise_writes + self.approx_write_units

    @property
    def write_latency_ns(self) -> float:
        """TMWL under the constant-precise-write-latency model (Section 4.3)."""
        return self.equivalent_precise_writes * PRECISE_WRITE_LATENCY_NS

    @property
    def read_latency_ns(self) -> float:
        """Total read latency (reads are precise in both models)."""
        return self.total_reads * READ_LATENCY_NS

    # ------------------------------------------------------------------ #
    # Composition
    # ------------------------------------------------------------------ #

    def merge(self, other: "MemoryStats") -> "MemoryStats":
        """Accumulate ``other`` into ``self`` and return ``self``."""
        self.precise_reads += other.precise_reads
        self.precise_writes += other.precise_writes
        self.approx_reads += other.approx_reads
        self.approx_writes += other.approx_writes
        self.approx_write_units += other.approx_write_units
        self.corrupted_writes += other.corrupted_writes
        return self

    def as_dict(self) -> dict:
        """Plain-dict view of the counters (exact, JSON-serializable).

        The canonical form for bit-identity comparisons (the differential
        oracle of :mod:`repro.verify`) and for persisted records.
        """
        return {
            "precise_reads": self.precise_reads,
            "precise_writes": self.precise_writes,
            "approx_reads": self.approx_reads,
            "approx_writes": self.approx_writes,
            "approx_write_units": self.approx_write_units,
            "corrupted_writes": self.corrupted_writes,
        }

    def snapshot(self) -> "MemoryStats":
        """Return an independent copy of the current counters."""
        return MemoryStats(
            precise_reads=self.precise_reads,
            precise_writes=self.precise_writes,
            approx_reads=self.approx_reads,
            approx_writes=self.approx_writes,
            approx_write_units=self.approx_write_units,
            corrupted_writes=self.corrupted_writes,
        )

    def delta_since(self, earlier: "MemoryStats") -> "MemoryStats":
        """Counters accumulated since ``earlier`` (a prior :meth:`snapshot`)."""
        return MemoryStats(
            precise_reads=self.precise_reads - earlier.precise_reads,
            precise_writes=self.precise_writes - earlier.precise_writes,
            approx_reads=self.approx_reads - earlier.approx_reads,
            approx_writes=self.approx_writes - earlier.approx_writes,
            approx_write_units=self.approx_write_units - earlier.approx_write_units,
            corrupted_writes=self.corrupted_writes - earlier.corrupted_writes,
        )


def write_reduction(baseline: float, candidate: float) -> float:
    """The paper's write-reduction metric (Equations 1 and 2).

    ``1 - candidate / baseline`` where both sides are TEPMW or TMWL values;
    positive means the candidate saved writes, negative means it cost more.
    """
    if baseline <= 0:
        raise ValueError("baseline cost must be positive")
    return 1.0 - candidate / baseline
