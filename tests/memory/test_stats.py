"""Tests for MemoryStats accounting and the write-reduction metric."""

import numpy as np
import pytest

from repro.memory.config import PRECISE_WRITE_LATENCY_NS, READ_LATENCY_NS
from repro.memory.stats import MemoryStats, write_reduction


class TestRecording:
    def test_initial_state(self):
        stats = MemoryStats()
        assert stats.total_reads == 0
        assert stats.total_writes == 0
        assert stats.equivalent_precise_writes == 0.0

    def test_precise_counts(self):
        stats = MemoryStats()
        stats.record_precise_read(3)
        stats.record_precise_write(2)
        assert stats.precise_reads == 3
        assert stats.precise_writes == 2
        assert stats.equivalent_precise_writes == 2.0

    def test_approx_write_units(self):
        stats = MemoryStats()
        stats.record_approx_write(0.5)
        stats.record_approx_write(0.7, corrupted=True)
        assert stats.approx_writes == 2
        assert stats.approx_write_units == pytest.approx(1.2)
        assert stats.corrupted_writes == 1

    def test_block_recording(self):
        stats = MemoryStats()
        stats.record_approx_write_block(10, units=6.6, corrupted=2)
        assert stats.approx_writes == 10
        assert stats.approx_write_units == pytest.approx(6.6)
        assert stats.corrupted_writes == 2

    def test_ordered_blocks_add_units_one_at_a_time(self):
        """Bit-identical to one record_approx_write_block per block, in a
        case where a pairwise or reordered sum would differ."""
        units = np.array([1e16, 1.0, -1e16, 3.0, 1e-3, 2.5] * 7)
        bulk = MemoryStats(approx_write_units=0.1)
        looped = MemoryStats(approx_write_units=0.1)
        bulk.record_approx_write_blocks(99, units)
        for value in units.tolist():
            looped.record_approx_write_block(0, value)
        assert bulk.approx_write_units == looped.approx_write_units
        assert type(bulk.approx_write_units) is float
        assert bulk.approx_writes == 99 and bulk.corrupted_writes == 0
        assert bulk.approx_write_units != 0.1 + float(units.sum())

    def test_ordered_blocks_of_nothing(self):
        stats = MemoryStats(approx_write_units=0.25)
        stats.record_approx_write_blocks(0, np.zeros(0))
        assert stats.as_dict() == MemoryStats(approx_write_units=0.25).as_dict()

    def test_tepmw_mixes_regions(self):
        stats = MemoryStats()
        stats.record_precise_write(4)
        stats.record_approx_write_block(10, units=5.0)
        assert stats.equivalent_precise_writes == pytest.approx(9.0)


class TestLatencies:
    def test_write_latency(self):
        stats = MemoryStats()
        stats.record_precise_write(3)
        assert stats.write_latency_ns == pytest.approx(
            3 * PRECISE_WRITE_LATENCY_NS
        )

    def test_read_latency_counts_both_regions(self):
        stats = MemoryStats()
        stats.record_precise_read(2)
        stats.record_approx_read(3)
        assert stats.read_latency_ns == pytest.approx(5 * READ_LATENCY_NS)


class TestComposition:
    def test_merge_accumulates(self):
        a = MemoryStats(precise_writes=1, approx_writes=2, approx_write_units=1.5)
        b = MemoryStats(precise_writes=3, approx_reads=7, corrupted_writes=1)
        a.merge(b)
        assert a.precise_writes == 4
        assert a.approx_reads == 7
        assert a.approx_write_units == pytest.approx(1.5)
        assert a.corrupted_writes == 1

    def test_snapshot_is_independent(self):
        stats = MemoryStats()
        stats.record_precise_write()
        snap = stats.snapshot()
        stats.record_precise_write(5)
        assert snap.precise_writes == 1
        assert stats.precise_writes == 6

    def test_delta_since(self):
        stats = MemoryStats()
        stats.record_approx_write(0.6)
        mark = stats.snapshot()
        stats.record_approx_write(0.4, corrupted=True)
        stats.record_precise_read(2)
        delta = stats.delta_since(mark)
        assert delta.approx_writes == 1
        assert delta.approx_write_units == pytest.approx(0.4)
        assert delta.corrupted_writes == 1
        assert delta.precise_reads == 2

    def test_stage_deltas_sum_to_total(self):
        stats = MemoryStats()
        marks = [stats.snapshot()]
        stats.record_precise_write(2)
        marks.append(stats.snapshot())
        stats.record_approx_write(0.9)
        total_from_deltas = sum(
            stats_after.delta_since(stats_before).equivalent_precise_writes
            for stats_before, stats_after in [
                (marks[0], marks[1]),
                (marks[1], stats),
            ]
        )
        assert total_from_deltas == pytest.approx(
            stats.equivalent_precise_writes
        )


class TestWriteReduction:
    def test_positive_when_cheaper(self):
        assert write_reduction(100.0, 89.0) == pytest.approx(0.11)

    def test_negative_when_more_expensive(self):
        assert write_reduction(100.0, 120.0) == pytest.approx(-0.2)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            write_reduction(0.0, 1.0)
