"""Tests for the shadow sanitizer: transparency, and every violation class.

Two directions:

* **Transparency** — a sanitized run must be observationally identical to
  an unsanitized one (values, stats, RNG stream consumption), because the
  sanitizer only delegates and peeks.
* **Detection** — deliberately broken array subclasses (wrong accounting,
  silent corruption, uncounted corruption) must each trip their invariant.
"""

import numpy as np
import pytest

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.errors import ConfigError, SanitizerError
from repro.memory.approx_array import PreciseArray, WORD_LIMIT
from repro.memory.stats import MemoryStats
from repro.verify import (
    SANITIZE_ENV,
    SanitizedArray,
    checks_performed,
    maybe_sanitize,
    sanitize,
    sanitizing,
)
from repro.workloads.generators import uniform_keys


class TestEnablement:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert not sanitizing()
        array = PreciseArray([1, 2, 3])
        assert maybe_sanitize(array) is array

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert sanitizing()
        assert isinstance(maybe_sanitize(PreciseArray([1])), SanitizedArray)

    @pytest.mark.parametrize("value", ["0", "false", "", "off"])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert not sanitizing()

    @pytest.mark.parametrize("value", ["2", "enabled"])
    def test_malformed_values_rejected(self, monkeypatch, value):
        monkeypatch.setenv(SANITIZE_ENV, value)
        with pytest.raises(ConfigError, match=SANITIZE_ENV):
            sanitizing()

    def test_sanitize_idempotent(self):
        inner = PreciseArray([1, 2])
        wrapped = sanitize(inner)
        assert sanitize(wrapped) is wrapped
        assert SanitizedArray(wrapped).inner is inner


class TestTransparency:
    """Sanitized execution must be bit-identical to unsanitized."""

    def test_precise_ops_match(self):
        plain = PreciseArray(range(64))
        shadowed = sanitize(PreciseArray(range(64)))
        for array in (plain, shadowed):
            array.write(3, 999)
            array.write_block(10, [5, 4, 3])
            array.scatter_np(np.array([0, 1, 0]), np.array([7, 8, 9]))
        assert plain.to_list() == shadowed.to_list()
        assert plain.stats.as_dict() == shadowed.stats.as_dict()
        assert shadowed.read(3) == 999
        assert shadowed.read_block(10, 3) == [5, 4, 3]
        assert shadowed.peek(0) == 9  # last write wins

    def test_approx_rng_streams_match(self, pcm_aggressive):
        keys = uniform_keys(400, seed=11)
        runs = []
        for wrap in (lambda a: a, sanitize):
            array = wrap(pcm_aggressive.make_array(
                [0] * len(keys), stats=MemoryStats(), seed=21
            ))
            array.write_block(0, keys)
            array.write(7, 123456)
            array.scatter_np(np.arange(50), np.arange(50) * 3)
            scratch = array.clone_empty(16)
            scratch.write_block(0, list(range(16)))
            runs.append((
                array.to_list(), scratch.to_list(), array.stats.as_dict()
            ))
        assert runs[0] == runs[1]

    def test_sanitized_pipeline_bit_identical(self, pcm_sweet, monkeypatch):
        keys = uniform_keys(300, seed=5)
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        plain = run_approx_refine(keys, "quicksort", pcm_sweet, seed=3)
        monkeypatch.setenv(SANITIZE_ENV, "1")
        before = checks_performed()
        shadowed = run_approx_refine(keys, "quicksort", pcm_sweet, seed=3)
        assert checks_performed() > before  # the sanitizer really engaged
        assert shadowed.final_keys == plain.final_keys == sorted(keys)
        assert shadowed.final_ids == plain.final_ids
        assert shadowed.rem_tilde == plain.rem_tilde
        assert shadowed.stats.as_dict() == plain.stats.as_dict()
        for stage, delta in plain.stage_stats.items():
            assert shadowed.stage_stats[stage].as_dict() == delta.as_dict()

    def test_sanitized_baseline_bit_identical(self, monkeypatch):
        keys = uniform_keys(200, seed=8)
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        plain = run_precise_baseline(keys, "mergesort")
        monkeypatch.setenv(SANITIZE_ENV, "1")
        shadowed = run_precise_baseline(keys, "mergesort")
        assert shadowed.final_keys == plain.final_keys
        assert shadowed.final_ids == plain.final_ids
        assert shadowed.stats.as_dict() == plain.stats.as_dict()

    def test_passthrough_surface(self, pcm_sweet):
        array = sanitize(pcm_sweet.make_array([1, 2, 3], seed=4))
        assert array.region == "approx"
        assert array.kernel_safe
        assert len(array) == 3
        assert array.model is array.inner.model  # __getattr__ fallthrough
        array.trace = None
        assert array.inner.trace is None


class TestBounds:
    """The memoryview would accept negative indices silently; we must not."""

    def test_negative_read(self):
        with pytest.raises(SanitizerError, match="bounds"):
            sanitize(PreciseArray([1, 2, 3])).read(-1)

    def test_negative_write(self):
        with pytest.raises(SanitizerError, match="bounds"):
            sanitize(PreciseArray([1, 2, 3])).write(-2, 5)

    def test_read_past_end(self):
        with pytest.raises(SanitizerError, match="bounds"):
            sanitize(PreciseArray([1, 2, 3])).read(3)

    def test_block_overrun(self):
        with pytest.raises(SanitizerError, match="bounds"):
            sanitize(PreciseArray([1, 2, 3])).read_block(2, 2)

    def test_gather_negative_index(self):
        with pytest.raises(SanitizerError, match="bounds"):
            sanitize(PreciseArray([1, 2, 3])).gather_np(np.array([0, -1]))

    def test_scatter_out_of_range(self):
        array = sanitize(PreciseArray([1, 2, 3]))
        with pytest.raises(SanitizerError, match="bounds"):
            array.scatter_np(np.array([1, 3]), np.array([0, 0]))

    def test_unsanitized_negative_index_goes_undetected(self):
        # The hazard the bounds invariant exists for: without the
        # sanitizer a negative index silently wraps to the array tail.
        plain = PreciseArray([1, 2, 3])
        plain.write(-1, 99)
        assert plain.to_list() == [1, 2, 99]


class _LazyAccountingArray(PreciseArray):
    """Forgets to record writes (a classic refactor regression)."""

    def write(self, index, value):
        self._mv[index] = value  # no stats.record_precise_write()


class _WrongRegionArray(PreciseArray):
    """Charges its writes to the approximate region."""

    def write(self, index, value):
        self._mv[index] = value
        self.stats.record_approx_write(0.5)


class _SilentCorruptionArray(PreciseArray):
    """Precise memory that flips the stored value (must never happen)."""

    def write(self, index, value):
        self.stats.record_precise_write()
        self._mv[index] = (value + 1) % WORD_LIMIT


class _OvercountingReadArray(PreciseArray):
    def read(self, index):
        self.stats.record_precise_read(2)
        return self._mv[index]


class TestAccountingViolations:
    def test_unrecorded_write(self):
        with pytest.raises(SanitizerError, match="accounting"):
            sanitize(_LazyAccountingArray([0] * 4)).write(0, 1)

    def test_cross_region_accounting(self):
        with pytest.raises(SanitizerError, match="accounting"):
            sanitize(_WrongRegionArray([0] * 4)).write(0, 1)

    def test_read_overcount(self):
        with pytest.raises(SanitizerError, match="accounting"):
            sanitize(_OvercountingReadArray([0] * 4)).read(0)

    def test_block_write_must_count_per_element(self):
        class _HalfBlock(PreciseArray):
            def write_block(self, start, values):
                vals = list(values)
                self.stats.record_precise_write(len(vals) // 2)
                self._data[start : start + len(vals)] = vals

        with pytest.raises(SanitizerError, match="accounting"):
            sanitize(_HalfBlock([0] * 8)).write_block(0, [1, 2, 3, 4])


class TestDivergenceViolations:
    def test_precise_memory_must_store_verbatim(self):
        with pytest.raises(SanitizerError, match="divergence"):
            sanitize(_SilentCorruptionArray([0] * 4)).write(0, 10)

    def test_approx_corruption_must_be_counted(self, pcm_aggressive):
        array = pcm_aggressive.make_array([0] * 8, seed=1)

        class _Uncounted(type(array)):
            def write(self, index, value):
                # Corrupt like the real model but never record it.
                self.stats.record_approx_write(0.5, corrupted=False)
                self._mv[index] = (value + 1) % WORD_LIMIT

        broken = _Uncounted.__new__(_Uncounted)
        broken.__dict__.update(array.__dict__)
        with pytest.raises(SanitizerError, match="divergence"):
            sanitize(broken).write(0, 42)

    def test_stale_read_detected(self):
        array = sanitize(PreciseArray([5, 6, 7]))
        array.inner._data[1] = 999  # out-of-band mutation: shadow is stale
        with pytest.raises(SanitizerError, match="integrity"):
            array.read(1)


class TestPreciseWriteAccountingRegression:
    """Pinned regression: a rejected out-of-range write must not account.

    PreciseArray.write used to record the precise write (and emit the
    trace event) *before* validating the value, so a ValueError-raising
    write still moved the counters — found by the sanitizer's accounting
    invariant when this subsystem was built.
    """

    def test_rejected_write_does_not_count(self):
        array = PreciseArray([0] * 4)
        with pytest.raises(ValueError):
            array.write(0, WORD_LIMIT)  # out of 32-bit range
        assert array.stats.precise_writes == 0

    def test_rejected_write_emits_no_trace(self):
        events = []
        array = PreciseArray(
            [0] * 4, trace=lambda op, region, i: events.append((op, i))
        )
        with pytest.raises(ValueError):
            array.write(2, -1)
        assert events == []
        array.write(2, 7)
        assert events == [("W", 2)]


class TestChecksCounter:
    def test_counter_increases_per_operation(self):
        array = sanitize(PreciseArray(range(8)))
        before = checks_performed()
        array.read(0)
        mid = checks_performed()
        assert mid > before
        array.write_block(0, [1, 2, 3])
        assert checks_performed() > mid

    def test_clone_empty_stays_sanitized(self, pcm_sweet):
        array = sanitize(pcm_sweet.make_array([0] * 4, seed=2))
        clone = array.clone_empty(2)
        assert isinstance(clone, SanitizedArray)
        with pytest.raises(SanitizerError, match="bounds"):
            clone.read(2)

    def test_load_from_accounting_matches_unsanitized(self, pcm_sweet):
        source_plain = PreciseArray(range(32), stats=MemoryStats())
        plain = pcm_sweet.make_array([0] * 32, stats=MemoryStats(), seed=9)
        plain.load_from(source_plain)

        source_shadow = sanitize(PreciseArray(range(32), stats=MemoryStats()))
        shadow = sanitize(
            pcm_sweet.make_array([0] * 32, stats=MemoryStats(), seed=9)
        )
        shadow.load_from(source_shadow)

        assert plain.stats.as_dict() == shadow.stats.as_dict()
        assert source_plain.stats.as_dict() == source_shadow.stats.as_dict()
        assert plain.to_list() == shadow.to_list()
