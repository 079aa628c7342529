"""Batched experiment execution: map_cells batcher gating and regression.

The regression test pins the tentpole contract at the experiment level:
``ext_variance`` routed through the batch engine must produce the exact
table (mean/std/min/max per algorithm) of the looped run.
"""

from __future__ import annotations

import pytest

from repro.experiments import ext_variance
from repro.experiments.common import map_cells
from repro.errors import ConfigError
from repro.execution import BATCH_ENV, batching_enabled


class TestBatchingEnabled:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv(BATCH_ENV, raising=False)
        assert batching_enabled() is False

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off"])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv(BATCH_ENV, value)
        assert batching_enabled() is False

    @pytest.mark.parametrize("value", ["1", "true", "yes"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv(BATCH_ENV, value)
        assert batching_enabled() is True

    @pytest.mark.parametrize("value", ["enabled", "2", "y"])
    def test_malformed_values_rejected(self, monkeypatch, value):
        monkeypatch.setenv(BATCH_ENV, value)
        with pytest.raises(ConfigError, match=BATCH_ENV):
            batching_enabled()

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(BATCH_ENV, "1")
        assert batching_enabled(batch=False) is False
        monkeypatch.delenv(BATCH_ENV)
        assert batching_enabled(batch=True) is True


class TestMapCellsBatcher:
    def test_batcher_used_when_enabled(self, monkeypatch):
        monkeypatch.setenv(BATCH_ENV, "1")
        calls = []

        def batcher(cells):
            calls.append(list(cells))
            return [a + b for a, b in cells]

        out = map_cells(lambda a, b: a + b, [(1, 2), (3, 4)], batcher=batcher)
        assert out == [3, 7]
        assert calls == [[(1, 2), (3, 4)]]

    def test_batcher_ignored_when_disabled(self, monkeypatch):
        monkeypatch.delenv(BATCH_ENV, raising=False)

        def batcher(cells):  # pragma: no cover - must not run
            raise AssertionError("batcher used with batching disabled")

        out = map_cells(lambda a, b: a + b, [(1, 2), (3, 4)], batcher=batcher)
        assert out == [3, 7]

    def test_batcher_ignored_for_single_cell(self, monkeypatch):
        monkeypatch.setenv(BATCH_ENV, "1")

        def batcher(cells):  # pragma: no cover - must not run
            raise AssertionError("batcher used for a single cell")

        assert map_cells(lambda a: a * 2, [(21,)], batcher=batcher) == [42]

    def test_batcher_respects_journal(self, monkeypatch, tmp_path):
        from repro.experiments.checkpoint import CellJournal

        monkeypatch.setenv(BATCH_ENV, "1")
        path = tmp_path / "cells.jsonl"
        cells = [(1, 2), (3, 4), (5, 6)]

        journal = CellJournal(str(path))
        journal.record(1, cells[1], 99)
        journal.close()

        journal = CellJournal(str(path))
        seen = []

        def batcher(batch):
            seen.extend(batch)
            return [a + b for a, b in batch]

        out = map_cells(lambda a, b: a + b, cells, journal=journal,
                        batcher=batcher)
        journal.close()
        assert out == [3, 99, 11]
        assert seen == [(1, 2), (5, 6)]  # restored cell not recomputed

        # The batched results were journaled: a fresh load restores all.
        journal = CellJournal(str(path))
        restored = journal.load(cells)
        journal.close()
        assert restored == {0: 3, 1: 99, 2: 11}


class TestRunnerBatchFlag:
    def test_batch_flag_exports_env_and_records(
        self, capsys, tmp_path, monkeypatch
    ):
        import json
        import os

        from repro.experiments.runner import main

        monkeypatch.setenv(BATCH_ENV, "0")
        path = tmp_path / "bench.json"
        assert main([
            "--exp", "ext_variance", "--scale", "smoke", "--batch",
            "--quiet", "--bench-json", str(path),
        ]) == 0
        # --batch configures the run; it is not exported.
        assert os.environ[BATCH_ENV] == "0"
        records = json.loads(path.read_text())
        assert records[-1]["batch"] is True

    def test_batch_records_never_seed_serial_baseline(self):
        from repro.experiments.runner import _serial_baseline

        record = {
            "experiments": {"ext_variance": 1.0}, "scale": "smoke",
            "seed": 0, "kernels": "scalar", "jobs": 1, "total_s": 2.0,
        }
        candidate = dict(record, batch=True, total_s=0.5)
        # A batched run is faster by construction; it must not be mistaken
        # for the serial looped baseline that speedups are computed against.
        import json
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bench.json"
            path.write_text(json.dumps([candidate]))
            assert _serial_baseline(path, record) is None
            looped = dict(record, batch=False, total_s=3.0)
            path.write_text(json.dumps([candidate, looped]))
            assert _serial_baseline(path, record) == looped


class TestExtVarianceBatched:
    def test_batched_table_identical_to_looped(self, monkeypatch):
        monkeypatch.delenv(BATCH_ENV, raising=False)
        looped = ext_variance.run(scale="smoke")
        monkeypatch.setenv(BATCH_ENV, "1")
        batched = ext_variance.run(scale="smoke")
        assert looped.columns == batched.columns
        assert looped.rows == batched.rows
