"""Bench records of batched experiment runs.

Runner records written while the runner still had a ``--batch`` flag may
carry ``"batch": true``; such a run must never stand in for the serial
looped baseline that speedups are computed against.
"""

from __future__ import annotations


class TestRunnerBatchFlag:
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
