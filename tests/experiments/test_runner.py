"""Tests for the CLI experiment runner."""

import json

import pytest

from repro.experiments.runner import main


class TestRunnerCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out
        assert "pcmsim" in out

    def test_list_includes_descriptions(self, capsys):
        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        by_name = dict(line.split(None, 1) for line in lines)
        # Each line is "<name>  <first docstring line>".
        assert by_name["fig09"].startswith("Figure 9:")
        assert all(desc.strip() for desc in by_name.values())

    def test_single_experiment(self, capsys):
        assert main(["--exp", "fig02", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "fig02" in out
        assert "avg_#P" in out
        assert "finished in" in out

    def test_multiple_experiments(self, capsys):
        assert main(
            ["--exp", "fig02", "--exp", "table3", "--scale", "smoke"]
        ) == 0
        out = capsys.readouterr().out
        assert "fig02" in out
        assert "table3" in out

    def test_save_writes_json(self, capsys, tmp_path, monkeypatch):
        import repro.experiments.common as common

        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        assert main(["--exp", "fig02", "--scale", "smoke", "--save"]) == 0
        assert (tmp_path / "fig02.json").exists()

    def test_requires_selection(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["--exp", "fig99"])

    def test_invalid_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["--exp", "fig02", "--jobs", "0"])

    def test_quiet_suppresses_tables_keeps_timings(self, capsys):
        assert main(["--exp", "fig02", "--scale", "smoke", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "== fig02" not in out
        assert "[fig02 finished in" in out

    def test_bench_json_appends_records(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        for _ in range(2):
            assert main(
                ["--exp", "fig02", "--scale", "smoke",
                 "--bench-json", str(path)]
            ) == 0
        records = json.loads(path.read_text())
        assert len(records) == 2
        for record in records:
            assert record["scale"] == "smoke"
            assert record["jobs"] == 1
            assert set(record["experiments"]) == {"fig02"}
            assert record["total_s"] >= record["experiments"]["fig02"]

    def test_bench_json_backs_up_corrupt_history(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--bench-json", str(path)]
        ) == 0
        err = capsys.readouterr().err
        assert "unreadable" in err
        # The corrupt file is preserved, not silently discarded.
        assert (tmp_path / "bench.json.bad").read_text() == "{not json"
        records = json.loads(path.read_text())
        assert len(records) == 1


class TestParallelJobs:
    def test_multi_experiment_fanout_prints_in_order(self, capsys):
        assert main(
            ["--exp", "fig02", "--exp", "table3", "--scale", "smoke",
             "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert out.index("== fig02") < out.index("== table3")

    def test_cell_parallel_experiment_via_cli(self, capsys):
        assert main(
            ["--exp", "ext_variance", "--scale", "smoke", "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "ext_variance" in out

    def test_fig09_jobs_bit_identical(self):
        from repro.experiments import fig09_write_reduction_t as fig09

        kwargs = dict(
            scale="smoke", seed=0, t_values=[0.055],
            algorithms=("lsd3", "quicksort"),
        )
        sequential = fig09.run(**kwargs, jobs=1)
        parallel = fig09.run(**kwargs, jobs=2)
        assert sequential.rows == parallel.rows

    def test_ext_variance_jobs_bit_identical(self):
        from repro.experiments import ext_variance

        sequential = ext_variance.run(scale="smoke", seed=0, jobs=1)
        parallel = ext_variance.run(scale="smoke", seed=0, jobs=2)
        assert sequential.rows == parallel.rows


class TestTracing:
    def test_trace_merges_and_validates(self, capsys, tmp_path, monkeypatch):
        from repro.obs.io import iter_events
        from repro.obs.report import check_events

        monkeypatch.chdir(tmp_path)
        trace = tmp_path / "out" / "trace.jsonl"
        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--quiet",
             "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "merged" in out and "trace events" in out
        events = list(iter_events(trace))
        assert events, "merged trace must not be empty"
        assert check_events(events) == []
        assert not (tmp_path / "out" / "trace.jsonl.parts").exists()
        names = {
            e["name"] for e in events if e.get("ev") == "span_end"
        }
        assert "experiment.fig02" in names

    def test_trace_with_worker_fanout(self, capsys, tmp_path, monkeypatch):
        from repro.obs.io import iter_events
        from repro.obs.report import check_events

        trace = tmp_path / "trace.jsonl"
        assert main(
            ["--exp", "fig02", "--exp", "table3", "--scale", "smoke",
             "--quiet", "--jobs", "2", "--trace", str(trace)]
        ) == 0
        events = list(iter_events(trace))
        assert check_events(events) == []
        # Two worker processes plus the parent's part file.
        pids = {e["pid"] for e in events}
        assert len(pids) >= 2
        names = {e["name"] for e in events if e.get("ev") == "span_end"}
        assert {"experiment.fig02", "experiment.table3"} <= names

    def test_tracing_output_identical_to_untraced(self, capsys, tmp_path):
        assert main(["--exp", "table3", "--scale", "smoke"]) == 0
        plain = capsys.readouterr().out
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["--exp", "table3", "--scale", "smoke", "--trace", str(trace)]
        ) == 0
        traced = capsys.readouterr().out
        # Strip the timing/merge reporting lines; the tables themselves
        # (every measured number) must be bit-identical.
        def tables(text):
            return [
                line for line in text.splitlines()
                if not line.startswith("[") and not line.startswith("merged")
            ]

        assert tables(traced) == tables(plain)

    def test_profile_dumps_next_to_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--quiet", "--profile",
             "--trace", str(trace)]
        ) == 0
        assert (tmp_path / "fig02.prof").stat().st_size > 0


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "--list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "fig09" in result.stdout


class TestShardsCLI:
    def test_shards_not_exported_to_environment(self, capsys, monkeypatch):
        import os

        from repro.sorting.registry import SHARDS_ENV

        monkeypatch.setenv(SHARDS_ENV, "1")  # recorded → restored at teardown
        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--shards", "2"]
        ) == 0
        assert os.environ[SHARDS_ENV] == "1"

    def test_invalid_shards_rejected(self):
        with pytest.raises(SystemExit):
            main(["--exp", "fig02", "--shards", "0"])

    def test_sharded_smoke_run_deterministic(self, capsys, monkeypatch):
        # On approximate memory sharding changes the write pattern (and so
        # the error realizations), so sharded output need not equal serial
        # output — but repeating the same sharded run must be bit-identical.
        from repro.sorting.registry import SHARDS_ENV

        monkeypatch.setenv(SHARDS_ENV, "1")
        assert main(
            ["--exp", "table3", "--scale", "smoke", "--shards", "2"]
        ) == 0
        first = [
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("[")
        ]
        assert main(
            ["--exp", "table3", "--scale", "smoke", "--shards", "2"]
        ) == 0
        second = [
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("[")
        ]
        assert second == first

    def test_jobs_hint_points_at_shards(self, capsys, monkeypatch):
        from repro.sorting.registry import SHARDS_ENV

        monkeypatch.setenv(SHARDS_ENV, "1")
        assert main(
            ["--exp", "fig09", "--scale", "smoke", "--jobs", "2", "--quiet"]
        ) == 0
        err = capsys.readouterr().err
        assert "[hint]" in err
        assert "--shards 2" in err

    def test_no_hint_when_shards_requested(self, capsys, monkeypatch):
        from repro.sorting.registry import SHARDS_ENV

        monkeypatch.setenv(SHARDS_ENV, "1")
        assert main(
            ["--exp", "fig09", "--scale", "smoke", "--jobs", "2",
             "--shards", "2", "--quiet"]
        ) == 0
        assert "[hint]" not in capsys.readouterr().err

    def test_no_hint_for_multi_experiment_fanout(self, capsys, monkeypatch):
        from repro.sorting.registry import SHARDS_ENV

        monkeypatch.setenv(SHARDS_ENV, "1")
        assert main(
            ["--exp", "fig02", "--exp", "table3", "--scale", "smoke",
             "--jobs", "2", "--quiet"]
        ) == 0
        assert "[hint]" not in capsys.readouterr().err


class TestBenchScalingFields:
    def test_record_carries_machine_and_parallelism(self, capsys, tmp_path,
                                                    monkeypatch):
        import os

        from repro.sorting.registry import SHARDS_ENV

        monkeypatch.setenv(SHARDS_ENV, "1")
        path = tmp_path / "bench.json"
        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--bench-json", str(path)]
        ) == 0
        record = json.loads(path.read_text())[0]
        assert record["cpus"] == os.cpu_count()
        assert record["workers_effective"] == 1
        assert record["shards"] == 1

    def test_speedup_vs_serial_baseline(self, capsys, tmp_path, monkeypatch):
        from repro.sorting.registry import SHARDS_ENV

        monkeypatch.setenv(SHARDS_ENV, "1")
        path = tmp_path / "bench.json"
        # First a serial baseline record, then a sharded run of the same
        # configuration: the second record gains the scaling fields.
        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--bench-json", str(path)]
        ) == 0
        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--shards", "2",
             "--bench-json", str(path)]
        ) == 0
        records = json.loads(path.read_text())
        assert "speedup_vs_serial" not in records[0]
        assert "speedup_vs_serial" in records[1]
        assert records[1]["scaling_efficiency"] == pytest.approx(
            records[1]["speedup_vs_serial"] / 2, abs=1e-3
        )

    def test_no_speedup_without_matching_baseline(self, capsys, tmp_path,
                                                  monkeypatch):
        from repro.sorting.registry import SHARDS_ENV

        monkeypatch.setenv(SHARDS_ENV, "1")
        path = tmp_path / "bench.json"
        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--shards", "2",
             "--bench-json", str(path)]
        ) == 0
        assert "speedup_vs_serial" not in json.loads(path.read_text())[0]


class TestExecutionConfig:
    """The runner installs its execution config and exports nothing."""

    FLAGS = ["--kernels", "numpy", "--shards", "2", "--batch"]

    @pytest.fixture
    def clean_env(self, monkeypatch, tmp_path):
        from repro.execution import (
            BATCH_ENV, KERNELS_ENV, SANITIZE_ENV, SHARDS_ENV,
        )

        for name in (BATCH_ENV, KERNELS_ENV, SANITIZE_ENV, SHARDS_ENV):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))

    @staticmethod
    def assert_untouched(before: dict) -> None:
        import os

        from repro.parallel import ShardedSorter
        from repro.sorting.registry import make_sorter

        assert dict(os.environ) == before
        assert not isinstance(make_sorter("lsd6"), ShardedSorter)

    def test_main_leaves_environment_unchanged(self, clean_env, capsys):
        import os

        before = dict(os.environ)
        assert main(["--exp", "fig02", "--scale", "smoke", *self.FLAGS]) == 0
        self.assert_untouched(before)

    def test_resume_leaves_environment_unchanged(self, clean_env, capsys):
        import os

        argv = ["--exp", "fig02", "--scale", "smoke", *self.FLAGS]
        assert main(argv + ["--checkpoint", "cfg"]) == 0
        before = dict(os.environ)
        assert main(["--resume", "cfg", "--shards", "2"]) == 0
        self.assert_untouched(before)

    def test_resume_adopts_recorded_kernels(
        self, clean_env, capsys, monkeypatch
    ):
        from repro.execution import KERNELS_ENV

        argv = ["--exp", "fig02", "--scale", "smoke", "--kernels", "numpy"]
        assert main(argv + ["--checkpoint", "k"]) == 0
        monkeypatch.setenv(KERNELS_ENV, "scalar")
        assert main(["--resume", "k"]) == 0

    def test_resume_refuses_other_kernels(self, clean_env, capsys):
        argv = ["--exp", "fig02", "--scale", "smoke", "--kernels", "numpy"]
        assert main(argv + ["--checkpoint", "k"]) == 0
        capsys.readouterr()
        assert main(["--resume", "k", "--kernels", "scalar"]) == 2
        assert (
            "kernels: recorded 'numpy', requested 'scalar'"
            in capsys.readouterr().err
        )

    def test_malformed_env_is_a_config_error(
        self, clean_env, capsys, monkeypatch
    ):
        from repro.execution import SANITIZE_ENV

        monkeypatch.setenv(SANITIZE_ENV, "enabled")
        assert main(["--exp", "fig02", "--scale", "smoke"]) == 2
        assert SANITIZE_ENV in capsys.readouterr().err
