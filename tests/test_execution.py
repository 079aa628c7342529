"""The execution config: one env reader, strict parsing, scoped installs."""

from __future__ import annotations

import ast
import os
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigError
from repro.execution import (
    BATCH_ENV,
    KERNELS_ENV,
    SANITIZE_ENV,
    SHARDS_ENV,
    ExecConfig,
    current,
    use,
)
from repro.experiments.common import map_cells

CONFIG_VARS = (KERNELS_ENV, SHARDS_ENV, SANITIZE_ENV, BATCH_ENV)


@pytest.fixture
def clean_env(monkeypatch):
    for name in CONFIG_VARS:
        monkeypatch.delenv(name, raising=False)


def _current_config() -> ExecConfig:
    return current()


class TestFromEnv:
    def test_defaults(self, clean_env):
        assert ExecConfig.from_env() == ExecConfig()
        assert ExecConfig() == ExecConfig(
            kernels="scalar", shards=1, sanitize=False, batch=False
        )

    def test_reads_every_variable(self, clean_env, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "numpy")
        monkeypatch.setenv(SHARDS_ENV, "3")
        monkeypatch.setenv(SANITIZE_ENV, " Yes ")
        monkeypatch.setenv(BATCH_ENV, "ON")
        assert ExecConfig.from_env() == ExecConfig(
            kernels="numpy", shards=3, sanitize=True, batch=True
        )

    @pytest.mark.parametrize("name", CONFIG_VARS)
    def test_empty_means_default(self, clean_env, monkeypatch, name):
        monkeypatch.setenv(name, "")
        assert ExecConfig.from_env() == ExecConfig()

    @pytest.mark.parametrize("name, value", [
        (KERNELS_ENV, "simd"),
        (SHARDS_ENV, "abc"),
        (SHARDS_ENV, "0"),
        (SHARDS_ENV, "-2"),
        (SANITIZE_ENV, "enabled"),
        (SANITIZE_ENV, "2"),
        (BATCH_ENV, "enabled"),
        (BATCH_ENV, "nope"),
    ])
    def test_malformed_value_names_its_variable(
        self, clean_env, monkeypatch, name, value
    ):
        monkeypatch.setenv(name, value)
        with pytest.raises(ConfigError, match=name):
            ExecConfig.from_env()

    @pytest.mark.parametrize("name", (SANITIZE_ENV, BATCH_ENV))
    def test_one_boolean_parser(self, clean_env, monkeypatch, name):
        field = "sanitize" if name == SANITIZE_ENV else "batch"
        for value in ("1", "true", "yes", "on", "TRUE"):
            monkeypatch.setenv(name, value)
            assert getattr(ExecConfig.from_env(), field) is True
        for value in ("", "0", "false", "no", "off", "Off"):
            monkeypatch.setenv(name, value)
            assert getattr(ExecConfig.from_env(), field) is False

    def test_fields_validated(self):
        with pytest.raises(ConfigError, match="kernels"):
            ExecConfig(kernels="avx2")
        with pytest.raises(ConfigError, match="shards"):
            ExecConfig(shards=0)

    def test_result_fields(self):
        config = ExecConfig(kernels="numpy", shards=2, sanitize=True,
                            batch=True)
        assert config.result_fields() == {"kernels": "numpy", "shards": 2}


class TestInstall:
    def test_current_falls_back_to_env(self, clean_env, monkeypatch):
        monkeypatch.setenv(SHARDS_ENV, "4")
        assert current().shards == 4

    def test_use_wins_over_env_and_restores(self, clean_env, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "numpy")
        outer = ExecConfig(shards=2)
        with use(outer):
            assert current() == outer
            with use(replace(outer, sanitize=True)):
                assert current().sanitize and current().shards == 2
            assert current() == outer
        assert current() == ExecConfig(kernels="numpy")

    def test_use_restores_after_an_error(self, clean_env):
        with pytest.raises(RuntimeError):
            with use(ExecConfig(batch=True)):
                raise RuntimeError("boom")
        assert current() == ExecConfig()

    def test_use_leaves_environment_alone(self, clean_env):
        before = dict(os.environ)
        with use(ExecConfig(kernels="numpy", shards=2, sanitize=True,
                            batch=True)):
            pass
        assert dict(os.environ) == before

    def test_pool_workers_get_the_installed_config(self, clean_env):
        config = ExecConfig(kernels="numpy", shards=2)
        with use(config):
            got = map_cells(_current_config, [(), ()], jobs=2)
        assert got == [config, config]


# ---------------------------------------------------------------------- #
# One reader: a source scan of the package
# ---------------------------------------------------------------------- #

_CONFIG_CONSTS = {"KERNELS_ENV", "SHARDS_ENV", "SANITIZE_ENV", "BATCH_ENV"}
_ENV_METHODS = {"get", "pop", "setdefault", "__getitem__", "__setitem__",
                "__delitem__", "__contains__"}
_GETENV = {"getenv", "putenv", "unsetenv"}


def _names_config_var(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return node.value in CONFIG_VARS
    if isinstance(node, ast.Name):
        return node.id in _CONFIG_CONSTS
    if isinstance(node, ast.Attribute):
        return node.attr in _CONFIG_CONSTS
    return False


def _is_environ(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == "environ"
    ) or (isinstance(node, ast.Name) and node.id == "environ")


def env_accesses(source: str) -> list[tuple[int, str]]:
    """``(line, "read" | "write")`` for every config-variable env access."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            if _names_config_var(node.slice):
                kind = "read" if isinstance(node.ctx, ast.Load) else "write"
                found.append((node.lineno, kind))
        elif isinstance(node, ast.Call):
            func = node.func
            on_environ = isinstance(func, ast.Attribute) and _is_environ(
                func.value
            )
            if on_environ and func.attr == "update":
                keys = [ast.Constant(kw.arg) for kw in node.keywords] + [
                    key for arg in node.args if isinstance(arg, ast.Dict)
                    for key in arg.keys if key is not None
                ]
                if any(_names_config_var(key) for key in keys):
                    found.append((node.lineno, "write"))
                continue
            method = (
                func.attr if isinstance(func, ast.Attribute) else
                func.id if isinstance(func, ast.Name) else None
            )
            if not node.args or not _names_config_var(node.args[0]):
                continue
            if on_environ and method in _ENV_METHODS:
                write = method in ("pop", "setdefault", "__setitem__",
                                   "__delitem__")
                found.append((node.lineno, "write" if write else "read"))
            elif method in _GETENV:
                found.append(
                    (node.lineno, "read" if method == "getenv" else "write")
                )
        elif isinstance(node, ast.Compare) and any(
            _is_environ(c) for c in node.comparators
        ) and _names_config_var(node.left):
            found.append((node.lineno, "read"))
    return found


class TestOneReader:
    PACKAGE = Path(repro.__file__).parent

    def test_scanner_sees_reads_and_writes(self):
        snippet = (
            "import os\n"
            "from os import environ\n"
            "a = os.environ.get(SHARDS_ENV)\n"
            "b = os.environ['REPRO_KERNELS']\n"
            "os.environ[BATCH_ENV] = '1'\n"
            "os.environ.pop(mod.SANITIZE_ENV, None)\n"
            "c = os.getenv('REPRO_BATCH')\n"
            "d = 'REPRO_SHARDS' in environ\n"
            "os.environ.update(REPRO_SANITIZE='1')\n"
            "e = os.environ.get('REPRO_TRACE_DIR')\n"
        )
        hits = sorted(env_accesses(snippet))
        assert hits == [
            (3, "read"), (4, "read"), (5, "write"), (6, "write"),
            (7, "read"), (8, "read"), (9, "write"),
        ]

    def test_only_execution_reads_and_nothing_writes(self):
        offenders = []
        execution_reads = 0
        for path in sorted(self.PACKAGE.rglob("*.py")):
            rel = path.relative_to(self.PACKAGE).as_posix()
            source = path.read_text(encoding="utf-8")
            for line, kind in env_accesses(source):
                if rel == "execution.py" and kind == "read":
                    execution_reads += 1
                else:
                    offenders.append(f"{rel}:{line} {kind}s a config var")
            if rel != "execution.py":
                # The names themselves live in one module, so no other
                # module can reach the variables through a literal.
                offenders += [
                    f"{rel}:{node.lineno} spells {node.value}"
                    for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Constant)
                    and node.value in CONFIG_VARS
                ]
        assert offenders == []
        # Positive control: the one reader is seen by the scan.
        assert execution_reads > 0
