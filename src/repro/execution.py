"""The execution config: kernels, shards and sanitize (DESIGN.md §8).

:meth:`ExecConfig.from_env` is the only reader of the three ``REPRO_*``
variables below.  An entry point (the experiment runner, the serve CLI,
the fuzzer) resolves its config once and runs inside :func:`use`; library
code reads :func:`current`, which falls back to the environment when no
entry point installed one.  Nothing writes the config into ``os.environ``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from repro.errors import ConfigError

KERNELS_ENV = "REPRO_KERNELS"
SHARDS_ENV = "REPRO_SHARDS"
SANITIZE_ENV = "REPRO_SANITIZE"

#: Accepted kernel modes.
KERNEL_MODES = ("scalar", "numpy")

#: The spellings the boolean variables accept (case-insensitive, surrounding
#: whitespace ignored); anything else is rejected.
_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"", "0", "false", "no", "off"})


def _check_kernels(value: str, source: str) -> str:
    if value not in KERNEL_MODES:
        raise ConfigError(
            f"kernels must be one of {KERNEL_MODES}, got {value!r}"
            f" (check {source})"
        )
    return value


def _parse_flag(name: str, raw: Optional[str]) -> bool:
    value = (raw or "").strip().lower()
    if value not in _TRUE | _FALSE:
        raise ConfigError(
            f"{name} must be one of {sorted(_TRUE)} or"
            f" {sorted(_FALSE - {''})}, got {raw!r}"
        )
    return value in _TRUE


def _parse_shards(raw: Optional[str]) -> int:
    try:
        shards = int(raw) if raw else 1
    except ValueError:
        raise ConfigError(
            f"{SHARDS_ENV} must be an integer, got {raw!r}"
        ) from None
    if shards < 1:
        raise ConfigError(f"{SHARDS_ENV} must be >= 1, got {shards}")
    return shards


@dataclass(frozen=True)
class ExecConfig:
    """How a run executes: kernel mode, shard count, sanitizer."""

    kernels: str = "scalar"
    shards: int = 1
    sanitize: bool = False

    def __post_init__(self) -> None:
        _check_kernels(self.kernels, "the kernels setting")
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")

    @classmethod
    def from_env(cls) -> "ExecConfig":
        """The env's config (unset or empty: default); a malformed value
        raises :class:`ConfigError` naming its variable."""
        return _parse_env(_raw_env())

    def result_fields(self) -> dict:
        """The fields that change which writes err, for records to carry
        (``sanitize`` is bit-identical)."""
        return {"kernels": self.kernels, "shards": self.shards}


def _raw_env() -> tuple[Optional[str], Optional[str], Optional[str]]:
    return (
        os.environ.get(KERNELS_ENV),
        os.environ.get(SHARDS_ENV),
        os.environ.get(SANITIZE_ENV),
    )


@lru_cache(maxsize=16)
def _parse_env(
    raw: tuple[Optional[str], Optional[str], Optional[str]],
) -> ExecConfig:
    """The config of one set of raw values, parsed once per distinct set
    (a malformed value raises every time: exceptions are not cached)."""
    kernels, shards, sanitize = raw
    return ExecConfig(
        kernels=_check_kernels(
            kernels or "scalar", f"the {KERNELS_ENV} environment variable"
        ),
        shards=_parse_shards(shards),
        sanitize=_parse_flag(SANITIZE_ENV, sanitize),
    )


_installed: Optional[ExecConfig] = None


def current() -> ExecConfig:
    """The config the running entry point installed, else the env's."""
    return _installed if _installed is not None else _parse_env(_raw_env())


def install(config: Optional[ExecConfig]) -> None:
    """Install ``config`` for the rest of this process (a pool initializer)."""
    global _installed
    _installed = config


@contextmanager
def use(config: ExecConfig) -> Iterator[ExecConfig]:
    """Run the enclosed block under ``config``; the prior one is restored."""
    prior = _installed
    install(config)
    try:
        yield config
    finally:
        install(prior)


def resolve_kernels(kernels: Optional[str] = None) -> str:
    """Pick the kernel mode: explicit argument, else :func:`current`."""
    if not kernels:
        return current().kernels
    return _check_kernels(kernels, "the kernels= argument")
