"""Per-tenant memory-config profiles for the sort service.

A *tenant profile* pins everything that determines a sort response bit
for bit: the execution lane (approx-refine vs precise baseline), the
memory configuration (``T``, cell design), the sorting algorithm, and the
kernel mode.  The server's bit-identity contract (docs/serving.md,
DESIGN.md section 15) is stated against the profile: a ``sort`` response
equals a direct :func:`repro.core.approx_refine.run_approx_refine` (or
:func:`~repro.core.approx_refine.run_precise_baseline`) call with the
profile's configuration and the request's ``(keys, seed)``.

Degradation is part of the profile, not the scheduler: ``degrade_ts``
lists the higher-``T`` tiers this tenant consents to under sustained
load, in escalation order.  Raising ``T`` keeps responses *exact* (the
refine stage always repairs the output) — the tenant only trades
per-request memory-write cost against a larger refine share, which is
why the service degrades instead of shedding load (DESIGN.md §15).

Memory factories are cached per *configuration*, not per tenant, so two
tenants with identical memory configs share one compiled error model and
their jobs coalesce into the same batch groups.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.errors import ConfigError
from repro.execution import KERNEL_MODES
from repro.memory.config import MLCParams
from repro.memory.error_model import DEFAULT_FIT_SAMPLES
from repro.memory.factories import PCMMemoryFactory
from repro.sorting.registry import available_sorters

from .protocol import MAX_KEYS_PER_REQUEST

#: Execution lanes a profile can request.
LANES = ("approx", "precise")


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's pinned execution configuration.

    Attributes
    ----------
    name:
        Registry key; the ``tenant`` field of sort requests.
    lane:
        ``"approx"`` (approx-refine on MLC PCM) or ``"precise"``
        (precise-memory baseline sort; ``t``/``levels``/``degrade_ts``
        unused).
    sorter:
        Sorting-algorithm registry name (``lsd3`` ... ``mergesort``).
    kernels:
        Kernel mode (``"scalar"``/``"numpy"``); ``None`` inherits the
        execution config's (:func:`repro.execution.current`).
    t:
        Target-range half-width of the approximate tier (paper Fig 9's
        sweep axis).
    levels:
        MLC cell levels (4 = the paper's 2-bit cell).
    degrade_ts:
        Higher-``T`` tiers consented to under sustained load, in
        escalation order; empty means this tenant never degrades.
    max_keys:
        Per-request key-count cap for this tenant.
    fit_samples:
        Monte-Carlo samples for the tier's error-model fit (the default
        matches direct ``PCMMemoryFactory`` use; tests and docs examples
        shrink it).
    """

    name: str
    lane: str = "approx"
    sorter: str = "lsd6"
    kernels: Optional[str] = "numpy"
    t: float = 0.055
    levels: int = 4
    degrade_ts: tuple[float, ...] = ()
    max_keys: int = MAX_KEYS_PER_REQUEST
    fit_samples: int = DEFAULT_FIT_SAMPLES

    def __post_init__(self) -> None:
        if self.lane not in LANES:
            raise ConfigError(
                f"profile {self.name!r}: lane must be one of {LANES},"
                f" got {self.lane!r}"
            )
        if self.sorter not in available_sorters():
            raise ConfigError(
                f"profile {self.name!r}: unknown sorter {self.sorter!r};"
                f" available: {', '.join(available_sorters())}"
            )
        if self.kernels is not None and self.kernels not in KERNEL_MODES:
            raise ConfigError(
                f"profile {self.name!r}: kernels must be one of"
                f" {KERNEL_MODES} or null, got {self.kernels!r}"
            )
        if self.max_keys < 1:
            raise ConfigError(
                f"profile {self.name!r}: max_keys must be >= 1,"
                f" got {self.max_keys}"
            )
        if self.lane == "approx":
            # Validate every tier eagerly: a bad ladder should fail at
            # registration, not mid-degradation under load.
            for tier_t in (self.t, *self.degrade_ts):
                try:
                    MLCParams(levels=self.levels, t=tier_t)
                except ValueError as exc:
                    raise ConfigError(
                        f"profile {self.name!r}: invalid tier T={tier_t}:"
                        f" {exc}"
                    ) from exc

    @property
    def tiers(self) -> tuple[float, ...]:
        """The tier ladder: base ``T`` first, then the degrade steps."""
        return (self.t, *self.degrade_ts) if self.lane == "approx" else ()

    def tier_t(self, tier: int) -> Optional[float]:
        """The ``T`` of ladder position ``tier`` (clamped; None if precise)."""
        if self.lane != "approx":
            return None
        ladder = self.tiers
        return ladder[min(max(tier, 0), len(ladder) - 1)]

    def describe(self, tier: int = 0) -> dict:
        """JSON-ready profile summary (the ``profiles`` op's payload)."""
        return {
            "name": self.name,
            "lane": self.lane,
            "sorter": self.sorter,
            "kernels": self.kernels,
            "t": self.tier_t(tier),
            "base_t": self.t if self.lane == "approx" else None,
            "levels": self.levels if self.lane == "approx" else None,
            "degrade_ts": list(self.degrade_ts),
            "tier": tier if self.lane == "approx" else 0,
            "max_keys": self.max_keys,
        }


def profile_from_dict(raw: dict) -> TenantProfile:
    """Build a profile from its JSON form (the ``--tenants`` file schema)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"tenant profile must be an object, got {raw!r}")
    known = {
        "name", "lane", "sorter", "kernels", "t", "levels", "degrade_ts",
        "max_keys", "fit_samples",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(
            f"tenant profile {raw.get('name', '?')!r}: unknown fields"
            f" {sorted(unknown)}; known: {sorted(known)}"
        )
    if not isinstance(raw.get("name"), str) or not raw["name"]:
        raise ConfigError("tenant profile needs a non-empty string 'name'")
    kwargs = dict(raw)
    if "degrade_ts" in kwargs:
        kwargs["degrade_ts"] = tuple(kwargs["degrade_ts"])
    return TenantProfile(**kwargs)


#: Default tenant set: the paper's sweet spot at two algorithms, a precise
#: lane, and a degradable profile exercising the full ladder.
DEFAULT_PROFILES = (
    TenantProfile(
        name="approx-fast", lane="approx", sorter="lsd6", t=0.055,
        degrade_ts=(0.07, 0.1),
    ),
    TenantProfile(
        name="approx-merge", lane="approx", sorter="mergesort", t=0.055,
        degrade_ts=(0.07,),
    ),
    TenantProfile(name="precise", lane="precise", sorter="mergesort"),
)


class TenantRegistry:
    """The server's tenant set plus the shared memory-factory cache.

    Factories are keyed by the full memory configuration (``levels``,
    ``t``, ``fit_samples``), so profiles — and degrade tiers — that
    resolve to the same configuration share one compiled model, and the
    batch engine's ``id(memory)``-based grouping coalesces their jobs.
    """

    def __init__(self, profiles=DEFAULT_PROFILES) -> None:
        self._profiles: dict[str, TenantProfile] = {}
        self._factories: dict[tuple, PCMMemoryFactory] = {}
        for profile in profiles:
            self.register(profile)

    def register(self, profile: TenantProfile) -> None:
        if profile.name in self._profiles:
            raise ConfigError(f"duplicate tenant profile {profile.name!r}")
        self._profiles[profile.name] = profile

    def names(self) -> list[str]:
        return sorted(self._profiles)

    def get(self, name: str) -> Optional[TenantProfile]:
        return self._profiles.get(name)

    def memory_for(
        self, profile: TenantProfile, tier: int = 0
    ) -> Optional[PCMMemoryFactory]:
        """The (cached) memory factory of ``profile`` at ladder position
        ``tier``; ``None`` for the precise lane."""
        tier_t = profile.tier_t(tier)
        if tier_t is None:
            return None
        key = (profile.levels, tier_t, profile.fit_samples)
        factory = self._factories.get(key)
        if factory is None:
            factory = self._factories[key] = PCMMemoryFactory(
                MLCParams(levels=profile.levels, t=tier_t),
                fit_samples=profile.fit_samples,
            )
        return factory

    def warm(self) -> None:
        """Compile every profile's full tier ladder up front.

        Model fits are Monte-Carlo runs (disk-cached); doing them lazily
        would bill the first unlucky request with seconds of fitting.
        The server calls this before accepting connections.
        """
        for profile in self._profiles.values():
            for tier in range(max(1, len(profile.tiers))):
                self.memory_for(profile, tier)

    def describe(self, tiers: Optional[dict[str, int]] = None) -> list[dict]:
        """JSON-ready summaries, honouring current degradation tiers."""
        tiers = tiers or {}
        return [
            self._profiles[name].describe(tiers.get(name, 0))
            for name in self.names()
        ]


def load_profiles(path: "str | Path") -> list[TenantProfile]:
    """Read a tenant-profile JSON file (a list of profile objects)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read tenant file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"tenant file {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(raw, list) or not raw:
        raise ConfigError(
            f"tenant file {path} must hold a non-empty JSON list of profiles"
        )
    return [profile_from_dict(entry) for entry in raw]
