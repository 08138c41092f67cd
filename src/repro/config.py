"""One frozen description of a run's mode: :class:`RunConfig`.

Every figure this repository regenerates is a function of three things:
the code, the run mode and the seed.  The run mode is the six values
below — seed, histogram backend, traffic scale tier and arrival
override, fleet topology and placement policy — and this module
is the only place they live.

One instance is *active* at a time (:func:`active_config`).  The CLI
builds one from its flags, and the parallel runner activates it with
:func:`using` around every experiment it runs, in-process or in a pool
worker, so a serial run, a ``--jobs N`` run and the result-cache salt
(:meth:`RunConfig.variant`) see the same values by construction.
Readers consult the active instance once per object they build (per
metric, RNG or experiment), never per simulated event.

The active instance is a plain module global, not a ``contextvar``:
runs are single-threaded and pool workers are separate processes.

This module is a leaf — it imports nothing from :mod:`repro` — so every
layer can read it; the choice tables the fields validate against live
here for the same reason.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Iterator, Tuple

#: Project-wide default seed.
DEFAULT_SEED = 0xD5A  # "DSA"

HIST_BACKENDS: Tuple[str, ...] = ("auto", "exact", "streaming")
TIER_NAMES: Tuple[str, ...] = ("small", "medium", "large")
#: ``default`` keeps each tenant's declared arrival process; the rest
#: force one process family on every tenant.
TRAFFIC_MODES: Tuple[str, ...] = ("default", "poisson", "bursty", "diurnal")
PLACEMENTS: Tuple[str, ...] = ("round-robin", "numa-local", "least-loaded")

#: Field -> (noun for error messages, allowed values).
_CHOICES = {
    "hist_backend": ("histogram backend", HIST_BACKENDS),
    "tier": ("scale tier", TIER_NAMES),
    "traffic": ("traffic mode", TRAFFIC_MODES),
    "placement": ("placement policy", PLACEMENTS),
}

#: Field -> cache-salt key.  The keys predate this class and are part
#: of every stored cache key, so they never change.
_SALT_KEYS = {
    "hist_backend": "hist",
    "tier": "tier",
    "traffic": "traffic",
    "fleet": "fleet",
    "placement": "placement",
}


def parse_fleet(text: str) -> Tuple[int, int]:
    """Parse a ``--fleet`` value like ``"2x4"`` → ``(2, 4)``."""
    parts = text.lower().split("x") if isinstance(text, str) else []
    if len(parts) != 2:
        raise ValueError(
            f"--fleet expects SOCKETSxDEVICES (e.g. '2x4'), got {text!r}"
        )
    try:
        sockets, devices = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(
            f"--fleet expects SOCKETSxDEVICES (e.g. '2x4'), got {text!r}"
        ) from None
    if sockets < 1 or devices < 1:
        raise ValueError(f"--fleet dimensions must be >= 1, got {text!r}")
    return sockets, devices


@dataclass(frozen=True)
class RunConfig:
    """The complete run mode; every field is validated on construction."""

    seed: int = DEFAULT_SEED
    hist_backend: str = "auto"
    tier: str = "small"
    traffic: str = "default"
    #: ``SOCKETSxDEVICES``, stored canonically (``"2X4"`` → ``"2x4"``).
    fleet: str = "1x1"
    placement: str = "round-robin"

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise TypeError(f"seed must be an int, got {type(self.seed).__name__}")
        for name, (noun, choices) in _CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(f"unknown {noun} {value!r}; choose from {list(choices)}")
        sockets, devices = parse_fleet(self.fleet)
        object.__setattr__(self, "fleet", f"{sockets}x{devices}")

    def variant(self) -> str:
        """Cache-key salt: non-default fields as sorted ``key=value`` pairs.

        Defaults are elided, so the default config salts with ``""`` and
        keeps every key stored before a field existed; the seed is
        keyed separately by the cache.  Values are validated choices,
        so the ``=``/``,`` separators cannot occur inside one.
        """
        pairs = sorted(
            (_SALT_KEYS[f.name], getattr(self, f.name))
            for f in fields(self)
            if f.name in _SALT_KEYS and getattr(self, f.name) != f.default
        )
        return ",".join(f"{key}={value}" for key, value in pairs)

    def as_dict(self) -> Dict[str, Any]:
        """Every field, seed included (``RunConfig(**d)`` round-trips)."""
        return asdict(self)


_active = RunConfig()


def active_config() -> RunConfig:
    """The run mode in effect right now."""
    return _active


@contextlib.contextmanager
def using(config: RunConfig) -> Iterator[RunConfig]:
    """Make ``config`` active for the block; restores the previous one."""
    global _active
    previous = _active
    _active = config
    try:
        yield config
    finally:
        _active = previous


def update(**changes: Any) -> RunConfig:
    """Replace fields of the active config (validated); returns it.

    The per-subsystem installers (``install_seed``,
    ``set_default_tier``, …) are one call to this each.
    """
    global _active
    _active = replace(_active, **changes)
    return _active
