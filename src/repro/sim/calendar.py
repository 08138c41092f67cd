"""The event calendar's backend selector, kept for the benchmark harness.

The engine has one calendar, the binary heap in
:class:`repro.sim.engine.Environment`.  This module survives only
because the benchmark harness (``perfbench/workloads.py``) calls
:func:`set_default_calendar` with ``"heap"`` before each workload.
"""

from __future__ import annotations


def set_default_calendar(backend: str) -> None:
    """Accept ``"heap"``, the only calendar; raise ``ValueError`` otherwise."""
    if backend != "heap":
        raise ValueError(f"unknown calendar backend {backend!r}; the only one is 'heap'")
