"""The simulation-fidelity selector, kept for the benchmark harness.

Every run simulates each descriptor event by event; there is one
execution model.  This module survives only because the benchmark
harness (``perfbench/workloads.py``) calls :func:`install_fidelity`
with ``"des"`` before each workload.
"""

from __future__ import annotations


def install_fidelity(mode: str) -> None:
    """Accept ``"des"``, the only execution model; raise ``ValueError`` otherwise."""
    if mode != "des":
        raise ValueError(f"unknown fidelity mode {mode!r}; the only one is 'des'")
