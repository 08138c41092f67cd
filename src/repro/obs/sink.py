"""Incremental experiment-result writes: a per-run JSONL sink.

Experiments historically accumulated everything — series, tables,
anchors — in an :class:`~repro.experiments.base.ExperimentResult` and
the CLI dumped it at the end, so a crashed or OOM-killed sweep left
nothing behind and the whole run had to fit in memory.  A
:class:`ResultSink` turns that into a stream: each completed sweep
series, anchor check, and per-experiment outcome is appended to a
JSONL file *as it happens* (one flushed line each, O(1) memory), and a
final :meth:`finalize` pass merges worker shards and writes a compact
``<path>.summary.json`` index.

Line shapes (one JSON object per line, ``kind`` discriminates)::

    {"kind": "series", "exp": "fig2", "label": "sync:MEMMOVE", "points": [[x, y], ...]}
    {"kind": "anchor", "exp": "fig2", "name": "...", "holds": true, ...}
    {"kind": "result", "exp": "fig2", "wall": 1.2, "cached": false, ...}

The sink follows the tracer/metrics pattern: :func:`install_sink` makes
one sink ambient so experiments stream points without threading an
argument through every ``run()``; the parallel runner gives each worker
its own shard file and splices shards into the parent sink in request
order (a line-by-line copy — shards are never materialized).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from repro.config import active_config


class ResultSink:
    """Append-only JSONL writer for streaming run results."""

    def __init__(self, path: os.PathLike):
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self.lines = 0

    # -- writes ----------------------------------------------------------
    def write(self, kind: str, **fields: Any) -> None:
        """Append one record and flush it (crash-durable up to the line)."""
        if self._fh is None:
            raise ValueError(f"sink {self.path} is closed")
        record = {"kind": kind}
        record.update(fields)
        self._fh.write(json.dumps(record, default=str))
        self._fh.write("\n")
        self._fh.flush()
        self.lines += 1

    def series(self, exp_id: str, label: str, points) -> None:
        """One completed sweep series (a finished line of a figure)."""
        self.write("series", exp=exp_id, label=label, points=[list(p) for p in points])

    def anchor(self, exp_id: str, name: str, expected: str, measured: str, holds: bool) -> None:
        self.write(
            "anchor", exp=exp_id, name=name, expected=expected, measured=measured,
            holds=bool(holds),
        )

    def result(self, exp_id: str, **fields: Any) -> None:
        """Per-experiment outcome summary (wall, cached, anchor tally…)."""
        self.write("result", exp=exp_id, **fields)

    def absorb_file(self, shard_path: os.PathLike) -> int:
        """Splice a worker shard in, line by line; returns lines copied.

        Raw lines are copied without parsing (they were written by
        another :class:`ResultSink`, so they are already one JSON object
        each); a missing shard — the worker died before writing — is a
        no-op, not an error.
        """
        if self._fh is None:
            raise ValueError(f"sink {self.path} is closed")
        copied = 0
        try:
            fh = open(shard_path, "r", encoding="utf-8")
        except OSError:
            return 0
        with fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                self._fh.write(line)
                self._fh.write("\n")
                copied += 1
        self._fh.flush()
        self.lines += copied
        return copied

    # -- final merge -----------------------------------------------------
    def finalize(self) -> Dict[str, Any]:
        """Close the stream and write ``<path>.summary.json``.

        Re-reads the JSONL one line at a time (constant memory) to build
        the index: per-experiment line counts, anchor tallies, and total
        wall time.  The active run config is recorded as provenance
        (``RunConfig(**summary["config"])`` rebuilds it).  Returns the
        summary dict.
        """
        self.close()
        experiments: Dict[str, Dict[str, Any]] = {}
        totals = {"lines": 0, "series": 0, "anchors": 0, "anchors_held": 0, "wall_s": 0.0}
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                totals["lines"] += 1
                exp = record.get("exp", "?")
                per = experiments.setdefault(
                    exp, {"series": 0, "anchors": 0, "anchors_held": 0, "cached": False}
                )
                kind = record.get("kind")
                if kind == "series":
                    per["series"] += 1
                    totals["series"] += 1
                elif kind == "anchor":
                    per["anchors"] += 1
                    totals["anchors"] += 1
                    if record.get("holds"):
                        per["anchors_held"] += 1
                        totals["anchors_held"] += 1
                elif kind == "result":
                    per["cached"] = bool(record.get("cached"))
                    totals["wall_s"] += float(record.get("wall", 0.0))
        summary = {
            "path": self.path, "experiments": experiments,
            "config": active_config().as_dict(), **totals,
        }
        with open(self.path + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        return summary

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ResultSink":
        return self

    def __exit__(self, *exc) -> Optional[bool]:
        self.close()
        return None


_installed: Optional[ResultSink] = None


def install_sink(sink: ResultSink) -> None:
    """Make ``sink`` ambient: experiments stream sweep points to it."""
    global _installed
    _installed = sink


def uninstall_sink() -> None:
    global _installed
    _installed = None


def installed_sink() -> Optional[ResultSink]:
    return _installed
