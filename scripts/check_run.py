"""Assertions over saved ``python -m repro run`` output, for CI.

Each subcommand checks files an earlier CI step wrote and exits non-zero
with a one-line reason when the check fails::

    python scripts/check_run.py same-output A B [--section EXP]
        A and B print the same experiment output (wall-clock lines and
        the trailing run-summary table ignored); with --section, only
        experiment EXP's block is compared.
    python scripts/check_run.py anchors-hold PATH
        PATH has at least one held anchor and no missed one.
    python scripts/check_run.py warm-cache COLD WARM T0 T1 T2
        The warm run (T1..T2) hit the cache, printed the cold run's
        (T0..T1) anchor lines, and finished faster.
    python scripts/check_run.py trace-nonempty PATH
        PATH is a Chrome trace JSON array with at least one event.

Runs need no ``PYTHONPATH``: only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


class CheckFailed(Exception):
    """One check did not hold; the message says which and why."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def keep(path: str) -> List[str]:
    """A run's lines minus its nondeterministic parts.

    Drops ``[... finished in N.Ns]`` lines and everything from the
    ``Run summary`` table on (its Wall column is the one legitimately
    nondeterministic part of the output).
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if "Run summary" in lines:
        lines = lines[: lines.index("Run summary")]
    return [line for line in lines if "finished in" not in line]


def section(lines: List[str], exp_id: str) -> List[str]:
    """The ``=== exp_id ...`` block of ``lines``, up to the next header."""
    starts = [i for i, line in enumerate(lines) if line.startswith(f"=== {exp_id}")]
    require(bool(starts), f"no '=== {exp_id}' section")
    start = starts[0]
    end = next(
        (i for i, line in enumerate(lines) if i > start and line.startswith("===")),
        len(lines),
    )
    return lines[start:end]


def anchor_lines(path: str) -> List[str]:
    with open(path) as fh:
        return [line for line in fh if "[OK ]" in line or "[MISS]" in line]


def same_output(a: str, b: str, exp_id: Optional[str] = None) -> str:
    left, right = keep(a), keep(b)
    if exp_id is not None:
        left, right = section(left, exp_id), section(right, exp_id)
    require(left == right, f"{b} diverged from {a}")
    return f"{a} == {b}" + (f" ({exp_id})" if exp_id else "")


def anchors_hold(path: str) -> str:
    with open(path) as fh:
        text = fh.read()
    require("[OK ]" in text, f"no anchor lines in {path}")
    require("[MISS]" not in text, f"anchors missed in {path}")
    return f"anchors hold in {path}"


def warm_cache(cold: str, warm: str, t0: float, t1: float, t2: float) -> str:
    cold_s, warm_s = t1 - t0, t2 - t1
    cold_anchors, warm_anchors = anchor_lines(cold), anchor_lines(warm)
    require(cold_anchors, "cold run produced no anchor lines")
    require(cold_anchors == warm_anchors, "cached run changed anchor output")
    require(not any("MISS" in line for line in cold_anchors), "anchors missed")
    with open(warm) as fh:
        require("(cached)" in fh.read(), "second run did not hit the cache")
    require(
        warm_s < cold_s, f"warm-cache run ({warm_s:.1f}s) not faster than cold ({cold_s:.1f}s)"
    )
    return f"cold {cold_s:.1f}s, warm {warm_s:.1f}s"


def trace_nonempty(path: str) -> str:
    with open(path) as fh:
        events = json.load(fh)
    require(events, f"empty trace {path}")
    return f"{len(events)} trace events"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="check", required=True)
    p = sub.add_parser("same-output")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--section", metavar="EXP")
    sub.add_parser("anchors-hold").add_argument("path")
    p = sub.add_parser("warm-cache")
    p.add_argument("cold")
    p.add_argument("warm")
    for name in ("t0", "t1", "t2"):
        p.add_argument(name, type=float)
    sub.add_parser("trace-nonempty").add_argument("path")
    args = parser.parse_args(argv)
    try:
        if args.check == "same-output":
            message = same_output(args.a, args.b, args.section)
        elif args.check == "anchors-hold":
            message = anchors_hold(args.path)
        elif args.check == "warm-cache":
            message = warm_cache(args.cold, args.warm, args.t0, args.t1, args.t2)
        else:
            message = trace_nonempty(args.path)
    except CheckFailed as err:
        print(f"check_run {args.check}: FAILED: {err}", file=sys.stderr)
        return 1
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
