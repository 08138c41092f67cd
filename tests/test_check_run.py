"""scripts/check_run.py: the CI assertions over saved run output."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_run", Path(__file__).resolve().parents[1] / "scripts" / "check_run.py"
)
check_run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_run)

RUN = """=== fig2: transfer size ===
[OK ] anchor a: paper=1 measured=1
[fig2 finished in 0.9s]

=== fleet-scaling: devices ===
[OK ] anchor b: paper=2 measured=2
[fleet-scaling finished in 1.2s]

Run summary
Experiment  Anchors  Status  Wall (s)
fig2        1/1      pass    0.9
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_keep_drops_wall_lines_and_the_summary(tmp_path):
    kept = check_run.keep(_write(tmp_path, "a.txt", RUN))
    assert not any("finished in" in line for line in kept)
    assert "Run summary" not in kept and not any("Wall" in line for line in kept)
    assert kept[0].startswith("=== fig2")


def test_same_output_ignores_wall_time_only(tmp_path):
    a = _write(tmp_path, "a.txt", RUN)
    b = _write(tmp_path, "b.txt", RUN.replace("0.9", "3.4"))
    assert check_run.main(["same-output", a, b]) == 0
    c = _write(tmp_path, "c.txt", RUN.replace("measured=2", "measured=3"))
    assert check_run.main(["same-output", a, c]) == 1
    # Only fig2's block is compared with --section.
    assert check_run.main(["same-output", a, c, "--section", "fig2"]) == 0
    assert check_run.main(["same-output", a, c, "--section", "fig9"]) == 1


def test_anchors_hold(tmp_path):
    assert check_run.main(["anchors-hold", _write(tmp_path, "ok.txt", RUN)]) == 0
    missed = _write(tmp_path, "miss.txt", RUN.replace("[OK ] anchor b", "[MISS] anchor b"))
    assert check_run.main(["anchors-hold", missed]) == 1
    assert check_run.main(["anchors-hold", _write(tmp_path, "none.txt", "nothing\n")]) == 1


def test_warm_cache(tmp_path):
    cold = _write(tmp_path, "cold.txt", RUN)
    warm = _write(tmp_path, "warm.txt", RUN.replace("0.9s]", "0.0s (cached)]"))
    assert check_run.main(["warm-cache", cold, warm, "0", "10", "11"]) == 0
    # Slower than cold, or no cache hit: fail.
    assert check_run.main(["warm-cache", cold, warm, "0", "10", "30"]) == 1
    assert check_run.main(["warm-cache", cold, cold, "0", "10", "11"]) == 1


@pytest.mark.parametrize("events, code", [([["B", "x"]], 0), ([], 1)])
def test_trace_nonempty(tmp_path, events, code):
    path = _write(tmp_path, "t.json", json.dumps(events))
    assert check_run.main(["trace-nonempty", path]) == code
