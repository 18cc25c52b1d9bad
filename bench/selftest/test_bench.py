"""Self-test of the benchmark, kept apart from the package's tests.

    python -m pytest bench/selftest -q

A short run of every workload, untraced and traced, must print every metric
that BENCHMARK.json names, with its unit and sample count, and end with the
result line. The correctness gate must trip when it is fed a wrong expected
figure, counts must repeat exactly across seeds, and the benchmark must fail
without printing a result where the package source is missing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
LINE = re.compile(r"^metric (\S+) (\S+) (\S+) n=(\d+)$")


@pytest.fixture
def short(monkeypatch, capsys):
    """Run one workload in process, briefly: one whole cycle, one set-up."""
    monkeypatch.setattr(harness, "MIN_OPS", 0)
    monkeypatch.setattr(harness, "SETUP_REPS", 1)

    def go(workload: str, trace: int, seed: int = 7):
        result = harness.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)])
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[-1]) == result
        return result, lines

    return go


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed_with_unit_and_sample_count(short, workload, trace):
    result, lines = short(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {m[1]: (m[3], int(m[4])) for m in map(LINE.match, lines) if m}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in spec}
    for metric in spec:
        unit, count = printed[metric["name"]]
        assert unit == metric["unit"] == result["metrics"][metric["name"]]["unit"]
        assert count >= 1
        assert isinstance(result["metrics"][metric["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", NAMES)
def test_gate_trips_on_a_wrong_expected_figure(short, monkeypatch, workload):
    monkeypatch.setitem(workloads.FIGURES, "general", (0.6, 0.5))
    monkeypatch.setitem(workloads.WIRE, ("real", "psi"), "11")
    result, _ = short(workload, 0)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


@pytest.mark.parametrize("workload", NAMES)
def test_counts_repeat_exactly_across_seeds(short, workload):
    counts = []
    for seed in (3, 4):
        result, _ = short(workload, 1, seed)
        counts.append({
            name: value["value"] for name, value in result["metrics"].items()
            if value["unit"] in ("count", "B") and name != "cli.stdout_bytes"
        })
    assert counts[0] == counts[1]
    assert counts[0]["analysis.exact_analyze.measure_calls"] == 4
    assert counts[0]["analysis.trial_rng.calls_per_trial"] == 1


def test_fails_without_printing_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [*SPEC["command"], "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
