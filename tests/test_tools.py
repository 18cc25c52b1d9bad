"""tools/mc_gate_scan.py: the benchmark's mc_sampling ops replayed and gated."""

import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_scan_tool():
    spec = importlib.util.spec_from_file_location("mc_gate_scan", ROOT / "tools" / "mc_gate_scan.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_digests_the_counts_of_the_timed_ops(capsys, monkeypatch):
    tool = load_scan_tool()
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    wl = workloads.MonteCarloSampling(301, str(ROOT))
    expected = hashlib.sha256()
    for index in range(6):
        stats = wl.run(wl.make(index))["w1"]
        expected.update(f"{stats.successes},{stats.total_bits}\n".encode())
    assert tool.scan(301, 6) == ([], expected.hexdigest())
    assert tool.main(["--seed", "301", "--ops", "6"]) == 0
    assert capsys.readouterr().out == f"seed 301 ops 6 failed 0 sha256 {expected.hexdigest()}\n"


def test_scan_reports_every_failing_op(monkeypatch):
    tool = load_scan_tool()
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    def second_op_of_each_cycle_fails(self, op, result):
        if op["m"] == 4:  # ops 1, 4, 7, ... of the three-op cycle
            raise workloads.GateError("forced")

    monkeypatch.setattr(workloads.MonteCarloSampling, "check", second_op_of_each_cycle_fails)
    failures, _ = tool.scan(301, 6)
    assert failures == [(1, "GateError: forced"), (4, "GateError: forced")]
