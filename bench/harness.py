"""Timed and traced runs of one benchmark workload.

``--trace 0`` sets up ``SETUP_REPS`` times, runs whole cycles of the workload
untraced for ``--seconds`` (and at least ``MIN_OPS`` ops), gates a few ops
made from a hold-out seed, and reports the end-to-end metrics. Each timing is
the median over ``BLOCKS`` consecutive stretches of whole cycles of that
stretch's figure, so a burst of load on the host moves at most one of them.
``--trace 1`` runs a slice of the workload untraced and then the same ops
traced (their ratio is the tracing overhead), runs a fixed probe of every
layer that is the same for every workload, and reports the per-layer
metrics. Every op is checked; failures are counted in ``failed``, never
dropped. A copy of the result with the environment record, and the spans of
a traced run, are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bellrsp
import numpy

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 5
BLOCKS = 3  # timings are medians over this many stretches of the timed run
MIN_OPS = 100 * BLOCKS  # so that ten samples lie beyond each stretch's p90 ...
MAX_STRETCH = 1.2  # ... unless that would take longer than this many times --seconds
HOLDOUT_OFFSET = 1_000_003  # the hold-out seed is the workload seed plus this
HOLDOUT_OPS = 6
IMPORT_REPS = 5
TRACE_SLICE_S = 5.0  # whole cycles of the workload are replayed traced; this bounds the spans kept
POOL_REPS = 5

IMPORT_BELLRSP = "import time; t = time.perf_counter(); import bellrsp; print(time.perf_counter() - t)"
IMPORT_NUMPY = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
IMPORT_CLI = "import time, numpy; t = time.perf_counter(); import bellrsp.cli; print(time.perf_counter() - t)"


class Counter:
    """Ops attempted and failed; every failure is kept and the first few are shown."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def gate(self, label: str, check, op, result, error: BaseException | None) -> None:
        self.attempted += 1
        try:
            if error is not None:
                raise error
            check(op, result)
        except Exception as exc:  # a failing op is counted, never dropped
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            if len(self.failures) <= 5:
                print(f"FAILED {self.failures[-1]}", file=sys.stderr)


def timed(fn, *args):
    t0 = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:
        result, error = None, exc
    return result, error, time.perf_counter() - t0


def child_seconds(code: str, env: dict) -> float:
    """Seconds a fresh interpreter reports for ``code``."""
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def child_wall(args: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


def setup(wl, counter: Counter, env: dict, tallies: list) -> list[float]:
    """Set up SETUP_REPS times: import in a fresh interpreter, first-cycle inputs, one warm-up op.

    The warm-up op runs as ``cold_run``. Warm-up ops come from the last
    three of the cycle, where each workload puts its largest shape, so
    allocator thresholds settle before timing.
    """
    times = []
    for rep in range(SETUP_REPS):
        import_s = child_seconds(IMPORT_BELLRSP, env)
        t0 = time.perf_counter()
        [wl.make(i) for i in range(wl.cycle)]
        op = wl.make(wl.cycle - 1 - rep % 3, "warmup")
        result, error, _ = timed(wl.cold_run, op)
        times.append(import_s + time.perf_counter() - t0)
        counter.gate(f"warmup {rep}", wl.cold_check, op, result, error)
        if result is not None:
            tallies.append(wl.tally(result))
    return times


def cycles_for(wl, seconds: float, run, check, counter: Counter, label: str, min_ops: int = 0, min_cycles: int = 1,
               keep_ops: bool = False):
    """Whole cycles of ops until ``seconds`` have passed, ``min_cycles`` ran and ``min_ops`` ran.

    A slow machine stops adding cycles for ``min_ops`` after MAX_STRETCH
    times ``seconds``; the sample count printed with each metric shows it.

    Returns (ops if ``keep_ops``, op seconds). Results are dropped once
    checked, so the benchmark holds no program state between ops and the
    garbage collector's work does not grow during the run.
    """
    ops, times = [], []
    start = time.perf_counter()
    index = 0
    while True:
        for _ in range(wl.cycle):
            op = wl.make(index)
            result, error, dt = timed(run, op)
            counter.gate(f"{label} op {index}", check, op, result, error)
            if keep_ops:
                ops.append(op)
            times.append(dt)
            index += 1
        elapsed = time.perf_counter() - start
        if index < min_cycles * wl.cycle:
            continue
        if elapsed >= seconds and (len(times) >= min_ops or elapsed >= MAX_STRETCH * seconds):
            return ops, times


def holdout(wl, counter: Counter, tallies: list) -> None:
    """Gate a few ops made from the hold-out seed, which no tuning has seen."""
    other = type(wl)(wl.seed + HOLDOUT_OFFSET, str(ROOT))
    for i in range(min(wl.cycle, HOLDOUT_OPS)):
        op = other.make(i)
        result, error, _ = timed(other.cold_run, op)
        counter.gate(f"holdout op {i}", other.cold_check, op, result, error)
        if result is not None:
            tallies.append(other.tally(result))


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, children) / 1024.0


def block_medians(times: list[float], cycle: int) -> tuple[float, float, float, int]:
    """(p50 s, p90 s, ops/s), each the median over BLOCKS stretches; and the smallest stretch's op count.

    The stretches are consecutive and hold whole cycles, so each has the same
    mix of op shapes.
    """
    cycles = len(times) // cycle
    bounds = [cycle * (cycles * b // BLOCKS) for b in range(BLOCKS + 1)]
    blocks = [times[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    figures = [(statistics.median(b), statistics.quantiles(b, n=10)[8], len(b) / sum(b)) for b in blocks]
    p50, p90, rate = (statistics.median(column) for column in zip(*figures))
    return p50, p90, rate, min(map(len, blocks))


def end_to_end(wl, seconds: float, counter: Counter, setup_times: list[float], tallies: list) -> tuple[dict, dict]:
    """Metrics as (value, unit, sample count): the end-to-end set, and extra lines for the log."""
    _, times = cycles_for(wl, seconds, wl.run, wl.check, counter, "timed", MIN_OPS, BLOCKS)
    holdout(wl, counter, tallies)
    n = len(times)
    p50, p90, rate, block_ops = block_medians(times, wl.cycle)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "op_ms_p50": (p50 * 1e3, "ms", n),
        "op_ms_p90": (p90 * 1e3, "ms", n),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "targets_per_s": (rate, "1/s", n),
    }
    print(f"info timings are medians over {BLOCKS} stretches of whole cycles; the smallest holds {block_ops} ops")
    info = {"failed_frac": (len(counter.failures) / counter.attempted, "frac", counter.attempted)}
    if wl.name == "mc_sampling":
        # workers=1 from the timed ops; workers=2 from the set-up and hold-out pairs
        info["trials_per_s"] = (rate * wl.trials, "1/s", n)
        info["trials_per_s_w2"] = (len(tallies) * wl.trials / sum(tallies), "1/s", len(tallies))
    return metrics, info


def probe(tracer: spans.Tracer, seed: int, counter: Counter) -> int:
    """Traced ops of every layer with fixed shapes; returns the CLI's stdout bytes."""
    root = str(ROOT)
    mc = workloads.MonteCarloSampling(seed, root)
    dense = workloads.DenseFanout(seed, root)
    sweep = workloads.TargetSweep(seed, root)
    cli = workloads.Cli(seed, root)
    plan = [(mc, i, "mc") for i in range(mc.cycle)]
    for index in range(dense.cycle):
        m, case, branch = dense.shape(index)
        if (case, branch) in (("real", "psi"), ("equatorial", "psi"), ("general", "psi_perp")):
            plan.append((dense, index, f"m{m}"))  # one op per correction gate
    plan += [(sweep, i, "small") for i in range(sweep.cycle)]
    plan += [(cli, i, cli.kinds[i % len(cli.kinds)]) for i in range(cli.cycle)]
    stdout_bytes = 0
    for wl, index, label in plan:
        op = wl.make(index, "probe")
        result, error, _ = timed(tracer.run_op, label, wl.run, op)
        counter.gate(f"probe {label} {index}", wl.check, op, result, error)
        if wl is cli and result is not None:
            stdout_bytes += len(result[1].encode("utf-8"))
    return stdout_bytes


def cold_cli(seed: int, counter: Counter) -> None:
    """Each kind of CLI op once as ``python -m bellrsp``, gated against in-process ``cli.main``."""
    cli = workloads.Cli(seed, str(ROOT))
    for index in range(len(cli.kinds)):
        op = cli.make(index, "cold")
        result, error, _ = timed(cli.cold_run, op)
        counter.gate(f"cold cli {op['kind']}", cli.cold_check, op, result, error)


def probe_metrics(ix: spans.SpanIndex) -> dict:
    metrics = {}

    def put(name, unit, found):
        metrics[name] = (found[0], unit, found[1])

    def count_below(i, name):
        return sum(1 for j in ix.descendants(i) if ix.name(j) == name)

    # Monte Carlo internals come from the workers=1 calls; workers=2 spans stay in the pool.
    serial = [i for i in ix.find("analysis.monte_carlo", {"mc"}) if ix.info(i)["workers"] == 1]
    trials = max(1, sum(ix.info(i)["trials"] for i in serial))
    put("analysis.trial_rng.us_p50", "us", ix.p50("analysis.trial_rng", {"mc"}, 1e-3))
    metrics["analysis.trial_rng.calls_per_trial"] = (len(ix.find("analysis.trial_rng", {"mc"})) / trials, "count", trials)
    metrics["analysis.monte_carlo.self_us_per_trial"] = (sum(ix.self_ns[i] for i in serial) * 1e-3 / trials, "us", trials)
    run_trials = sum(count_below(i, "protocol.run_trial") for i in serial)
    metrics["analysis.run_trial.calls_per_mc_call"] = (run_trials / max(1, len(serial)), "count", len(serial))

    put("analysis.exact_analyze.ms_p50", "ms", ix.p50("analysis.exact_analyze", {"small"}))
    measures = [count_below(i, "statevector.measure_in_basis") for i in ix.find("analysis.exact_analyze", {"small"})]
    metrics["analysis.exact_analyze.measure_calls"] = (statistics.median(measures) if measures else 0, "count", len(measures))
    put("analysis.emit_comparison_table.ms_p50", "ms", ix.p50("analysis.emit_comparison_table", {"small"}))
    for name in ("protocol.canonicalize_target", "protocol.alice_encode", "statevector.measure_in_basis", "statevector.apply_1q"):
        put(f"{name}.us_p50", "us", ix.p50(name, {"small"}, 1e-3))
    put("protocol.run_trial.ms_p50.small", "ms", ix.p50("protocol.run_trial", {"small"}))
    put("statevector.init.us_p50.small", "us", ix.p50("statevector.init", {"small"}, 1e-3))

    for m in (16, 18, 20):
        put(f"protocol.run_trial.ms_p50.m{m}", "ms", ix.p50("protocol.run_trial", {f"m{m}"}))
        put(f"statevector.cnot_fanout.ms_p50.m{m}", "ms", ix.p50("statevector.cnot_fanout", {f"m{m}"}))
    for name in ("protocol.bob_act", "protocol.build_target_state", "statevector.append_ancillas", "statevector.fidelity_mod_phase"):
        put(f"{name}.ms_p50.m20", "ms", ix.p50(name, {"m20"}))

    cli_labels = set(workloads.Cli.kinds)
    put("cli.build_parser.ms_p50", "ms", ix.p50("cli.build_parser", cli_labels))
    for kind in ("run", "analyze", "table", "montecarlo"):
        put(f"cli.main.ms_p50.{kind}", "ms", ix.p50("cli.main", {kind}))
    cli_self = [ix.layer_self_ns(i, "cli") * 1e-6 for i in ix.find("cli.main", cli_labels)]
    metrics["cli.self.ms_p50"] = (statistics.median(cli_self) if cli_self else 0.0, "ms", len(cli_self))
    put("cli.exit2.ms_p50", "ms", ix.p50("cli.main", {"exit2"}))
    return metrics


def workload_metrics(ix: spans.SpanIndex, untraced: list[float], traced: list[float]) -> dict:
    """Counts per op and the split of op time over layers, from the workload's traced ops."""
    roots = ix.find(spans.OP_SPAN, {"workload"})
    n = len(roots)
    in_ops = [i for i in range(len(ix.spans)) if ix.label(i) == "workload"]
    inits = [i for i in in_ops if ix.name(i) == "statevector.init"]
    cnots = [i for i in in_ops if ix.name(i) == "statevector.apply_cnot"]
    metrics = {
        "statevector.apply_cnot.calls_per_op": (len(cnots) / n, "count", n),
        "statevector.init.calls_per_op": (len(inits) / n, "count", n),
        "statevector.bytes_per_op.computed": (sum(ix.info(i)["bytes"] for i in inits) / n, "B", n),
    }
    total_ns = sum(ix.dur_ns(i) for i in roots)
    shares = {layer: 0 for layer in spans.LAYERS}
    for i in in_ops:
        layer = spans.layer_of(ix.name(i))
        if layer in shares:
            shares[layer] += ix.self_ns[i]
    unattributed = sum(ix.self_ns[i] for i in roots)
    if sum(shares.values()) + unattributed != total_ns:
        raise RuntimeError("layer self times and unattributed time do not add up to op time")
    for layer, self_ns in shares.items():
        metrics[f"{layer}.self_frac"] = (self_ns / total_ns, "frac", n)
    metrics["trace.unattributed_frac"] = (unattributed / total_ns, "frac", n)
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1.0, "frac", n)
    return metrics


def pool_startup_ms(seed: int) -> float:
    """A tiny-trial workers=2 call minus the same call with workers=1, untraced."""
    op = workloads.MonteCarloSampling(seed, str(ROOT)).make(0, "probe")
    target = bellrsp.canonicalize_target(op["a"], op["b"], op["m"])
    startup = []
    for rep in range(POOL_REPS):
        t0 = time.perf_counter()
        bellrsp.monte_carlo(target, 2, rep, workers=2)
        t1 = time.perf_counter()
        bellrsp.monte_carlo(target, 2, rep, workers=1)
        startup.append((t1 - t0) - (time.perf_counter() - t1))
    return statistics.median(startup) * 1e3


def import_metrics(env: dict) -> dict:
    """Interpreter start, the numpy import, and bellrsp's own import on top of numpy."""
    python = [child_wall(["-c", "pass"], env) for _ in range(IMPORT_REPS)]
    numpy_s = [child_seconds(IMPORT_NUMPY, env) for _ in range(IMPORT_REPS)]
    cli_s = [child_seconds(IMPORT_CLI, env) for _ in range(IMPORT_REPS)]
    return {
        "import.python_ms": (statistics.median(python) * 1e3, "ms", IMPORT_REPS),
        "import.numpy_ms": (statistics.median(numpy_s) * 1e3, "ms", IMPORT_REPS),
        "import.bellrsp_ms": (statistics.median(cli_s) * 1e3, "ms", IMPORT_REPS),
    }


def per_layer(wl, seconds: float, counter: Counter, env: dict) -> dict:
    ops, untraced = cycles_for(wl, min(seconds / 4, TRACE_SLICE_S), wl.run, wl.check, counter, "untraced", keep_ops=True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = []
        for i, op in enumerate(ops):
            result, error, dt = timed(tracer.run_op, "workload", wl.run, op)
            counter.gate(f"traced op {i}", wl.check, op, result, error)
            traced.append(dt)
        stdout_bytes = probe(tracer, wl.seed, counter)
    finally:
        tracer.uninstall()
    cold_cli(wl.seed, counter)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl.gz")
    ix = spans.SpanIndex(tracer)
    print(f"info trace spans={len(ix.spans)} workload_ops={len(ops)}; spans inside pool workers are not collected")
    return {
        **probe_metrics(ix),
        "analysis.pool_startup_ms": (pool_startup_ms(wl.seed), "ms", POOL_REPS),
        "cli.stdout_bytes": (stdout_bytes, "count", workloads.Cli.cycle),
        **import_metrics(env),
        **workload_metrics(ix, untraced, traced),
    }


def environment(name: str, seed: int) -> dict:
    cpu_model = llc = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "unknown")
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        levels = sorted(caches.glob("index*"), key=lambda p: int((p / "level").read_text()))
        llc = f"L{(levels[-1] / 'level').read_text().strip()} {(levels[-1] / 'size').read_text().strip()}"
    except (OSError, ValueError, IndexError):
        pass
    git_sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = "unknown (git failed)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "bellrsp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "holdout_seed": seed + HOLDOUT_OFFSET,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "cpu_model": cpu_model,
        "llc": llc,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description="bellrsp benchmark: one workload, closed loop, one client.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> dict:
    args = parse_args(argv)
    if Path(bellrsp.__file__).resolve().parent != SRC / "bellrsp":
        raise SystemExit(f"bench: imported bellrsp from {bellrsp.__file__}, not from {SRC}")
    env = workloads.child_env(str(ROOT))
    wl = workloads.WORKLOADS[args.workload](args.seed, str(ROOT))
    record = environment(wl.name, wl.seed)
    print("env " + json.dumps(record, sort_keys=True))
    counter = Counter()
    tallies = []
    setup_times = setup(wl, counter, env, tallies)
    if args.trace:
        metrics, info = per_layer(wl, args.seconds, counter, env), {}
    else:
        metrics, info = end_to_end(wl, args.seconds, counter, setup_times, tallies)
    for name, (value, unit, n) in {**metrics, **info}.items():
        print(f"metric {name} {value!r} {unit} n={n}")
    result = {
        "correct": not counter.failures,
        "attempted": counter.attempted,
        "failed": len(counter.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    saved = {**result, "samples": {k: v[2] for k, v in metrics.items()}, "info": info, "env": record, "failures": counter.failures}
    (OUT / f"result-{wl.name}-seed{wl.seed}-trace{args.trace}.json").write_text(json.dumps(saved, indent=1))
    print(json.dumps(result))
    return result
