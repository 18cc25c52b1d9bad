"""The benchmark's workloads: input generation, one op, and its gate.

Each workload is a closed loop with one client. Op ``i`` is a pure function
of (workload, seed, stream, i), so a seed always yields the same inputs. The
op structure (case, m, branch, subcommand) follows a fixed cycle and only the
coefficients and seeds are random, so exact counts per op do not depend on
the seed. Every op is checked after it is timed; a wrong result raises
``GateError``, and so does anything the program raises.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time

import bellrsp
import bellrsp.cli

SQRT_HALF = 1.0 / math.sqrt(2.0)

# What a correct program must give, from the paper: (p_success, expected bits)
# per target case, and the codec's message for each forced branch.
FIGURES = {
    "general": (0.5, 0.5),
    "real": (1.0, 1.5),
    "equatorial": (1.0, 1.5),
}
WIRE = {
    ("general", "psi_perp"): "0",
    ("general", "psi"): "ABORT",
    ("real", "psi_perp"): "0",
    ("real", "psi"): "10",
    ("equatorial", "psi_perp"): "0",
    ("equatorial", "psi"): "11",
}
EXACT_TOL = 1e-12
FIDELITY_FLOOR = 1.0 - 1e-9
MC_SIGMAS = 5.0

# Offsets from a class boundary: inside bellrsp's CASE_TOL (1e-9), and outside.
EDGE_IN = 0.5e-9
EDGE_OUT = 2e-9

CASES = ("general", "real", "equatorial")  # a fan-out case last, for warm-up
BRANCHES = ("psi_perp", "psi")


class GateError(Exception):
    """An op's output does not match what a correct program gives."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def op_rng(workload: str, seed: int, stream: str, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}/{index}")


def _phase_angle(rng: random.Random) -> float:
    """A relative phase at least 0.2 rad from 0 and from pi, so |Im beta| is large."""
    return rng.choice((1.0, -1.0)) * rng.uniform(0.2, math.pi - 0.2)


def make_pair(rng: random.Random, variant: str) -> tuple[float, complex, str]:
    """A canonical unit-norm (alpha, beta) and the case bellrsp must assign.

    ``*_edge`` variants lie within ``EDGE_IN`` of a special class (so they
    belong to it); ``general_edge`` lies ``EDGE_OUT`` from the real class.
    """
    sign = rng.choice((1.0, -1.0))
    if variant == "general":
        alpha = rng.uniform(0.1, 0.65)
        t = _phase_angle(rng)
        beta = math.sqrt(1 - alpha * alpha) * complex(math.cos(t), math.sin(t))
        return alpha, beta, "general"
    if variant in ("real", "real_edge", "general_edge"):
        alpha = rng.uniform(0.1, 0.65) if variant == "general_edge" else rng.uniform(0.05, 0.95)
        imag = {"real": 0.0, "real_edge": EDGE_IN, "general_edge": EDGE_OUT}[variant]
        imag *= rng.choice((1.0, -1.0))
        beta = complex(sign * math.sqrt(1 - alpha * alpha - imag * imag), imag)
        return alpha, beta, "general" if variant == "general_edge" else "real"
    if variant in ("equatorial", "equatorial_edge"):
        alpha = SQRT_HALF + (sign * EDGE_IN if variant == "equatorial_edge" else 0.0)
        t = _phase_angle(rng)
        beta = math.sqrt(1 - alpha * alpha) * complex(math.cos(t), math.sin(t))
        return alpha, beta, "equatorial"
    raise ValueError(f"unknown variant {variant!r}")


def raw_pair(rng: random.Random, alpha: float, beta: complex) -> tuple[complex, complex]:
    """The same state under a random global phase, for canonicalize_target to remove."""
    phi = rng.uniform(-math.pi, math.pi)
    phase = complex(math.cos(phi), math.sin(phi))
    return alpha * phase, beta * phase


def check_case(target, case: str) -> None:
    _require(target.case_tag.value == case, f"classified {target.case_tag.value}, expected {case}")


def check_exact(analysis, case: str) -> None:
    p, bits = FIGURES[case]
    _require(
        abs(analysis.p_success - p) <= EXACT_TOL and abs(analysis.expected_bits - bits) <= EXACT_TOL,
        f"exact {analysis.p_success!r}/{analysis.expected_bits!r}, expected {p}/{bits} ({case})",
    )


def check_trial(record, case: str, branch: str, m: int) -> None:
    wire = WIRE[(case, branch)]
    _require(record.outcome.value == branch, f"outcome {record.outcome.value}, forced {branch}")
    _require(record.message.to_wire() == wire, f"message {record.message.to_wire()!r}, expected {wire!r} ({case}/{branch})")
    if wire == "ABORT":
        _require(record.bob_state is None and not record.success, f"{case}/{branch} should abort")
    else:
        _require(record.fidelity >= FIDELITY_FLOOR and record.success, f"fidelity {record.fidelity!r} ({case}/{branch}, m={m})")
        _require(record.bob_state.n_qubits == m, f"receiver holds {record.bob_state.n_qubits} qubits, expected {m}")
    _require(record.bits_sent == (0 if wire == "ABORT" else len(wire)), f"bits_sent {record.bits_sent} for {wire!r}")


def check_sampled(success_rate: float, mean_bits: float, trials: int, case: str) -> None:
    """Both estimates within MC_SIGMAS binomial standard errors of the exact figure.

    Each branch has probability 1/2 and the two branches send 1 and 0 or 2
    bits, so the per-trial bit count has variance 1/4 in every case.
    """
    p, bits = FIGURES[case]
    se_p = math.sqrt(p * (1 - p) / trials)
    se_bits = math.sqrt(0.25 / trials)
    _require(abs(success_rate - p) <= MC_SIGMAS * se_p, f"success_rate {success_rate!r}, exact {p} ({case}, n={trials})")
    _require(abs(mean_bits - bits) <= MC_SIGMAS * se_bits, f"mean_bits {mean_bits!r}, exact {bits} ({case}, n={trials})")


class Workload:
    """One workload: ``cycle`` ops form the fixed structure that repeats."""

    name = ""
    cycle = 1

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed
        self.root = root

    def make(self, index: int, stream: str = "op"):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> None:
        raise NotImplementedError

    def tally(self, result):
        """What the run keeps of a checked ``cold_run`` result."""
        return None

    def cold_run(self, op):
        """The op as set-up and the hold-out check run it."""
        return self.run(op)

    def cold_check(self, op, result) -> None:
        self.check(op, result)


class MonteCarloSampling(Workload):
    """One seeded monte_carlo call with workers=1 on a small-m target.

    Set-up and the hold-out check run the same call with workers=1 and then
    workers=2 and require identical stats, the package's promise that the
    result does not depend on the worker count. The timed op leaves the pool
    out: forking workers made its time swing with the host's load far more
    than any other op's.
    """

    name = "mc_sampling"
    cycle = 3
    trials = 4000
    ms = (3, 4, 5)

    def make(self, index, stream="op"):
        rng = op_rng(self.name, self.seed, stream, index)
        alpha, beta, case = make_pair(rng, CASES[index % 3])
        a, b = raw_pair(rng, alpha, beta)
        return {"a": a, "b": b, "m": self.ms[index % 3], "case": case, "seed": rng.getrandbits(32)}

    def _target(self, op):
        return bellrsp.canonicalize_target(op["a"], op["b"], op["m"])

    def run(self, op):
        target = self._target(op)
        return {"target": target, "w1": bellrsp.monte_carlo(target, self.trials, op["seed"], workers=1)}

    def check(self, op, result):
        check_case(result["target"], op["case"])
        stats = result["w1"]
        _require(stats.trials == self.trials, f"trials {stats.trials}")
        check_sampled(stats.success_rate, stats.mean_bits, stats.trials, op["case"])

    def cold_run(self, op):
        target = self._target(op)
        serial = bellrsp.monte_carlo(target, self.trials, op["seed"], workers=1)
        t1 = time.perf_counter()
        pooled = bellrsp.monte_carlo(target, self.trials, op["seed"], workers=2)
        return {"target": target, "w1": serial, "w2": pooled, "w2_s": time.perf_counter() - t1}

    def cold_check(self, op, result):
        self.check(op, result)
        _require(result["w1"].to_json_dict() == result["w2"].to_json_dict(), "workers=1 and workers=2 disagree")

    def tally(self, result):
        return result["w2_s"]


class DenseFanout(Workload):
    """One forced run_trial at large m; both branches of each case, m in 16, 18, 20."""

    name = "dense_fanout"
    ms = (16, 18, 20)
    cycle = len(ms) * len(CASES) * len(BRANCHES)

    def shape(self, index):
        m = self.ms[index // 6 % 3]
        return m, CASES[index // 2 % 3], BRANCHES[index % 2]

    def make(self, index, stream="op"):
        rng = op_rng(self.name, self.seed, stream, index)
        m, case, branch = self.shape(index)
        alpha, beta, case = make_pair(rng, case)
        a, b = raw_pair(rng, alpha, beta)
        return {"a": a, "b": b, "m": m, "case": case, "branch": branch}

    def run(self, op):
        target = bellrsp.canonicalize_target(op["a"], op["b"], op["m"])
        outcome = bellrsp.Outcome.PSI if op["branch"] == "psi" else bellrsp.Outcome.PSI_PERP
        return target, bellrsp.run_trial(target, outcome)

    def check(self, op, result):
        target, record = result
        check_case(target, op["case"])
        check_trial(record, op["case"], op["branch"], op["m"])


class TargetSweep(Workload):
    """One random target end to end at small m, including pairs at a class boundary."""

    name = "target_sweep"
    variants = ("general", "real", "equatorial", "real_edge", "equatorial_edge", "general_edge")
    ms = tuple(range(2, 9))
    cycle = len(variants) * len(ms)

    def make(self, index, stream="op"):
        rng = op_rng(self.name, self.seed, stream, index)
        alpha, beta, case = make_pair(rng, self.variants[index % 6])
        a, b = raw_pair(rng, alpha, beta)
        return {"a": a, "b": b, "m": self.ms[index // 6 % 7], "case": case}

    def run(self, op):
        target = bellrsp.canonicalize_target(op["a"], op["b"], op["m"])
        analysis = bellrsp.exact_analyze(target)
        perp = bellrsp.run_trial(target, bellrsp.Outcome.PSI_PERP)
        psi = bellrsp.run_trial(target, bellrsp.Outcome.PSI)
        rows = bellrsp.emit_comparison_table(target)
        return target, analysis, perp, psi, rows

    def check(self, op, result):
        target, analysis, perp, psi, rows = result
        case = op["case"]
        check_case(target, case)
        check_exact(analysis, case)
        check_trial(perp, case, "psi_perp", op["m"])
        check_trial(psi, case, "psi", op["m"])
        _require(len(rows) == 6 and rows[-1].source.value == "computed", "table shape")
        _require(abs(rows[-1].classical_bits - FIGURES[case][1]) <= EXACT_TOL, f"table bits {rows[-1].classical_bits!r}")


def child_env(root: str) -> dict:
    """Environment for a child Python: the checkout's src on the path, UTF-8 output."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def main_in_process(argv: list[str]) -> tuple[int, str, str]:
    """``bellrsp.cli.main(argv)`` with its exit code and captured output.

    argparse reports a usage error by raising SystemExit; that is the exit
    code a user would see, so it is returned like any other.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = bellrsp.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _text_fields(stdout: str) -> dict:
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value.strip()
    return fields


class Cli(Workload):
    """One in-process ``bellrsp.cli.main(argv)``; the cycle covers every subcommand and exit 2.

    The traced run also runs each kind of op cold, as ``python -m bellrsp``
    in a fresh interpreter, and requires the same exit code and stdout as in
    process. ``run`` ops force their branch, so the work in a cycle, and the
    counts per op in a traced run, do not depend on the seed; ``montecarlo``
    ops still go through the seeded sampler.
    """

    name = "cli"
    kinds = ("run", "analyze", "table", "montecarlo", "run_json", "exit2")
    ms = (3, 5, 8)
    cycle = len(kinds) * len(CASES)
    mc_trials = 500

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.env = child_env(root)

    def make(self, index, stream="op"):
        rng = op_rng(self.name, self.seed, stream, index)
        kind = self.kinds[index % len(self.kinds)]
        alpha, beta, case = make_pair(rng, CASES[index // len(self.kinds) % 3])
        m = {"run_json": 12, "exit2": 1}.get(kind, self.ms[index // len(self.kinds) % 3])
        sub = "run" if kind in ("run_json", "exit2") else kind
        # "--flag=value": argparse takes a lone "-1.2e-05" for an option, not a value
        argv = [sub, f"--alpha={alpha!r}", f"--beta-re={beta.real!r}", f"--beta-im={beta.imag!r}", f"--m={m}"]
        if kind == "run":
            argv += ["--force-outcome", "psi"]  # aborts, or sends "10"/"11", by case
        if kind == "run_json":
            argv += ["--format", "json", "--force-outcome", "psiperp"]  # all 2^m amplitudes
        if kind == "analyze":
            argv += ["--format", "json"]
        if kind == "montecarlo":
            argv += ["--trials", str(self.mc_trials), "--seed", str(rng.getrandbits(31))]
        return {"kind": kind, "argv": argv, "case": case, "m": m}

    def run(self, op):
        return main_in_process(op["argv"])

    def cold_run(self, op):
        proc = subprocess.run(
            [sys.executable, "-m", "bellrsp", *op["argv"]],
            cwd=self.root, env=self.env, capture_output=True, timeout=60,
        )
        return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")

    def cold_check(self, op, result):
        self.check(op, result)
        want = main_in_process(op["argv"])
        _require(result[:2] == want[:2], f"{op['kind']}: python -m bellrsp output differs from in-process cli.main")

    def check(self, op, result):
        code, stdout, stderr = result
        kind, case = op["kind"], op["case"]
        if kind == "exit2":
            _require(code == 2 and stdout == "", f"usage error exited {code}")
            _require(stderr.startswith("error: ") and stderr.count("\n") == 1, f"diagnostic {stderr!r}")
            return
        _require(code == 0, f"{kind} exited {code}: {stderr.strip()}")
        if kind == "analyze":
            payload = json.loads(stdout)
            p, bits = FIGURES[case]
            _require(abs(payload["p_success"] - p) <= EXACT_TOL and abs(payload["expected_bits"] - bits) <= EXACT_TOL,
                     f"analyze {payload['p_success']}/{payload['expected_bits']} ({case})")
        elif kind == "table":
            cells = re.split(r"\s{2,}", stdout.splitlines()[-1])
            _require(cells[0] == "this protocol" and cells[-1] == "computed", f"table row {cells!r}")
            _require(abs(float(cells[3]) - FIGURES[case][1]) <= EXACT_TOL, f"table bits {cells[3]} ({case})")
        elif kind == "montecarlo":
            fields = _text_fields(stdout)
            check_sampled(float(fields["success_rate"]), float(fields["mean_bits"]), int(fields["trials"]), case)
        else:
            if kind == "run_json":
                payload = json.loads(stdout)
                branch, wire, fidelity = payload["outcome"], payload["message"], payload["fidelity"]
                if payload["bob_state"] is not None:
                    _require(len(payload["bob_state"]["amplitudes"]) == 2 ** op["m"], "bob_state size")
            else:
                fields = _text_fields(stdout)
                branch, wire, fidelity = fields["outcome"], fields["message"], float(fields["fidelity"])
            _require(wire == WIRE[(case, branch)], f"run message {wire!r} ({case}/{branch})")
            _require((wire == "ABORT") == (fidelity < FIDELITY_FLOOR), f"run fidelity {fidelity!r} for {wire!r}")


# The timed workloads. TargetSweep and Cli serve the traced run's probe of every layer.
WORKLOADS = {w.name: w for w in (MonteCarloSampling, DenseFanout)}
