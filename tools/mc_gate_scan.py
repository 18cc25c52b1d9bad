"""Replay the ``mc_sampling`` benchmark's timed ops in process and gate each one.

    python3 tools/mc_gate_scan.py --seed N --ops K

Run from anywhere; the package is imported from this checkout's ``src/`` and
the workload from its ``bench/workloads.py``, which is only read. Ops
0 .. K-1 are the ones a timed run of ``--seed N`` makes, in order. Each is
built, run and checked exactly as the benchmark does, without timing. Every
op the gate fails is printed as ``FAIL op INDEX: message``. The last line is
the sha256 of the ops' ``successes,total_bits`` lines, so two checkouts that
sample the same counts print the same digest.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def scan(seed: int, ops: int) -> tuple[list[tuple[int, str]], str]:
    """The (index, message) of every failing op, and the digest of the counts."""
    import workloads

    wl = workloads.MonteCarloSampling(seed, str(ROOT))
    failures, digest = [], hashlib.sha256()
    for index in range(ops):
        op = wl.make(index)
        try:
            result = wl.run(op)
            stats = result["w1"]
            digest.update(f"{stats.successes},{stats.total_bits}\n".encode())
            wl.check(op, result)
        except Exception as exc:  # a failing op is reported, as the benchmark counts it
            failures.append((index, f"{type(exc).__name__}: {exc}"))
    return failures, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="the benchmark's --seed")
    parser.add_argument("--ops", type=int, required=True, help="how many ops to replay from op 0")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    failures, digest = scan(args.seed, args.ops)
    for index, message in failures:
        print(f"FAIL op {index}: {message}")
    print(f"seed {args.seed} ops {args.ops} failed {len(failures)} sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
