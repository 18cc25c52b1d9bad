"""Output-equivalence corpus: a digest of every recorded invocation's result.

Run ``python tests/corpus/make_corpus.py`` from the root of a checkout to
rewrite ``corpus.txt``. Each entry is an argv passed to ``bellrsp.cli.main``
in process, or ``["demos/<name>.py"]`` for a demo script run as ``__main__``.
Each line of the file is the sha256 of (exit code, stdout, stderr) and the
argv as JSON. ``test_corpus.py`` replays the file, so any change to any of
these bytes fails Tier-1. Regenerate the file only for a deliberate output
change, and list every argv whose digest changed alongside the change: the
script prints each one that changed or is new, then a count per subcommand
and ``--format``.

The argv list is deterministic. It covers edge targets at m = 2, 3 and 8
(every subcommand and format, ``run`` forced and seeded, ``montecarlo``
seeds up to 2**70), ``--normalize``, m = 24 without the dense JSON, the
error inputs, argparse's own errors and help, coefficients at the ends of
the float range, and the five demos.
``COLUMNS`` is pinned to 80 while an entry runs, because argparse wraps its
usage text to the terminal width.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import runpy
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).with_name("corpus.txt")
DEMO_PREFIX = "demos/"
COLUMNS = "80"

sys.path.insert(0, str(ROOT / "src"))
from bellrsp.cli import main  # noqa: E402

CASE_TOL = 1e-9   # bellrsp.CASE_TOL, repeated so the corpus pins the boundary
EDGE = 0.5e-9     # distance from CASE_TOL of the boundary pairs
SQRT_HALF = 1.0 / math.sqrt(2.0)


def _equatorial_pair(offset: float) -> tuple[str, str, str]:
    """alpha = 1/sqrt(2) + offset, |beta| completing the norm, arg(beta) = pi/3."""
    alpha = SQRT_HALF + offset
    modulus = math.sqrt(1.0 - alpha * alpha)
    return repr(alpha), repr(modulus * 0.5), repr(modulus * math.sqrt(3.0) / 2.0)


# (alpha, beta_re, beta_im) as the user types them
TARGETS = [
    ("0.6", "0", "0.8"),            # general, imaginary beta
    ("0.48", "0.6", "0.64"),        # general
    ("0.6", "0.8", "0"),            # real
    ("0.6", "-0.8", "0"),           # real; its psi_perp JSON holds -0.0
    ("0.28", "-0.96", "0"),         # real
    ("0.70710678", "0.5", "0.5"),   # equatorial
    ("0", "1", "0"),                # alpha = 0
    ("0", "0.6", "0.8"),            # alpha = 0, complex beta
    ("1", "0", "0"),                # beta = 0
    ("-0.6", "0.8", "0"),           # negative alpha
    ("-0.6", "0", "0.8"),           # negative alpha, imaginary beta
    ("0.6", "0.8", "1e-10"),        # Im beta 1e-10: real
    ("0.6", "0.8", "2e-09"),        # Im beta 2e-9: general
    ("0.6", "0.8", repr(CASE_TOL - EDGE)),   # just inside the real class
    ("0.6", "0.8", repr(CASE_TOL + EDGE)),   # just outside it
    _equatorial_pair(CASE_TOL - EDGE),       # just inside the equatorial class
    _equatorial_pair(CASE_TOL + EDGE),       # just outside it
]
NORMALIZE_TARGETS = [
    ("0.9", "0.9", "0"),
    ("3", "0", "4"),
    ("1e-3", "2e-3", "0"),
    ("-2", "1", "1"),
    ("1", "1", "1"),
]
SIZES = (2, 3, 8)
LARGE_M = 24
FORMATS = ("text", "json", "csv")
RUN_SEEDS = (0, 1, 7, 2**40)
MC_RUNS = ((1, 0), (100, 3), (1000, 2**70), (5000, 2**63 + 5))

GENERAL = ["--alpha", "0.6", "--beta-re", "0", "--beta-im", "0.8", "--m", "2"]


def _target_flags(pair: tuple[str, str, str], m: int) -> list[str]:
    alpha, beta_re, beta_im = pair
    return [f"--alpha={alpha}", f"--beta-re={beta_re}", f"--beta-im={beta_im}", "--m", str(m)]


def _subcommands(flags: list[str], json_run: bool = True) -> list[list[str]]:
    """Every subcommand in every format for one set of target flags; every
    seed in text, the first and last seeds in json and csv."""
    argvs = []
    for fmt in FORMATS:
        tail = [*flags, "--format", fmt]
        run_seeds = RUN_SEEDS if fmt == "text" else RUN_SEEDS[::3]
        mc_runs = MC_RUNS if fmt == "text" else MC_RUNS[::3]
        if fmt != "json" or json_run:
            argvs += [["run", *tail, "--force-outcome", force] for force in ("psi", "psiperp")]
            argvs += [["run", *tail, "--seed", str(seed)] for seed in run_seeds]
        argvs.append(["analyze", *tail])
        argvs.append(["table", *tail])
        argvs += [
            ["montecarlo", *tail, "--trials", str(trials), "--seed", str(seed)]
            for trials, seed in mc_runs
        ]
    return argvs


def _error_argvs() -> list[list[str]]:
    bad_m = [*GENERAL[:-1], "1"]
    argvs = []
    for sub in ("run", "analyze", "montecarlo", "table"):
        for m in ("1", "25", "70", str(10**9)):
            argvs.append([sub, *GENERAL[:-1], m])
        argvs.append([sub, "--alpha", "nan", "--beta-re", "0.8", "--m", "2"])
        argvs.append([sub, "--alpha", "0.6", "--beta-re", "inf", "--m", "2"])
        argvs.append([sub, "--alpha", "0", "--beta-re", "0", "--m", "2"])
        argvs.append([sub, "--alpha", "0", "--beta-re", "0", "--m", "2", "--normalize"])
        argvs.append([sub, "--alpha", "0.9", "--beta-re", "0.9", "--m", "2"])
    mc = ["montecarlo", *GENERAL]
    argvs += [
        [*mc, "--trials", "0"],
        [*mc, "--trials", "-5"],
        [*mc, "--workers", "0"],
        [*mc, "--workers", "-1"],
        [*mc, "--seed", "-1"],
        [*mc, "--trials", "5", "--workers", "3"],
        # all together: the order of the checks decides the diagnostic
        [*mc, "--trials", "0", "--workers", "0", "--seed", "-1"],
        [*mc, "--workers", "0", "--seed", "-1"],
        ["montecarlo", *bad_m, "--trials", "0", "--workers", "0", "--seed", "-1"],
        ["run", *GENERAL, "--seed", "-1"],
        ["run", *GENERAL, "--seed", "-4", "--force-outcome", "psi"],
        ["run", *GENERAL, "--seed", "-1", "--force-outcome", "psiperp"],
        ["run", *bad_m, "--seed", "-1", "--force-outcome", "psi"],
    ]
    # argparse's own errors and help
    argvs += [
        [],
        ["--help"],
        ["run", "--help"],
        ["montecarlo", "--help"],
        ["bogus"],
        ["run", "--alpha", "0.6"],
        ["run", *GENERAL, "--force-outcome", "sideways"],
        ["analyze", *GENERAL, "--format", "xml"],
        ["analyze", "--alpha", "x", "--beta-re", "0.8", "--m", "2"],
        ["analyze", "--alpha", "0.6", "--beta-re", "0.8", "--m", "2.5"],
        ["montecarlo", *GENERAL, "--trials", "1.5"],
        ["analyze", *GENERAL, "--bogus"],
        ["run", "--m", "2", "--alpha", "-1.2e-05", "--beta-re", "1", "--normalize"],
        ["run", "--m", "2", "--alpha=-1E-3", "--beta-re", "1", "--normalize"],
    ]
    return argvs


# coefficients whose squares overflow or underflow a float
EXTREME_ARGVS = [
    ["analyze", "--alpha", "1e200", "--beta-re", "0", "--m", "3"],
    ["analyze", "--alpha", "1e200", "--beta-re", "0", "--m", "3", "--normalize"],
    ["analyze", "--alpha", "1e-320", "--beta-re", "0", "--m", "3", "--normalize"],
    ["analyze", "--alpha", "3e-162", "--beta-re", "3e-162", "--beta-im", "1e-170",
     "--m", "3", "--normalize"],
]


def corpus_argvs() -> list[list[str]]:
    argvs = []
    for pair in TARGETS:
        for m in SIZES:
            argvs += _subcommands(_target_flags(pair, m))
    for pair in NORMALIZE_TARGETS:
        argvs += _subcommands([*_target_flags(pair, 3), "--normalize"])
    for pair in TARGETS[:6]:
        # no run --format json: it writes all 2**24 amplitudes
        argvs += _subcommands(_target_flags(pair, LARGE_M), json_run=False)
    argvs += _error_argvs()
    argvs += EXTREME_ARGVS
    argvs += [[f"{DEMO_PREFIX}{path.name}"] for path in sorted((ROOT / "demos").glob("*.py"))]
    return argvs


def invoke(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one entry, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, {"COLUMNS": COLUMNS}),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        if argv and argv[0].startswith(DEMO_PREFIX):
            runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
            code = 0
        else:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def read_corpus(path: Path = CORPUS) -> list[tuple[str, list[str]]]:
    """(digest, argv) per line, in file order."""
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        sha, argv = line.split(" ", 1)
        entries.append((sha, json.loads(argv)))
    return entries


def write_corpus(path: Path = CORPUS) -> tuple[int, list[list[str]]]:
    """Rewrite the file; return its entry count and the argvs whose digest
    changed or that are new, in file order."""
    old = {json.dumps(argv): sha for sha, argv in read_corpus(path)} if path.exists() else {}
    entries = [(digest(*invoke(argv)), argv) for argv in corpus_argvs()]
    path.write_text(
        "".join(f"{sha} {json.dumps(argv, ensure_ascii=False)}\n" for sha, argv in entries),
        encoding="utf-8",
    )
    return len(entries), [argv for sha, argv in entries if old.get(json.dumps(argv)) != sha]


def kind(argv: list[str]) -> str:
    """``subcommand --format`` of an entry; a demo is its path alone."""
    if not argv or argv[0].startswith(DEMO_PREFIX):
        return " ".join(argv) or "(no argv)"
    fmt = argv[argv.index("--format") + 1] if "--format" in argv[:-1] else "text"
    return f"{argv[0]} --format {fmt}"


if __name__ == "__main__":
    count, changed = write_corpus()
    for argv in changed:
        print(f"changed or new: {json.dumps(argv, ensure_ascii=False)}")
    for name, n in sorted(Counter(kind(argv) for argv in changed).items()):
        print(f"{n:6d}  {name}")
    print(f"{count} entries written to {CORPUS.relative_to(ROOT)}, {len(changed)} changed or new")
