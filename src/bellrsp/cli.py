"""Command-line frontend: trial traces, exact analysis, sampling, tables.

Four subcommands share the target flags (--alpha, --beta-re, --beta-im, --m):

  run         trace one protocol trial, optionally forcing a branch
  analyze     exact branch enumeration (success probability, expected bits)
  montecarlo  seeded statistical estimate from one stream of draws
  table       cost comparison against published protocols

Exit codes: 0 on success, 2 on flag or validation errors (one-line diagnostic
on stderr), 1 on an internal failure. Identical invocations produce
byte-identical output, so --format json is safe to diff or golden-test.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from collections.abc import Sequence

from .analysis import (
    ComparisonRow,
    ExactAnalysis,
    MonteCarloStats,
    emit_comparison_table,
    exact_analyze,
    monte_carlo,
    trial_rng,
)
from .errors import BellRspError, InvalidFlag
from .protocol import (
    TargetSpec,
    TrialRecord,
    build_target_state,
    canonicalize_target,
    run_trial,
)
from .statevector import GhzState, Outcome

_FORCE_CHOICES = {"psi": Outcome.PSI, "psiperp": Outcome.PSI_PERP}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellrsp",
        description=(
            "Simulate remote preparation of alpha|0...0> + beta|1...1> "
            "over one shared Bell pair."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_target_flags(p: argparse.ArgumentParser) -> None:
        # argparse reads "-1.2e-05" as an option unless it matches this; its
        # own pattern lacks the exponent form, and no option starts -<digit>
        p._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$"
        )
        p.add_argument(
            "--alpha", type=float, required=True,
            help="real coefficient of |0...0>",
        )
        p.add_argument(
            "--beta-re", type=float, required=True,
            help="real part of the |1...1> coefficient",
        )
        p.add_argument(
            "--beta-im", type=float, default=0.0,
            help="imaginary part of the |1...1> coefficient (default 0)",
        )
        p.add_argument(
            "--m", type=int, required=True,
            help="qubit count of the target state (>= 2)",
        )
        p.add_argument(
            "--normalize", action="store_true",
            help="rescale (alpha, beta) to unit norm instead of rejecting",
        )
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="output format (default text)",
        )

    run_p = sub.add_parser("run", help="trace a single protocol trial")
    add_target_flags(run_p)
    run_p.add_argument(
        "--force-outcome", choices=sorted(_FORCE_CHOICES), default=None,
        help="force the sender's measurement branch instead of sampling",
    )
    run_p.add_argument(
        "--seed", type=int, default=0,
        help="seed for the sampled branch (ignored when forcing; default 0)",
    )

    analyze_p = sub.add_parser(
        "analyze", help="exact success probability and expected bit cost"
    )
    add_target_flags(analyze_p)

    mc_p = sub.add_parser(
        "montecarlo", help="seeded statistical estimate over many trials"
    )
    add_target_flags(mc_p)
    mc_p.add_argument(
        "--trials", type=int, default=10000,
        help="number of trials (default 10000)",
    )
    mc_p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    mc_p.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; sampling is one seeded stream, "
        "so the worker count never changes the result",
    )

    table_p = sub.add_parser(
        "table", help="cost comparison against published protocols"
    )
    add_target_flags(table_p)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output = _dispatch(args)
    except BellRspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


def _dispatch(args: argparse.Namespace) -> str:
    target = canonicalize_target(
        args.alpha,
        complex(args.beta_re, args.beta_im),
        args.m,
        normalize=args.normalize,
    )
    if args.subcommand == "run":
        select = trial_rng(args.seed, 0)  # checks the seed even when forced
        if args.force_outcome is not None:
            select = _FORCE_CHOICES[args.force_outcome]
        return _format_trial(run_trial(target, select), target, args.format)
    if args.subcommand == "analyze":
        return _format_analysis(exact_analyze(target), args.format)
    if args.subcommand == "montecarlo":
        stats = monte_carlo(target, args.trials, args.seed, workers=args.workers)
        return _format_stats(stats, args.format)
    if args.subcommand == "table":
        return _format_table(emit_comparison_table(target), args.format)
    raise InvalidFlag(f"unknown subcommand {args.subcommand!r}")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False)


def _csv_text(records: list[dict]) -> str:
    """Same-keyed records as CSV: the keys are the header, then one row each."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(records[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(records)
    return buffer.getvalue().rstrip("\n")


def _format_number(value: float) -> str:
    return f"{value:.12g}"


def _format_value(value) -> str:
    """A JSON record's value as text: floats to 12 digits, all else by ``str``."""
    return _format_number(value) if isinstance(value, float) else str(value)


def _format_amplitude(z: complex) -> str:
    if z.imag == 0:
        return _format_number(z.real)
    if z.real == 0:
        return f"{z.imag:.12g}i"
    return f"({z.real:.12g}{z.imag:+.12g}i)"


def format_state(state: GhzState) -> str:
    """Readable ket sum over the nonzero of its two terms, e.g.
    0.6|00> + 0.8|11>; read from the seed, so nothing of size 2**m is built."""
    terms = []
    for amp, bit in zip(state.seed.amplitudes, "01"):
        if abs(amp) < 1e-12:
            continue
        terms.append(f"{_format_amplitude(complex(amp))}|{bit * state.n_qubits}>")
    return " + ".join(terms) if terms else "0"


def _format_trial(record: TrialRecord, target: TargetSpec, fmt: str) -> str:
    if fmt == "json":
        payload = record.to_json_dict()
        payload["target"] = target.to_json_dict()
        return _json_text(payload)
    if fmt == "csv":
        # an explicit row: bob_state's JSON form would build the 2**m array
        return _csv_text(
            [
                {
                    "outcome": record.outcome.value,
                    "message": record.message.to_wire(),
                    "fidelity": record.fidelity,
                    "success": str(record.success).lower(),
                    "bits_sent": record.bits_sent,
                }
            ]
        )
    lines = [
        f"target     {format_state(build_target_state(target))} "
        f"({target.case_tag.value}, m={target.m})",
        f"outcome    {record.outcome.value}",
        f"message    {record.message.to_wire()}",
        f"bits_sent  {record.bits_sent}",
        f"fidelity   {_format_number(record.fidelity)}",
        f"success    {str(record.success).lower()}",
    ]
    if record.bob_state is None:
        lines.append("bob_state  (aborted)")
    else:
        lines.append(f"bob_state  {format_state(record.bob_state)}")
    return "\n".join(lines)


def _format_analysis(analysis: ExactAnalysis, fmt: str) -> str:
    payload = analysis.to_json_dict()
    if fmt == "json":
        return _json_text(payload)
    if fmt == "csv":
        return _csv_text(payload["per_branch"])
    lines = [
        f"p_success      {_format_number(analysis.p_success)}",
        f"expected_bits  {_format_number(analysis.expected_bits)}",
    ]
    for branch in analysis.per_branch:
        lines.append(
            f"branch {branch.outcome.value:<9} "
            f"probability {_format_number(branch.probability):<6} "
            f"bits {branch.bits_sent}  fidelity {_format_number(branch.fidelity)}"
        )
    return "\n".join(lines)


def _format_stats(stats: MonteCarloStats, fmt: str) -> str:
    payload = stats.to_json_dict()
    if fmt == "json":
        return _json_text(payload)
    if fmt == "csv":
        return _csv_text([payload])
    return "\n".join(f"{key:<14}{_format_value(value)}" for key, value in payload.items())


def _format_table(rows: list[ComparisonRow], fmt: str) -> str:
    records = [row.to_json_dict() for row in rows]
    if fmt == "json":
        return _json_text(records)
    if fmt == "csv":
        return _csv_text(records)
    cells = [list(records[0])]
    cells += [[_format_value(value) for value in record.values()] for record in records]
    widths = [max(len(line[col]) for line in cells) for col in range(len(cells[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in cells
    )


if __name__ == "__main__":
    sys.exit(main())
