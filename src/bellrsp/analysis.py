"""Exact and statistical cost accounting for the preparation protocol.

A trial is a pure function of its measurement branch, so the two forced
``run_trial`` records make the protocol's branch table: probability, bits and
success for psi_perp and for psi. ``exact_analyze`` is the table's weighted
sum, with no sampling error. ``monte_carlo`` estimates the same figures from
one seeded stream of uniforms, trial i reading the stream's i-th draw, so the
result is a pure function of (target, trials, seed) and never depends on the
worker count. ``emit_comparison_table`` places the computed cost next to
published figures for five earlier preparation protocols, carried as static
data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .protocol import TargetCase, TargetSpec, run_trial
from .statevector import Outcome

_BRANCH_ORDER = (Outcome.PSI_PERP, Outcome.PSI)

DRAW_BLOCK = 2**20  # uniforms held at once by monte_carlo: 8 MiB for any trial count


@dataclass(frozen=True)
class BranchOutcome:
    """One forced branch: its probability, message length, and fidelity."""

    outcome: Outcome
    probability: float
    bits: int
    fidelity: float

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "probability": self.probability,
            "bits": self.bits,
            "fidelity": self.fidelity,
        }


@dataclass(frozen=True)
class ExactAnalysis:
    """Branch-enumeration result: success probability and expected bit cost."""

    p_success: float
    expected_bits: float
    per_branch: tuple[BranchOutcome, ...]

    def to_json_dict(self) -> dict:
        return {
            "p_success": self.p_success,
            "expected_bits": self.expected_bits,
            "per_branch": [branch.to_json_dict() for branch in self.per_branch],
        }

    def to_csv_rows(self) -> list[list]:
        rows = [["outcome", "probability", "bits", "fidelity"]]
        for branch in self.per_branch:
            rows.append(
                [branch.outcome.value, branch.probability, branch.bits, branch.fidelity]
            )
        return rows


@dataclass(frozen=True)
class MonteCarloStats:
    """Aggregates over seeded random trials."""

    trials: int
    successes: int
    total_bits: int
    success_rate: float
    mean_bits: float
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "total_bits": self.total_bits,
            "success_rate": self.success_rate,
            "mean_bits": self.mean_bits,
            "seed": self.seed,
        }

    def to_csv_rows(self) -> list[list]:
        return [
            ["trials", "successes", "total_bits", "success_rate", "mean_bits", "seed"],
            [
                self.trials,
                self.successes,
                self.total_bits,
                self.success_rate,
                self.mean_bits,
                self.seed,
            ],
        ]


class RowSource(enum.Enum):
    """Whether a comparison row was computed here or copied from a publication."""

    COMPUTED = "computed"
    LITERATURE = "literature"


@dataclass(frozen=True)
class ComparisonRow:
    """One protocol in the cost-comparison table."""

    protocol_name: str
    target_family: str
    channel: str
    classical_bits: float
    identification: str
    source: RowSource

    def to_json_dict(self) -> dict:
        return {
            "protocol_name": self.protocol_name,
            "target_family": self.target_family,
            "channel": self.channel,
            "classical_bits": self.classical_bits,
            "identification": self.identification,
            "source": self.source.value,
        }


# Published cost figures of earlier remote-preparation protocols, carried as
# static data for comparison only; none of these protocols is executed here.
LITERATURE_ROWS = (
    ComparisonRow(
        "Shi et al.", "α|00⟩+β|11⟩", "one GHZS", 1.0, "1-qubit state",
        RowSource.LITERATURE,
    ),
    ComparisonRow(
        "Liu et al.", "α|00⟩+β|11⟩", "two BSs", 2.0, "2-qubit ES",
        RowSource.LITERATURE,
    ),
    ComparisonRow(
        "Dai et al.", "α|0000⟩+β|1111⟩", "two GHZSs", 1.0, "2-qubit ES",
        RowSource.LITERATURE,
    ),
    ComparisonRow(
        "Zhan et al.", "α|00⟩+β|11⟩", "two BSs", 2.0, "2-qubit ES",
        RowSource.LITERATURE,
    ),
    ComparisonRow(
        "Wang et al.", "α|000⟩+β|111⟩", "one GHZS and one BS", 0.5, "2-qubit ES",
        RowSource.LITERATURE,
    ),
)


def exact_analyze(target: TargetSpec) -> ExactAnalysis:
    """Weighted sum over the branch table: each forced branch's record and
    the Born probability it carries.

    For the Bell channel both probabilities are exactly 1/2, so the general
    case gives p_success = 0.5 with 0.5 expected bits, and the special cases
    give 1.0 with 1.5 expected bits.
    """
    branches = []
    p_success = 0.0
    expected_bits = 0.0
    for forced in _BRANCH_ORDER:
        record = run_trial(target, forced)
        branches.append(
            BranchOutcome(forced, record.probability, record.bits_sent, record.fidelity)
        )
        if record.success:
            p_success += record.probability
        expected_bits += record.probability * record.bits_sent
    return ExactAnalysis(p_success, expected_bits, tuple(branches))


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """The seed's stream advanced by ``index`` draws: its first ``random()``
    is the draw that decides trial ``index`` in ``monte_carlo``."""
    return np.random.Generator(np.random.PCG64(seed).advance(index))


def monte_carlo(
    target: TargetSpec, trials: int, seed: int, workers: int = 1
) -> MonteCarloStats:
    """Seeded statistical estimate of success rate and mean bit cost.

    Trial i takes the i-th uniform of ``trial_rng(seed, 0)`` and lands in the
    psi branch when the draw falls below that branch's Born probability,
    exactly as ``run_trial(target, trial_rng(seed, i))`` does. With k such
    trials the stats are k psi rows plus (trials - k) psi_perp rows of the
    branch table. Uniforms are drawn ``DRAW_BLOCK`` at a time, so memory
    stays bounded. ``workers`` is validated but changes nothing: the result
    is one stream's and identical for every worker count.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    perp, psi = (run_trial(target, forced) for forced in _BRANCH_ORDER)
    rng = trial_rng(seed, 0)
    hits = 0
    for start in range(0, trials, DRAW_BLOCK):
        draws = rng.random(min(DRAW_BLOCK, trials - start))
        hits += int(np.count_nonzero(draws < psi.probability))
    misses = trials - hits
    successes = hits * psi.success + misses * perp.success
    total_bits = hits * psi.bits_sent + misses * perp.bits_sent
    return MonteCarloStats(
        trials=trials,
        successes=successes,
        total_bits=total_bits,
        success_rate=successes / trials,
        mean_bits=total_bits / trials,
        seed=seed,
    )


def emit_comparison_table(target: TargetSpec) -> list[ComparisonRow]:
    """Five published rows plus one row computed from ``exact_analyze``.

    The computed bit cost depends on the supplied target's case (0.5 for a
    general target, 1.5 for the deterministic special cases), so the row
    annotates which regime it reports.
    """
    analysis = exact_analyze(target)
    if target.case_tag is TargetCase.GENERAL:
        regime = "probabilistic regime"
    else:
        regime = f"deterministic regime, {target.case_tag.value} coefficients"
    computed = ComparisonRow(
        protocol_name="this protocol",
        target_family=f"α|0…0⟩+β|1…1⟩ (m={target.m}, {regime})",
        channel="one BS",
        classical_bits=analysis.expected_bits,
        identification="1-qubit state",
        source=RowSource.COMPUTED,
    )
    return [*LITERATURE_ROWS, computed]


def comparison_csv_rows(rows: list[ComparisonRow]) -> list[list]:
    out = [
        [
            "protocol_name",
            "target_family",
            "channel",
            "classical_bits",
            "identification",
            "source",
        ]
    ]
    for row in rows:
        out.append(
            [
                row.protocol_name,
                row.target_family,
                row.channel,
                row.classical_bits,
                row.identification,
                row.source.value,
            ]
        )
    return out
