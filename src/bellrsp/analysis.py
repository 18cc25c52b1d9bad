"""Exact and statistical cost accounting for the preparation protocol.

A trial is a pure function of its measurement branch, so two records make
the protocol's branch table: probability, bits and success for psi_perp and
for psi. ``branch_table`` writes both down in closed form, each at Born
probability exactly 1/2, and ``exact_analyze`` is their weighted sum, with
no sampling error and no rounding: 0.5/0.5 bits for a general target and
1.0/1.5 for the special cases, bit for bit.
``monte_carlo`` estimates the same figures from one seeded stream of uniforms,
trial i reading the stream's i-th draw, so the result is a pure function of
(target, trials, seed) and never depends on the worker count.
``emit_comparison_table`` places the computed cost next to published figures
for five earlier preparation protocols, carried as static data.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidFlag
from .protocol import TargetCase, TargetSpec, TrialRecord, branch_table

DRAW_BLOCK = 2**20  # uniforms held at once by monte_carlo: 8 MiB for any trial count


@dataclass(frozen=True)
class ExactAnalysis:
    """The branch table (the two forced trial records) and its weighted
    sums: success probability and expected bit cost."""

    p_success: float
    expected_bits: float
    per_branch: tuple[TrialRecord, ...]

    def to_json_dict(self) -> dict:
        return {
            "p_success": self.p_success,
            "expected_bits": self.expected_bits,
            "per_branch": [
                {
                    "outcome": record.outcome.value,
                    "probability": record.probability,
                    "bits": record.bits_sent,
                    "fidelity": record.fidelity,
                }
                for record in self.per_branch
            ],
        }


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
        return asdict(self)


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
        return {**asdict(self), "source": self.source.value}


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
    """Weighted sum over the branch table: both records, written by
    ``branch_table`` in closed form, and the Born probability each carries.

    For the Bell channel both probabilities are exactly 1/2, so the general
    case gives p_success = 0.5 with 0.5 expected bits, and the special cases
    give 1.0 with 1.5 expected bits; the float sums are exact.
    """
    records = branch_table(target)
    # the 0.0 start keeps a float when no branch succeeds
    p_success = sum((r.probability for r in records if r.success), 0.0)
    expected_bits = sum((r.probability * r.bits_sent for r in records), 0.0)
    return ExactAnalysis(p_success, expected_bits, records)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """The seed's stream advanced by ``index`` draws: its first ``random()``
    is the draw that decides trial ``index`` in ``monte_carlo``."""
    if seed < 0:
        raise InvalidFlag(f"seed must be >= 0, got {seed}")
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
    stays bounded. Trials or workers below 1, or a negative seed, raise
    ``InvalidFlag``; ``workers`` changes nothing else, since the result is
    one stream's and identical for every worker count.
    """
    if trials < 1:
        raise InvalidFlag(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise InvalidFlag(f"workers must be >= 1, got {workers}")
    rng = trial_rng(seed, 0)
    perp, psi = branch_table(target)
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
