"""Independent oracle for the benchmark.

It shares no code with ``contextprob``: models are evaluated from their raw
weights, value lists, context and kernel with plain numpy, tables from their
integer counts with exact ``fractions``, and sampling configurations by their
exact outcome distribution.  The interference coefficient is computed as

    (observed - b1 - b2) / (2 * sqrt(b1) * sqrt(b2))

so that branches near 1e-300 do not underflow the denominator.  A branch
that is exactly zero makes its outcome degenerate (coefficient ``None``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Hashable, Sequence

import numpy as np

# The package's default ``classify_tolerance``; generated inputs keep every
# |coefficient| at least BAND_MARGIN away from 1, so the class never hinges
# on the tolerance band.
CLASSIFY_TOLERANCE = 1e-9
BAND_MARGIN = 1e-6


@dataclass(frozen=True)
class Expected:
    """What a correct report must say about one input."""

    coefficients: dict  # outcome label -> float, or None when degenerate
    smallest_branch: float  # smallest non-zero branch probability

    def classification(self, label: Hashable) -> str:
        value = self.coefficients[label]
        if value is None:
            return "degenerate"
        if abs(value) <= 1.0 + CLASSIFY_TOLERANCE:
            return "trigonometric"
        return "hyperbolic"

    @property
    def regime(self) -> str:
        kinds = {self.classification(label) for label in self.coefficients}
        if "degenerate" in kinds:
            return "degenerate"
        if len(kinds) == 1:
            return kinds.pop()
        return "mixed"

    def near_band(self) -> bool:
        """Whether some |coefficient| is too close to 1 to classify robustly."""
        return any(
            value is not None and abs(abs(value) - 1.0) <= BAND_MARGIN
            for value in self.coefficients.values()
        )


def _labels(values: Sequence[Hashable]) -> tuple[list, np.ndarray]:
    order = list(dict.fromkeys(values))
    index = {label: i for i, label in enumerate(order)}
    return order, np.array([index[v] for v in values], dtype=np.intp)


def _coefficient(observed: float, first: float, second: float) -> float | None:
    if first == 0.0 or second == 0.0:
        return None
    return (observed - first - second) / (2.0 * math.sqrt(first) * math.sqrt(second))


def model_expectation(
    weights: Sequence[float],
    selector_values: Sequence[Hashable],
    outcome_values: Sequence[Hashable],
    context: Sequence[int],
    kernel: np.ndarray | None = None,
) -> Expected:
    """Coefficients of a model, by point sums over the raw arrays.

    ``b[a, o] = sum over context points x with selector a of
    w(x) * (K @ onehot_o)(x) / W``, where ``W`` is the context weight.
    """
    w = np.asarray(weights, dtype=float)
    selector_labels, selector_codes = _labels(selector_values)
    outcome_labels, outcome_codes = _labels(outcome_values)
    inside = np.zeros(w.shape[0], dtype=bool)
    inside[np.asarray(list(context), dtype=np.intp)] = True
    context_weights = np.where(inside, w, 0.0)
    total = context_weights.sum()
    onehot = np.zeros((w.shape[0], len(outcome_labels)))
    onehot[np.arange(w.shape[0]), outcome_codes] = 1.0
    reach = onehot if kernel is None else np.asarray(kernel, dtype=float) @ onehot
    branches = np.zeros((len(selector_labels), len(outcome_labels)))
    for a in range(len(selector_labels)):
        branch_weights = np.where(selector_codes == a, context_weights, 0.0)
        branches[a] = branch_weights @ reach / total
    observed = np.array(
        [context_weights[outcome_codes == o].sum() for o in range(len(outcome_labels))]
    ) / total
    coefficients = {
        label: _coefficient(float(observed[o]), float(branches[0, o]), float(branches[1, o]))
        for o, label in enumerate(outcome_labels)
    }
    nonzero = branches[branches > 0.0]
    return Expected(coefficients, float(nonzero.min()) if nonzero.size else 0.0)


def document_expectation(doc: dict) -> Expected:
    """Oracle answer for a parsed model document."""
    kernel = doc.get("kernel")
    return model_expectation(
        doc["weights"],
        doc["variables"][doc["selector"]],
        doc["variables"][doc["outcome"]],
        doc["context"],
        None if kernel is None else np.asarray(kernel, dtype=float),
    )


def table_expectation(direct: dict, sequential: dict) -> Expected:
    """Coefficients of a contingency table, exactly from its integer counts.

    ``direct`` maps outcome label -> count; ``sequential`` maps
    (selector label, outcome label) -> count.  With ``S`` the sequential
    grand total, branch ``b[a, o]`` is ``S[a, o] / S`` and the squared
    coefficient ``gap**2 / (4 * b1 * b2)`` is a fraction, so only the final
    square root rounds.
    """
    direct_total = sum(direct.values())
    sequential_total = sum(sequential.values())
    selectors = list(dict.fromkeys(a for a, _ in sequential))
    coefficients = {}
    smallest = None
    for outcome, count in direct.items():
        first = Fraction(sequential.get((selectors[0], outcome), 0), sequential_total)
        second = Fraction(sequential.get((selectors[1], outcome), 0), sequential_total)
        for branch in (first, second):
            if branch and (smallest is None or branch < smallest):
                smallest = branch
        if first == 0 or second == 0:
            coefficients[outcome] = None
            continue
        gap = Fraction(count, direct_total) - first - second
        squared = gap * gap / (4 * first * second)
        coefficients[outcome] = math.copysign(math.sqrt(squared), gap)
    return Expected(coefficients, float(smallest or 0))


def parse_table(text: str) -> tuple[dict, dict]:
    """Counts of a well-formed contingency table (header, then 4 fields a row)."""
    direct: dict = {}
    sequential: dict = {}
    lines = [line for line in text.splitlines() if line.strip()]
    for line in lines[1:]:
        experiment, selector, outcome, count = (f.strip() for f in line.split(","))
        if experiment == "direct":
            direct[outcome] = direct.get(outcome, 0) + int(count)
        else:
            direct.setdefault(outcome, 0)
            key = (selector, outcome)
            sequential[key] = sequential.get(key, 0) + int(count)
    return direct, sequential


def measurement_distribution(
    weights: Sequence[float],
    values: Sequence[Hashable],
    context: Sequence[int],
    kernel: np.ndarray | None = None,
    selector_values: Sequence[Hashable] | None = None,
    selector_value: Hashable | None = None,
) -> dict:
    """Exact distribution of a variable's values for one measurement setup."""
    w = np.asarray(weights, dtype=float)
    labels, codes = _labels(values)
    mass = np.zeros(w.shape[0])
    members = np.asarray(list(context), dtype=np.intp)
    mass[members] = w[members]
    if selector_values is not None:
        keep = np.array([v == selector_value for v in selector_values])
        mass = np.where(keep, mass, 0.0)
    if kernel is not None:
        mass = mass @ np.asarray(kernel, dtype=float)
    mass = mass / mass.sum()
    return {label: float(mass[codes == i].sum()) for i, label in enumerate(labels)}


# Designed coefficients of the shipped examples, per outcome in file order.
DESIGNED = {
    "classical.json": (0.0, 0.0),
    "interference_table.csv": (0.5, -0.5),
    "hyperbolic.json": (1.125, -1.125),
    "hyperbolic_table.csv": (1.125, -1.125),
}


def example_expectation(path: Path) -> Expected:
    text = path.read_text()
    if path.suffix == ".csv":
        return table_expectation(*parse_table(text))
    return document_expectation(json.loads(text))


def self_check(examples: Path) -> dict:
    """Oracle answers for every shipped example, after checking the designed ones.

    Raises ``ValueError`` if the oracle misses a designed coefficient by more
    than 1e-12.
    """
    answers = {}
    for path in sorted(examples.glob("*.json")) + sorted(examples.glob("*.csv")):
        answers[path.name] = example_expectation(path)
    for name, designed in DESIGNED.items():
        got = tuple(answers[name].coefficients.values())
        if len(got) != len(designed) or any(
            value is None or abs(value - want) > 1e-12
            for value, want in zip(got, designed)
        ):
            raise ValueError(f"oracle gives {got} for {name}, designed {designed}")
    return answers
