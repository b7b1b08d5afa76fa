"""Interference coefficients, regime classification, and phase extraction.

For each outcome value the classical two-branch prediction is the sum of the
branch probabilities ``branch_i = selector_marginal_i * transition[i]``.  The
interference coefficient measures the normalized deviation of the directly
observed marginal from that prediction::

    coefficient = (observed - branch_1 - branch_2) / (2 * sqrt(branch_1 * branch_2))

Coefficients with magnitude at most 1 admit an ordinary phase via arccos and
reproduce the observed marginal as

    observed = branch_1 + branch_2 + 2 * sqrt(branch_1 * branch_2) * cos(phase)

while larger magnitudes need a hyperbolic phase via arccosh and a sign::

    observed = branch_1 + branch_2 + 2 * sqrt(branch_1 * branch_2) * sign * cosh(phase)

Outcomes with a vanishing branch are reported as degenerate rather than
treated as failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Hashable

# branch_probabilities is re-exported: callers may import it from either module
from .dynamics import ContextualStatistics, _branches_and_gap, branch_probabilities
from .errors import InvariantViolation, NoPhase
from .prespace import _shown

DEFAULT_CLASSIFY_TOLERANCE = 1e-9


class Classification(str, Enum):
    """Which phase representation an interference coefficient admits."""

    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"
    DEGENERATE = "degenerate"


def _sqrt_product(first: float, second: float) -> float:
    """``sqrt(first * second)`` without forming the product, which can underflow.

    Each factor is split into mantissa and exponent; the exponents are halved
    exactly, so the result equals ``math.sqrt(first * second)`` bit for bit
    whenever that product is a normal float.
    """
    m1, e1 = math.frexp(first)
    m2, e2 = math.frexp(second)
    mantissa, exponent = m1 * m2, e1 + e2
    if exponent % 2:
        mantissa, exponent = 2.0 * mantissa, exponent - 1
    return math.ldexp(math.sqrt(mantissa), exponent // 2)


def _finite(coefficient: float) -> float:
    """``coefficient`` as a float, refused with :class:`InvariantViolation` unless finite.

    An integer too large for a float is not finite as one, so it is refused too.
    """
    try:
        value = float(coefficient)
        finite = math.isfinite(value)
    except OverflowError:
        value, finite = coefficient, False
    if not finite:
        raise InvariantViolation(f"interference coefficient must be finite, got {_shown(value)}")
    return value


def _check_tolerance(tolerance: float, path: str | None = None) -> None:
    """Refuse a classify tolerance that is negative or not finite, at ``path`` if given.

    An integer beyond float range is not finite as a float, so it is refused too.
    """
    try:
        usable = math.isfinite(tolerance) and tolerance >= 0
    except OverflowError:  # an integer too large for a float
        usable = False
    if not usable:
        raise InvariantViolation(
            f"classify tolerance must be finite and not negative, got {_shown(tolerance)}",
            path=path,
        )


def classify(
    coefficient: float, tolerance: float = DEFAULT_CLASSIFY_TOLERANCE
) -> Classification:
    """Trigonometric when |coefficient| <= 1 + tolerance, hyperbolic beyond.

    The tolerance band guards against rounding right at the boundary: values
    inside it are classified trigonometric and their phase clamps to 0 or pi.
    A coefficient that is not finite, or a tolerance that is negative or not
    finite, is refused with :class:`InvariantViolation`.
    """
    _check_tolerance(tolerance)
    if abs(_finite(coefficient)) <= 1.0 + tolerance:
        return Classification.TRIGONOMETRIC
    return Classification.HYPERBOLIC


def phases(
    coefficient: float | None, classification: Classification
) -> tuple[float, int]:
    """Phase and sign for a classified coefficient.

    Trigonometric: ``(arccos(clamped coefficient), +1)`` with the phase in
    [0, pi].  Hyperbolic: ``(arccosh(|coefficient|), sign(coefficient))``.
    Raises :class:`NoPhase` for the degenerate classification, and
    :class:`InvariantViolation` for a coefficient that is not finite or a
    hyperbolic one of magnitude below 1.
    """
    if classification is Classification.DEGENERATE or coefficient is None:
        raise NoPhase("a degenerate outcome has no phase")
    coefficient = _finite(coefficient)
    if classification is Classification.TRIGONOMETRIC:
        return math.acos(min(1.0, max(-1.0, coefficient))), 1
    if classification is Classification.HYPERBOLIC:
        if abs(coefficient) < 1.0:
            raise InvariantViolation(
                f"a hyperbolic coefficient must have magnitude at least 1, got {coefficient!r}"
            )
        return math.acosh(abs(coefficient)), (1 if coefficient > 0 else -1)
    raise InvariantViolation(f"unknown classification {classification!r}")


@dataclass(frozen=True)
class OutcomeInterference:
    """Interference analysis of a single outcome value."""

    outcome: Hashable
    observed: float
    branches: tuple[float, float]
    coefficient: float | None
    classification: Classification
    phase: float | None
    sign: int | None

    def reconstructed(self) -> float:
        """Observed marginal rebuilt from branches, phase, and sign."""
        if self.classification is Classification.DEGENERATE:
            raise NoPhase("a degenerate outcome has no reconstruction")
        cross = 2.0 * _sqrt_product(*self.branches)
        if self.classification is Classification.TRIGONOMETRIC:
            return self.branches[0] + self.branches[1] + cross * math.cos(self.phase)
        return (
            self.branches[0]
            + self.branches[1]
            + cross * self.sign * math.cosh(self.phase)
        )


@dataclass(frozen=True)
class InterferenceReport:
    """Per-outcome interference entries plus the classification tolerance."""

    entries: tuple[OutcomeInterference, ...]
    classify_tolerance: float = DEFAULT_CLASSIFY_TOLERANCE

    @property
    def regime(self) -> str:
        """Overall label: trigonometric, hyperbolic, mixed, or degenerate."""
        kinds = {entry.classification for entry in self.entries}
        if Classification.DEGENERATE in kinds:
            return "degenerate"
        if kinds == {Classification.TRIGONOMETRIC}:
            return "trigonometric"
        if kinds == {Classification.HYPERBOLIC}:
            return "hyperbolic"
        return "mixed"


def analyze_interference(
    statistics: ContextualStatistics,
    tolerance: float = DEFAULT_CLASSIFY_TOLERANCE,
) -> InterferenceReport:
    """Classify both outcomes and extract phases where they exist.

    Outcomes with a vanishing branch probability, or with branches too small
    for the gap to give a finite coefficient, come back with the degenerate
    classification and no coefficient, phase, or sign.  A tolerance that is
    negative or not finite is refused with :class:`InvariantViolation`.
    """
    _check_tolerance(tolerance)
    branches, gap = _branches_and_gap(statistics)
    entries = []
    for j, (label, observed) in enumerate(
        zip(statistics.outcome_labels, statistics.outcome_marginals.tolist())
    ):
        pair = (branches[0][j], branches[1][j])
        coefficient = None
        if pair[0] != 0.0 and pair[1] != 0.0:
            coefficient = gap[j] / (2.0 * _sqrt_product(*pair))
        if coefficient is None or not math.isfinite(coefficient):
            coefficient = phase = sign = None
            kind = Classification.DEGENERATE
        else:
            kind = classify(coefficient, tolerance)
            phase, sign = phases(coefficient, kind)
        entries.append(
            OutcomeInterference(
                outcome=label,
                observed=observed,
                branches=pair,
                coefficient=coefficient,
                classification=kind,
                phase=phase,
                sign=sign,
            )
        )
    return InterferenceReport(entries=tuple(entries), classify_tolerance=tolerance)
