"""Amplitude reconstruction from contextual statistics.

In the trigonometric regime each outcome amplitude is a complex number

    psi_j = sqrt(branch_1j) + exp(i * phase_j) * sqrt(branch_2j)

whose squared modulus reproduces the observed outcome marginal (the Born
rule).  In the hyperbolic regime the same construction lives in the
split-complex plane with ``exp_j`` and the entry's sign in place of the
complex exponential.  The first term is kept real and non-negative, which
fixes the global phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ContextualStatistics
from .errors import InvariantViolation, NotDoublyStochastic, WrongRegime
from .hyperbolic import HyperbolicNumber, exp_j
from .interference import Classification, InterferenceReport

DOUBLY_STOCHASTIC_TOLERANCE = 1e-10


@dataclass(frozen=True)
class ComplexAmplitudeVector:
    """Two complex outcome amplitudes."""

    components: tuple[complex, complex]

    def born_probabilities(self) -> tuple[float, float]:
        return tuple(abs(z) ** 2 for z in self.components)


@dataclass(frozen=True)
class HyperbolicAmplitudeVector:
    """Two split-complex outcome amplitudes."""

    components: tuple[HyperbolicNumber, HyperbolicNumber]

    def born_probabilities(self) -> tuple[float, float]:
        return tuple(z.squared_modulus() for z in self.components)


def _require_regime(report: InterferenceReport, wanted: Classification) -> None:
    if report.regime != wanted.value:
        raise WrongRegime(f"need the {wanted.value} regime, got {report.regime}")


def trigonometric_amplitude(report: InterferenceReport) -> ComplexAmplitudeVector:
    """Complex amplitudes for a report of the trigonometric regime.

    Raises :class:`WrongRegime` for any other regime, including a report
    with no entries, whose regime is mixed.
    """
    _require_regime(report, Classification.TRIGONOMETRIC)
    components = tuple(
        math.sqrt(entry.branches[0])
        + cmath.exp(1j * entry.phase) * math.sqrt(entry.branches[1])
        for entry in report.entries
    )
    return ComplexAmplitudeVector(components)


def hyperbolic_amplitude(report: InterferenceReport) -> HyperbolicAmplitudeVector:
    """Split-complex amplitudes for a report of the hyperbolic regime.

    Raises :class:`WrongRegime` for any other regime.
    """
    _require_regime(report, Classification.HYPERBOLIC)
    components = tuple(
        HyperbolicNumber(math.sqrt(entry.branches[0]), 0.0)
        + (entry.sign * math.sqrt(entry.branches[1])) * exp_j(entry.phase)
        for entry in report.entries
    )
    return HyperbolicAmplitudeVector(components)


def born_residual(
    amplitude: ComplexAmplitudeVector | HyperbolicAmplitudeVector,
    statistics: ContextualStatistics,
) -> float:
    """Largest gap between squared moduli and the observed outcome marginals."""
    probabilities = amplitude.born_probabilities()
    if len(probabilities) != statistics.outcome_marginals.shape[0]:
        raise InvariantViolation(
            "amplitude length does not match the outcome alphabet"
        )
    return float(
        max(
            abs(p - float(observed))
            for p, observed in zip(probabilities, statistics.outcome_marginals)
        )
    )


@dataclass(frozen=True)
class SelectorBasis:
    """Orthonormal-within-tolerance selector eigenbasis in outcome coordinates."""

    vectors: tuple[tuple[complex, complex], tuple[complex, complex]]
    orthonormality_defect: float


def selector_basis(
    statistics: ContextualStatistics, report: InterferenceReport
) -> SelectorBasis:
    """Basis vectors for the two selector values, one per transition row.

    Requires the trigonometric regime and a doubly stochastic transition
    matrix.  The first vector is the entrywise square root of the first
    transition row; the second carries the first outcome's phase and, a half
    turn later, the phase forced on the second outcome by normalization::

        e1 = (sqrt(t[0,0]),                sqrt(t[0,1]))
        e2 = (exp(i*phase_1) * sqrt(t[1,0]), exp(i*(phase_1 + pi)) * sqrt(t[1,1]))

    The reported defect is the magnitude of their inner product; unit norms
    hold by row stochasticity.
    """
    _require_regime(report, Classification.TRIGONOMETRIC)
    t = statistics.transition
    row_sums = t.sum(axis=1)
    column_sums = t.sum(axis=0)
    if np.any(np.abs(column_sums - 1.0) > DOUBLY_STOCHASTIC_TOLERANCE):
        raise NotDoublyStochastic(
            f"transition columns sum to {column_sums.tolist()!r}, expected 1",
            row_sums=row_sums,
            column_sums=column_sums,
        )
    first_phase = report.entries[0].phase
    second_phase = math.fmod(first_phase + math.pi, 2.0 * math.pi)
    e1 = (
        complex(math.sqrt(t[0, 0])),
        complex(math.sqrt(t[0, 1])),
    )
    e2 = (
        cmath.exp(1j * first_phase) * math.sqrt(t[1, 0]),
        cmath.exp(1j * second_phase) * math.sqrt(t[1, 1]),
    )
    inner = e1[0].conjugate() * e2[0] + e1[1].conjugate() * e2[1]
    return SelectorBasis(vectors=(e1, e2), orthonormality_defect=abs(inner))
