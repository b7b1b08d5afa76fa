"""Measurement dynamics: perturbation kernels, two-variable statistics,
and seeded frequency sampling.

A measurement of the selector variable does two things to a context: it
filters the context down to one selector value, and it disturbs the point
weights.  The disturbance is modeled by a row-stochastic kernel applied to
the filtered conditional distribution.  Marginals of either variable in the
undisturbed context are always measured kernel-free; only the selector-then-
outcome transition probabilities see the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import DegenerateContext, InvariantViolation, TypeMismatch
from .prespace import (
    Context,
    Distribution,
    Prespace,
    RandomVariable,
    WEIGHT_TOLERANCE,
    _frozen_array,
    conditional_distribution,
    filter_context,
    pushforward,
    variable_distribution,
)

STATISTICS_TOLERANCE = 1e-10
DEFAULT_SENSITIVITY_TOLERANCE = 1e-9

# Samples are drawn in fixed-size chunks, each with its own child seed, so
# the counts are reproducible whether chunks run serially or in parallel.
SAMPLE_CHUNK = 1 << 16
# Each chunk's generator fills one reused buffer of this many draws at a
# time.  Successive fills continue the stream, so the block size does not
# change the draws; it divides SAMPLE_CHUNK, so no block straddles two chunks.
SAMPLE_BLOCK = 1 << 14
# Counts are int64, so no call may ask for more draws than that holds.
MAX_SAMPLE_COUNT = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class PerturbationKernel:
    """Row-stochastic matrix of point-to-point disturbance probabilities."""

    matrix: np.ndarray

    def __init__(self, matrix: Sequence[Sequence[float]]):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantViolation(
                f"kernel must be a square matrix, got shape {m.shape}"
            )
        row_sums = m.sum(axis=1)
        # Checked whole first: NaN fails both comparisons, and an infinite
        # entry makes its row sum fail.  Rows are inspected only after that.
        if m.size and not (
            m.min() >= 0.0 and np.abs(row_sums - 1.0).max() <= WEIGHT_TOLERANCE
        ):
            finite = np.isfinite(m).all(axis=1)
            non_negative = (m >= 0.0).all(axis=1)
            bad = np.flatnonzero(
                ~(finite & non_negative & (np.abs(row_sums - 1.0) <= WEIGHT_TOLERANCE))
            )
            i = int(bad[0])
            if not finite[i]:
                message = "entries must be finite"
            elif not non_negative[i]:
                message = "entries must be non-negative"
            else:
                message = f"row sums to {float(row_sums[i])!r}, expected 1"
            raise InvariantViolation(message, path=f"kernel.row[{i}]")
        object.__setattr__(self, "matrix", _frozen_array(m))

    @classmethod
    def identity(cls, n: int) -> "PerturbationKernel":
        """The do-nothing kernel: measurement filters but does not disturb."""
        return cls(np.eye(n))

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def apply_kernel(
    space: Prespace, distribution: Distribution, kernel: PerturbationKernel
) -> Distribution:
    """Push a point distribution through the kernel (one disturbance step)."""
    if kernel.size != space.size:
        raise InvariantViolation(
            f"kernel of size {kernel.size} does not match a space "
            f"of {space.size} points"
        )
    if len(distribution.support) != space.size:
        raise InvariantViolation(
            "distribution support does not match the space"
        )
    return Distribution(space.points, distribution.masses @ kernel.matrix)


def transition_probabilities(
    space: Prespace,
    context: Context,
    selector: RandomVariable,
    outcome: RandomVariable,
    kernel: PerturbationKernel | None,
) -> np.ndarray:
    """Matrix of outcome probabilities after selecting each selector value.

    Row ``i`` is :func:`measurement_distribution` of the outcome variable
    with the context filtered to selector value ``i`` and the kernel (if
    any) applied.  Raises :class:`DegenerateContext` when some selector
    value has no weight in the context.
    """
    return np.array(
        [
            measurement_distribution(
                space, context, outcome, kernel, selector, value
            ).masses
            for value in selector.alphabet
        ]
    )


@dataclass(frozen=True, eq=False)
class ContextualStatistics:
    """Everything the interference analysis needs about one experiment.

    Marginals of both dichotomous variables measured directly in the
    context, plus the selector-to-outcome transition matrix measured with
    the disturbance in effect.
    """

    selector_labels: tuple[Hashable, Hashable]
    outcome_labels: tuple[Hashable, Hashable]
    selector_marginals: np.ndarray
    outcome_marginals: np.ndarray
    transition: np.ndarray

    def __init__(
        self,
        selector_labels: Sequence[Hashable],
        outcome_labels: Sequence[Hashable],
        selector_marginals: Sequence[float],
        outcome_marginals: Sequence[float],
        transition: Sequence[Sequence[float]],
    ):
        selector_labels = tuple(selector_labels)
        outcome_labels = tuple(outcome_labels)
        for side, labels in (("selector", selector_labels), ("outcome", outcome_labels)):
            if len(labels) != 2 or len(set(labels)) != 2:
                raise TypeMismatch(
                    f"{side} variable must take exactly 2 distinct values, "
                    f"got {labels!r}"
                )
        sel = _frozen_array(selector_marginals)
        out = _frozen_array(outcome_marginals)
        t = _frozen_array(transition)
        if sel.shape != (2,) or out.shape != (2,):
            raise InvariantViolation("marginals must be length-2 vectors")
        if t.shape != (2, 2):
            raise InvariantViolation("transition must be a 2x2 matrix")
        for name, vec in (("selector marginals", sel), ("outcome marginals", out)):
            # A finite sum means finite entries; look at them only otherwise.
            total = float(vec.sum())
            if (not math.isfinite(total) and not np.isfinite(vec).all()) or vec.min() < 0.0:
                raise InvariantViolation(f"{name} must be non-negative and finite")
            if abs(total - 1.0) > STATISTICS_TOLERANCE:
                raise InvariantViolation(
                    f"{name} must sum to 1 within {STATISTICS_TOLERANCE}"
                )
        # min and max propagate NaN, which fails both comparisons.
        if not (t.min() >= 0.0 and t.max() <= 1.0 + STATISTICS_TOLERANCE):
            raise InvariantViolation("transition entries must lie in [0, 1]")
        row_sums = t.sum(axis=1).tolist()
        if any(abs(row - 1.0) > STATISTICS_TOLERANCE for row in row_sums):
            raise InvariantViolation(
                f"transition rows must sum to 1 within {STATISTICS_TOLERANCE}, "
                f"got {row_sums!r}"
            )
        object.__setattr__(self, "selector_labels", selector_labels)
        object.__setattr__(self, "outcome_labels", outcome_labels)
        object.__setattr__(self, "selector_marginals", sel)
        object.__setattr__(self, "outcome_marginals", out)
        object.__setattr__(self, "transition", t)


def contextual_statistics(
    space: Prespace,
    context: Context,
    selector: RandomVariable,
    outcome: RandomVariable,
    kernel: PerturbationKernel | None,
) -> ContextualStatistics:
    """Measure both marginals kernel-free and the transition with the kernel.

    ``kernel=None`` means the measurement does not disturb the context.
    """
    for role, variable in (("selector", selector), ("outcome", outcome)):
        if len(variable.alphabet) != 2:
            raise TypeMismatch(
                f"{role} variable {variable.name!r} must take exactly 2 values, "
                f"found {len(variable.alphabet)}"
            )
    selector_marginals = variable_distribution(space, selector, context)
    outcome_marginals = variable_distribution(space, outcome, context)
    transition = transition_probabilities(space, context, selector, outcome, kernel)
    return ContextualStatistics(
        selector.alphabet,
        outcome.alphabet,
        selector_marginals.masses,
        outcome_marginals.masses,
        transition,
    )


def is_contextually_sensitive(
    statistics: ContextualStatistics,
    tolerance: float = DEFAULT_SENSITIVITY_TOLERANCE,
) -> bool:
    """Whether the two-branch total-probability prediction misses the marginals.

    Compares the outcome marginals against the selector-branch combination
    ``selector_marginals @ transition`` and reports True when the largest
    absolute gap exceeds the tolerance.
    """
    predicted = statistics.selector_marginals @ statistics.transition
    gap = float(np.max(np.abs(statistics.outcome_marginals - predicted)))
    return gap > tolerance


def measurement_distribution(
    space: Prespace,
    context: Context,
    variable: RandomVariable,
    kernel: PerturbationKernel | None = None,
    selector: RandomVariable | None = None,
    selector_value: Hashable | None = None,
) -> Distribution:
    """Exact outcome distribution for one measurement configuration.

    Optionally filters the context on a selector value first and applies a
    disturbance kernel before reading off the variable.  This is the
    distribution that :func:`sample_frequencies` draws from.
    """
    # None is a legitimate selector value when the selector takes it.
    if (selector is None) != (selector_value is None) and (
        selector is None or None not in selector.alphabet
    ):
        raise InvariantViolation(
            "selector and selector_value must be given together"
        )
    if selector is not None:
        context = filter_context(space, context, selector, selector_value)
    conditional = conditional_distribution(space, context)
    if kernel is not None:
        conditional = apply_kernel(space, conditional, kernel)
    return pushforward(variable, conditional.masses)


@dataclass(frozen=True, eq=False)
class FrequencyTable:
    """Counts from repeated independent draws of one variable."""

    support: tuple[Hashable, ...]
    counts: np.ndarray
    total: int
    seed: int

    def __init__(
        self, support: Sequence[Hashable], counts: Sequence[int], total: int, seed: int
    ):
        support = tuple(support)
        c = np.asarray(counts, dtype=np.int64)
        if c.ndim != 1 or c.shape[0] != len(support):
            raise InvariantViolation("one count per support value required")
        if np.any(c < 0):
            raise InvariantViolation("counts must be non-negative")
        total = int(total)
        if total < 1:
            raise InvariantViolation("total must be at least 1")
        if int(c.sum()) != total:
            raise InvariantViolation(
                f"counts sum to {int(c.sum())}, expected total {total}"
            )
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "counts", _frozen_array(c, dtype=np.int64))
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "seed", int(seed))

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.total


def _checked_seed(seed: int | None) -> int | None:
    """Reject a negative seed before any work is paid for."""
    if seed is not None and seed < 0:
        raise InvariantViolation("seed must be a non-negative integer")
    return seed


def sample_frequencies(
    space: Prespace,
    context: Context,
    variable: RandomVariable,
    n: int,
    seed: int,
    kernel: PerturbationKernel | None = None,
    selector: RandomVariable | None = None,
    selector_value: Hashable | None = None,
) -> FrequencyTable:
    """Draw ``n`` independent samples of the variable, deterministically.

    The stream is split into fixed ``SAMPLE_CHUNK``-sized chunks, each seeded
    from its own spawn of ``seed``, so the same ``(seed, n)`` always yields
    the same counts no matter how the chunks are executed.  Draw ``u`` lands
    on support value ``j`` when ``cumulative[j-1] <= u < cumulative[j]``.
    Each chunk is drawn in ``SAMPLE_BLOCK``-sized blocks into one reused
    buffer, and each block is counted by one comparison pass per cumulative
    bound, so memory is one block whatever ``n`` is and the time grows with
    the number of support values.  The counts are unchanged from earlier
    versions, which placed each draw by binary search, for the same
    ``(seed, n)``.  ``n`` may not exceed the int64 count range.
    """
    n = int(n)
    if not 1 <= n <= MAX_SAMPLE_COUNT:
        raise InvariantViolation(
            f"sample count must be at least 1 and at most {MAX_SAMPLE_COUNT}"
        )
    seed = _checked_seed(int(seed))
    exact = measurement_distribution(
        space, context, variable, kernel, selector, selector_value
    )
    bounds = np.cumsum(exact.masses)[:-1]
    # below[j] counts the draws under bounds[j]; the last value takes the rest
    below = np.zeros(len(exact.support), dtype=np.int64)
    block = np.empty(min(n, SAMPLE_BLOCK))
    mask = np.empty(len(block), dtype=bool)
    root = np.random.SeedSequence(seed)
    for start in range(0, n, SAMPLE_CHUNK):
        (child,) = root.spawn(1)
        generator = np.random.Generator(np.random.Philox(child))
        for offset in range(start, min(n, start + SAMPLE_CHUNK), SAMPLE_BLOCK):
            size = min(SAMPLE_BLOCK, n - offset)
            uniforms = block[:size]
            generator.random(out=uniforms)
            for j, bound in enumerate(bounds):
                below[j] += np.count_nonzero(
                    np.less(uniforms, bound, out=mask[:size])
                )
    below[-1] = n
    return FrequencyTable(exact.support, np.diff(below, prepend=0), n, seed)
