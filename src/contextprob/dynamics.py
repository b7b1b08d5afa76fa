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

import os
import threading
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import DegenerateContext, InvariantViolation, TypeMismatch
from .prespace import (
    Context,
    Distribution,
    Prespace,
    RandomVariable,
    _built,
    _check_normalized,
    _checked_int,
    _checked_reals,
    _set,
    conditional_distribution,
    filter_context,
    pushforward,
    variable_distribution,
)

STATISTICS_TOLERANCE = 1e-10
DEFAULT_SENSITIVITY_TOLERANCE = 1e-9

# Samples are drawn in fixed-size chunks, each with its own child seed, so
# the counts are the same however many CPUs count the chunks.
SAMPLE_CHUNK = 1 << 16
# Each worker refills its own equal share of this many draws.  Successive
# fills continue a chunk's stream, so the share does not change the draws,
# and no fill straddles two chunks.
SAMPLE_BLOCK = 1 << 14
# Counts are int64, so no call may ask for more draws than that holds.
MAX_SAMPLE_COUNT = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class PerturbationKernel:
    """Row-stochastic matrix of point-to-point disturbance probabilities."""

    matrix: np.ndarray

    def __init__(self, matrix: Sequence[Sequence[float]]):
        m = _checked_reals(matrix, "kernel")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantViolation(
                f"kernel must be a square matrix, got shape {m.shape}"
            )
        _check_normalized(m, "kernel")
        _set(self, matrix=m)

    @classmethod
    def identity(cls, n: int) -> "PerturbationKernel":
        """The do-nothing kernel: measurement filters but does not disturb."""
        n = _checked_int(n)
        if n < 1:
            raise InvariantViolation("a kernel needs at least one point")
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
    masses = distribution.masses @ kernel.matrix
    return _built(Distribution, support=space.points, masses=masses)


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
        sel = _checked_reals(selector_marginals, "selector marginals")
        out = _checked_reals(outcome_marginals, "outcome marginals")
        t = _checked_reals(transition, "transition")
        if sel.shape != (2,) or out.shape != (2,):
            raise InvariantViolation("marginals must be length-2 vectors")
        if t.shape != (2, 2):
            raise InvariantViolation("transition must be a 2x2 matrix")
        _check_normalized(sel, "selector marginals", STATISTICS_TOLERANCE)
        _check_normalized(out, "outcome marginals", STATISTICS_TOLERANCE)
        _check_normalized(t, "transition", STATISTICS_TOLERANCE)
        _set(
            self,
            selector_labels=selector_labels,
            outcome_labels=outcome_labels,
            selector_marginals=sel,
            outcome_marginals=out,
            transition=t,
        )


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
    return _built(
        ContextualStatistics,
        selector_labels=selector.alphabet,
        outcome_labels=outcome.alphabet,
        selector_marginals=selector_marginals.masses,
        outcome_marginals=outcome_marginals.masses,
        transition=transition,
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
    return pushforward(variable, conditional)


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
        try:  # dtype=object lets a ragged nesting reach the member check
            shape = np.shape(np.array(counts, dtype=object))
        except ValueError:  # a nesting numpy cannot hold even as objects
            shape = None
        if shape != (len(support),):
            raise InvariantViolation("one count per support value required")
        if isinstance(counts, np.ndarray) and counts.dtype.kind in "iu":
            counts = counts.tolist()  # checked by its dtype; Python ints sum exactly
        else:
            counts = [_checked_int(count) for count in counts]
        if min(counts, default=0) < 0:
            raise InvariantViolation("counts must be non-negative")
        total = _checked_sample_count(total)  # so each count fits in int64
        if sum(counts) != total:
            raise InvariantViolation(f"counts sum to {sum(counts)}, expected total {total}")
        counts = np.array(counts, dtype=np.int64)
        _set(self, support=support, counts=counts, total=total, seed=_checked_seed(seed))

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.total


def _checked_seed(seed: int, path: str | None = None) -> int:
    """Reject a seed that is not a non-negative integer before any work is paid for."""
    seed = _checked_int(seed, path)
    if seed < 0:
        raise InvariantViolation("seed must be a non-negative integer", path=path)
    return seed


def _checked_sample_count(n: int, path: str | None = None) -> int:
    """Reject a draw count that is not a positive integer or overflows the counts."""
    n = _checked_int(n, path)
    if not 1 <= n <= MAX_SAMPLE_COUNT:
        raise InvariantViolation(
            f"sample count must be at least 1 and at most {MAX_SAMPLE_COUNT}",
            path=path,
        )
    return n


def _usable_cpus() -> int:
    """CPUs this process may run on, or all of the machine's where unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
    the same counts on any machine.  Draw ``u`` lands on support value ``j``
    when ``cumulative[j-1] <= u < cumulative[j]``.  The chunks are counted
    by one worker per usable CPU, at most one per chunk: worker ``w`` of
    ``W`` takes chunks ``w``, ``w + W``, ...  The caller is worker 0 and
    the others are threads, which run in parallel because drawing and
    comparing release the GIL.  Each worker draws into its own buffer, the
    buffers together one ``SAMPLE_BLOCK`` of draws, and counts each fill by
    one comparison pass per cumulative bound, so memory is one block
    whatever ``n`` is and the time grows with the number of support values.
    An exception in any worker is raised here once every worker has
    stopped.  The counts are unchanged from earlier versions, which placed
    each draw by binary search, for the same ``(seed, n)``.  ``n`` may not
    exceed the int64 count range.
    """
    n = _checked_sample_count(n)
    seed = _checked_seed(seed)
    exact = measurement_distribution(
        space, context, variable, kernel, selector, selector_value
    )
    bounds = np.cumsum(exact.masses)[:-1]
    n_chunks = -(-n // SAMPLE_CHUNK)
    workers = min(_usable_cpus(), n_chunks)
    # More than one worker means more than one chunk, so the workers'
    # buffers together are a whole SAMPLE_BLOCK.
    width = min(n, SAMPLE_BLOCK) // workers
    # below[w, j] counts worker w's draws under bounds[j]; the last value
    # takes the rest of n
    below = np.zeros((workers, len(bounds)), dtype=np.int64)
    errors: list[BaseException] = []

    def count(w: int) -> None:
        """Add worker ``w``'s draws under each bound into ``below[w]``."""
        try:
            draws, flags = np.empty(width), np.empty(width, dtype=bool)
            for chunk in range(w, n_chunks, workers):
                # the same seed as the chunk-th SeedSequence(seed).spawn(1) child
                child = np.random.SeedSequence(seed, spawn_key=(chunk,))
                generator = np.random.Generator(np.random.Philox(child))
                start = chunk * SAMPLE_CHUNK
                stop = min(n, start + SAMPLE_CHUNK)
                for offset in range(start, stop, width):
                    size = min(width, stop - offset)
                    uniforms = draws[:size]
                    generator.random(out=uniforms)
                    for j, bound in enumerate(bounds):
                        below[w, j] += np.count_nonzero(
                            np.less(uniforms, bound, out=flags[:size])
                        )
        except BaseException as exc:
            errors.append(exc)

    started = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=count, args=(w,), daemon=True)
            thread.start()
            started.append(thread)
        count(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    counts = np.diff(below.sum(axis=0), prepend=0, append=n)
    return _built(FrequencyTable, support=exact.support, counts=counts, total=n, seed=seed)
