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
    _check_image,
    _check_normalized,
    _check_variable,
    _checked_int,
    _checked_reals,
    _set,
    _shown,
    _Stored,
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
# Each worker draws its own equal share of this many raw 64-bit words at a
# time.  Successive blocks continue a chunk's stream, so the share does not
# change the draws, and no block straddles two chunks.
SAMPLE_BLOCK = 1 << 14
# One more than the largest raw word: a limit this high counts every draw.
WORD_RANGE = 1 << 64
# Counts are int64, so no call may ask for more draws than that holds.
MAX_SAMPLE_COUNT = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class PerturbationKernel(_Stored):
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
        return _built(cls, matrix=np.eye(n))  # stochastic by construction: no checking copy

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

    Row ``i`` equals :func:`measurement_distribution` of the outcome variable
    with the context filtered to selector value ``i`` and the kernel (if
    any) applied: the weights of :func:`filter_context`'s members over their
    sum, through :func:`apply_kernel` on its own, then one ``bincount`` of
    the outcome's codes.  Raises :class:`DegenerateContext` when some
    selector value has no weight in the context.
    """
    n, k = space.size, len(outcome.alphabet)
    rows = []
    for value in selector.alphabet:
        kept = filter_context(space, context, selector, value).indices
        weights = space.weights[kept]
        row = np.zeros(n)
        row[kept] = weights / float(weights.sum())
        if kernel is not None:
            row = apply_kernel(
                space, _built(Distribution, support=space.points, masses=row), kernel
            ).masses
        _check_image(outcome, n)  # where pushforward would refuse it
        rows.append(np.bincount(outcome.codes, weights=row, minlength=k))
    return np.array(rows)


@dataclass(frozen=True, eq=False)
class ContextualStatistics(_Stored):
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
                    f"got {_shown(labels)}"
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


def branch_probabilities(statistics: ContextualStatistics) -> np.ndarray:
    """Matrix of per-branch outcome probabilities.

    Entry ``[i, j]`` is the probability of reaching outcome ``j`` through
    selector value ``i``: the selector marginal times the transition entry.
    """
    return statistics.selector_marginals[:, np.newaxis] * statistics.transition


def _branches_and_gap(
    statistics: ContextualStatistics,
) -> tuple[tuple[tuple[float, float], tuple[float, float]], tuple[float, float]]:
    """The branch matrix, and each outcome's gap ``observed - branch_1 - branch_2``.

    The gap is the failure of the formula of total probability: it is 0 for
    an outcome whose directly observed marginal is the sum of its branches.
    Both come as Python floats, computed in the order of
    :func:`branch_probabilities` and its row subtraction, so every bit is the same.
    """
    s0, s1 = statistics.selector_marginals.tolist()
    (t00, t01), (t10, t11) = statistics.transition.tolist()
    o0, o1 = statistics.outcome_marginals.tolist()
    b00, b01, b10, b11 = s0 * t00, s0 * t01, s1 * t10, s1 * t11
    return ((b00, b01), (b10, b11)), (o0 - b00 - b10, o1 - b01 - b11)


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
    # Conditioned once; each marginal is a bincount of its codes over the
    # same masses, as variable_distribution gives it.  The refusals keep the
    # order of two variable_distribution calls: the selector's length, the
    # context, the outcome's length.
    _check_variable(space, selector)
    conditional = conditional_distribution(space, context).masses
    _check_variable(space, outcome)
    transition = transition_probabilities(space, context, selector, outcome, kernel)
    return _built(
        ContextualStatistics,
        selector_labels=selector.alphabet,
        outcome_labels=outcome.alphabet,
        selector_marginals=np.bincount(selector.codes, weights=conditional, minlength=2),
        outcome_marginals=np.bincount(outcome.codes, weights=conditional, minlength=2),
        transition=transition,
    )


def is_contextually_sensitive(statistics: ContextualStatistics) -> bool:
    """Whether the two-branch total-probability prediction misses the marginals.

    Reports True when the largest absolute gap ``observed - branch_1 -
    branch_2`` over the outcomes exceeds ``DEFAULT_SENSITIVITY_TOLERANCE``
    (1e-9), a fixed constant that no caller or document sets.
    """
    _, (gap_0, gap_1) = _branches_and_gap(statistics)
    return max(abs(gap_0), abs(gap_1)) > DEFAULT_SENSITIVITY_TOLERANCE


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
    disturbance kernel before reading off the variable; without a kernel it
    is :func:`variable_distribution` in the (filtered) context.  This is the
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
    if kernel is None:
        return variable_distribution(space, variable, context)
    disturbed = apply_kernel(space, conditional_distribution(space, context), kernel)
    return pushforward(variable, disturbed)


@dataclass(frozen=True, eq=False)
class FrequencyTable(_Stored):
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
            raise InvariantViolation(f"counts sum to {_shown(sum(counts))}, expected total {total}")
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


def _word_limits(bounds: np.ndarray) -> list[int]:
    """The raw-word limit of each cumulative bound.

    numpy's uniform from Philox's raw word ``r`` is ``(r >> 11) * 2**-53``,
    so it is below bound ``b`` exactly when ``r < ceil(b * 2**53) * 2**11``.
    The limits are clamped to ``[0, WORD_RANGE]``: 0 counts no draw and
    ``WORD_RANGE``, which no uint64 holds, counts every draw.
    """
    return [min(max(math.ceil(b * 2.0**53), 0), 2**53) << 11 for b in bounds.tolist()]


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
    when ``cumulative[j-1] <= u < cumulative[j]``.  Each draw is counted on
    its raw 64-bit Philox word, never converted to ``u``: the word is below
    the integer limit of a cumulative bound (see ``_word_limits``, computed
    once per call) exactly when ``u`` is below the bound.  The chunks are
    counted by one worker per usable CPU, at most one per chunk: worker
    ``w`` of ``W`` takes chunks ``w``, ``w + W``, ...  The caller is worker
    0 and the others are threads, which run in parallel because drawing and
    comparing release the GIL.  Each worker draws ``SAMPLE_BLOCK / W``
    words at a time into its slot ``blocks[w]``, which it empties before
    drawing the next block and which keeps the last block until the call
    returns.  It counts each block by one comparison pass per limit into
    its row of a flag buffer allocated before any thread starts, so memory
    is about one block whatever ``n`` is and however the threads run, and
    the time grows with the number of support values.
    An exception in any worker is raised here once every worker has
    stopped.  The counts are unchanged from earlier versions, which placed
    each draw by binary search on ``u``, for the same ``(seed, n)``.  ``n``
    may not exceed the int64 count range.
    """
    n = _checked_sample_count(n)
    seed = _checked_seed(seed)
    exact = measurement_distribution(
        space, context, variable, kernel, selector, selector_value
    )
    limits = _word_limits(np.cumsum(exact.masses)[:-1])
    # the bounds rise, so the limits that no word reaches come last
    compared = np.array([limit for limit in limits if limit < WORD_RANGE], dtype=np.uint64)
    n_chunks = -(-n // SAMPLE_CHUNK)
    workers = min(_usable_cpus(), n_chunks)
    # More than one worker means more than one chunk, so the workers'
    # blocks together are a whole SAMPLE_BLOCK.
    width = min(n, SAMPLE_BLOCK) // workers
    # below[w, j] counts worker w's draws under limits[j]; the last value
    # takes the rest of n
    below = np.zeros((workers, len(limits)), dtype=np.int64)
    # row w is worker w's; allocated here, so the peak does not depend on thread timing
    flags = np.empty((workers, width), dtype=bool)
    # blocks[w] keeps worker w's last block until this call returns, so the
    # workers' blocks always overlap and the peak does not depend on timing
    blocks: list[np.ndarray | None] = [None] * workers
    errors: list[BaseException] = []

    def count(w: int) -> None:
        """Add worker ``w``'s draws under each limit into ``below[w]``."""
        try:
            for chunk in range(w, n_chunks, workers):
                # the same seed as the chunk-th SeedSequence(seed).spawn(1) child
                child = np.random.SeedSequence(seed, spawn_key=(chunk,))
                philox = np.random.Philox(child)
                start = chunk * SAMPLE_CHUNK
                stop = min(n, start + SAMPLE_CHUNK)
                for offset in range(start, stop, width):
                    size = min(width, stop - offset)
                    blocks[w] = None  # frees the last block before the next is drawn
                    blocks[w] = philox.random_raw(size)
                    for j, limit in enumerate(compared):
                        below[w, j] += np.count_nonzero(
                            np.less(blocks[w], limit, out=flags[w, :size])
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
    totals = below.sum(axis=0)
    totals[len(compared):] = n  # a limit of 2**64 holds every draw
    counts = np.diff(totals, prepend=0, append=n)
    return _built(FrequencyTable, support=exact.support, counts=counts, total=n, seed=seed)
