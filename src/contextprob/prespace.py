"""Finite probability spaces with explicit point weights.

The sample space is an ordered, finite list of points, each carrying one
probability weight.  Random variables are total maps from points to a finite
alphabet, contexts are subsets of points with positive total weight, and
every operation in this module is plain conditioning: nothing here perturbs
anything.

Conventions
-----------
* Weights are validated to sum to 1 within ``WEIGHT_TOLERANCE`` and to be
  non-negative.  Individual points may carry weight 0; only contexts must
  have positive total weight.
* A variable's alphabet is derived from its values, in order of first
  appearance, so every alphabet value has a non-empty preimage.
* Distributions over points keep the full-length mass vector (zeros outside
  the conditioning set), which keeps indices aligned with the space.
"""

from __future__ import annotations

import collections.abc
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import (
    DegenerateContext,
    InvariantViolation,
    TypeMismatch,
    UnknownValue,
)

WEIGHT_TOLERANCE = 1e-12
DISPERSION_CLAMP = 1e-12


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


def _check_normalized(
    m: np.ndarray, noun: str, tolerance: float = WEIGHT_TOLERANCE
) -> None:
    """Check a probability vector, or each row of a stochastic matrix.

    Entries must be finite and non-negative, and the vector or each row must
    sum to 1 within ``tolerance``.  A matrix is checked whole, by its row
    sums and its minimum, and its rows are walked only when that fails.  The
    first of these is raised: a non-finite entry, a negative one, a bad sum;
    a matrix's first bad row is named in the path ``noun.row[i]``.  A finite
    sum means every entry is finite, so the entries themselves are only
    inspected when the sum is not.
    """
    if m.ndim == 1:
        rows = [(m, float(m.sum()), noun, None)]
    else:
        sums = m.sum(axis=1).tolist()
        # NaN fails every comparison, so it always falls through to the walk.
        if (not m.size or m.min() >= 0.0) and all(
            abs(total - 1.0) <= tolerance for total in sums
        ):
            return
        rows = (
            (row, total, "row", f"{noun}.row[{i}]")
            for i, (row, total) in enumerate(zip(m, sums))
        )
    for row, total, name, path in rows:
        if not math.isfinite(total) and not np.isfinite(row).all():
            raise InvariantViolation(f"{name} must be finite", path=path)
        if row.size and row.min() < 0.0:
            raise InvariantViolation(f"{name} must be non-negative", path=path)
        if abs(total - 1.0) > tolerance:
            raise InvariantViolation(
                f"{name} must sum to 1 within {tolerance}, got {total!r}", path=path
            )


@dataclass(frozen=True, eq=False)
class Prespace:
    """Ordered finite sample space: point identifiers plus one weight each."""

    points: tuple[Hashable, ...]
    weights: np.ndarray

    def __init__(self, points: Sequence[Hashable], weights: Sequence[float]):
        points = tuple(points)
        if not points:
            raise InvariantViolation("a prespace needs at least one point")
        if len(set(points)) != len(points):
            raise InvariantViolation("point identifiers must be unique")
        w = _frozen_array(weights)
        if w.ndim != 1 or w.shape[0] != len(points):
            raise InvariantViolation(
                f"expected {len(points)} weights, got shape {w.shape}"
            )
        _check_normalized(w, "weights")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n: int) -> "Prespace":
        """Uniform space on ``n`` auto-named points ``p1`` .. ``pn``."""
        if n < 1:
            raise InvariantViolation("a prespace needs at least one point")
        return cls.from_weights(np.full(n, 1.0 / n))

    @classmethod
    def from_weights(cls, weights: Sequence[float]) -> "Prespace":
        """Space with auto-named points and the given weights."""
        w = np.asarray(weights, dtype=float)
        # atleast_1d, so a scalar reaches the shape check instead of failing here
        return cls([f"p{i + 1}" for i in range(len(np.atleast_1d(w)))], w)

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class RandomVariable:
    """Total map from points to a finite alphabet.

    ``values`` lists the variable's value at each point, in point order.  The
    alphabet is the distinct values in order of first appearance.
    """

    name: str
    values: tuple[Hashable, ...]

    def __init__(self, name: str, values: Sequence[Hashable]):
        values = tuple(values)
        if not values:
            raise InvariantViolation(f"variable {name!r} needs at least one value")
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "values", values)
        alphabet = tuple(dict.fromkeys(values))
        index = {v: i for i, v in enumerate(alphabet)}
        codes = np.fromiter(
            (index[v] for v in values), dtype=np.intp, count=len(values)
        )
        codes.flags.writeable = False
        object.__setattr__(self, "_alphabet", alphabet)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_codes", codes)

    @property
    def alphabet(self) -> tuple[Hashable, ...]:
        return self._alphabet

    @property
    def codes(self) -> np.ndarray:
        """Index of each point's value within the alphabet."""
        return self._codes

    @property
    def is_numeric(self) -> bool:
        return all(
            isinstance(v, numbers.Real) and not isinstance(v, bool)
            for v in self.values
        )

    def value_index(self, value: Hashable) -> int:
        try:
            return self._index[value]
        except KeyError:
            raise UnknownValue(
                f"{value!r} is not a value of variable {self.name!r}"
            ) from None


@dataclass(frozen=True)
class Context:
    """A subset of points, stored as sorted unique indices.

    Index validity and positive total weight are checked against a concrete
    :class:`Prespace` by the operations that take both.
    """

    members: tuple[int, ...]

    def __init__(self, members: Sequence[int]):
        if isinstance(members, np.ndarray) and members.dtype.kind != "O":
            # An array is checked by its dtype, which also refuses bool.
            if members.ndim != 1 or members.dtype.kind not in "iu":
                raise InvariantViolation(
                    "context members must be integers: got an array of "
                    f"{members.dtype} with shape {members.shape}"
                )
            cleaned = sorted(set(members.tolist()))
        else:
            # operator.index takes Python and numpy integers and, unlike
            # int(), refuses 2.9 instead of truncating it.  It also takes
            # bool, an int subclass, so booleans are refused separately.
            # Members are read twice, so anything but a sequence is copied.
            if not isinstance(members, collections.abc.Sequence):
                members = list(members)
            try:
                cleaned = sorted(set(map(operator.index, members)))
            except TypeError as exc:
                raise InvariantViolation(f"context members must be integers: {exc}")
            if bool in set(map(type, members)):
                raise InvariantViolation(
                    "context members must be integers, not booleans"
                )
        if not cleaned:
            raise InvariantViolation("a context needs at least one member")
        if cleaned[0] < 0:
            raise InvariantViolation("context members must be non-negative indices")
        object.__setattr__(self, "members", tuple(cleaned))

    @classmethod
    def full(cls, space: Prespace) -> "Context":
        return cls(range(space.size))

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability masses over an explicit support."""

    support: tuple[Hashable, ...]
    masses: np.ndarray

    def __init__(self, support: Sequence[Hashable], masses: Sequence[float]):
        support = tuple(support)
        m = _frozen_array(masses)
        if m.ndim != 1 or m.shape[0] != len(support):
            raise InvariantViolation(
                f"expected {len(support)} masses, got shape {m.shape}"
            )
        _check_normalized(m, "masses")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "masses", m)

    def mass(self, value: Hashable) -> float:
        try:
            return float(self.masses[self.support.index(value)])
        except ValueError:
            raise UnknownValue(f"{value!r} is not in the support") from None


def _check_variable(space: Prespace, variable: RandomVariable) -> None:
    if len(variable.values) != space.size:
        raise InvariantViolation(
            f"variable {variable.name!r} has {len(variable.values)} values "
            f"for a space of {space.size} points"
        )


def _member_indices(space: Prespace, context: Context) -> np.ndarray:
    # Checked on the Python ints, which may be beyond the intp range.
    last = context.members[-1]
    if last >= space.size:
        raise InvariantViolation(
            f"context member {last} is out of range for a space of {space.size} points"
        )
    return np.asarray(context.members, dtype=np.intp)


def context_probability(space: Prespace, context: Context) -> float:
    """Total weight of the context's members, in [0, 1]."""
    members = _member_indices(space, context)
    total = float(space.weights[members].sum())
    return min(max(total, 0.0), 1.0)


def conditional_distribution(space: Prespace, context: Context) -> Distribution:
    """Renormalized weights inside the context, zeros elsewhere.

    Raises :class:`DegenerateContext` when the context carries no weight.
    """
    members = _member_indices(space, context)
    total = float(space.weights[members].sum())
    if total <= 0.0:
        raise DegenerateContext(
            "cannot condition on a context of zero probability"
        )
    masses = np.zeros(space.size)
    masses[members] = space.weights[members] / total
    return Distribution(space.points, masses)


def pushforward(variable: RandomVariable, masses: np.ndarray) -> Distribution:
    """Image of a point distribution under the variable's value map."""
    m = np.asarray(masses, dtype=float)
    if m.shape[0] != len(variable.values):
        raise InvariantViolation(
            f"mass vector of length {m.shape[0]} does not match variable "
            f"{variable.name!r} on {len(variable.values)} points"
        )
    image = np.bincount(
        variable.codes, weights=m, minlength=len(variable.alphabet)
    )
    return Distribution(variable.alphabet, image)


def variable_distribution(
    space: Prespace, variable: RandomVariable, context: Context
) -> Distribution:
    """Distribution of the variable's values under conditioning on the context."""
    _check_variable(space, variable)
    conditional = conditional_distribution(space, context)
    return pushforward(variable, conditional.masses)


def expectation_and_dispersion(
    space: Prespace, variable: RandomVariable, context: Context
) -> tuple[float, float]:
    """Conditional mean and variance of a numeric variable.

    The variance is computed as ``E[v^2] - E[v]^2``; tiny negative rounding
    residue (within ``DISPERSION_CLAMP``) is clamped to exactly 0.
    """
    _check_variable(space, variable)
    if not variable.is_numeric:
        raise TypeMismatch(
            f"variable {variable.name!r} must be numeric for moments"
        )
    conditional = conditional_distribution(space, context)
    values = np.asarray(variable.values, dtype=float)
    mean = float(np.dot(conditional.masses, values))
    second = float(np.dot(conditional.masses, values * values))
    dispersion = second - mean * mean
    if -DISPERSION_CLAMP <= dispersion < 0.0:
        dispersion = 0.0
    return mean, dispersion


def fiber(space: Prespace, variable: RandomVariable, value: Hashable) -> Context:
    """All points where the variable takes the given value.

    The fibers over the alphabet partition the space.  Raises
    :class:`UnknownValue` when the value is outside the alphabet.
    """
    _check_variable(space, variable)
    code = variable.value_index(value)
    members = np.flatnonzero(variable.codes == code)
    return Context(members)


def compression_ratio(space: Prespace, variable: RandomVariable) -> float:
    """Point count divided by alphabet size; how much the variable coarsens."""
    _check_variable(space, variable)
    return space.size / len(variable.alphabet)


def filter_context(
    space: Prespace,
    context: Context,
    variable: RandomVariable,
    value: Hashable,
) -> Context:
    """Restrict the context to points where the variable takes the value.

    Raises :class:`DegenerateContext` when the restriction is empty or has
    zero total weight.
    """
    _check_variable(space, variable)
    code = variable.value_index(value)
    members = _member_indices(space, context)
    kept = members[variable.codes[members] == code]
    if kept.size == 0:
        raise DegenerateContext(
            f"no points with {variable.name!r} = {value!r} in the context"
        )
    if float(space.weights[kept].sum()) <= 0.0:
        raise DegenerateContext(
            f"points with {variable.name!r} = {value!r} carry zero weight "
            "in the context"
        )
    return Context(kept)
