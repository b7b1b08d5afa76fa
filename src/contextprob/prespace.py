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
import reprlib
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


def _set(instance, **fields):
    """Set ``instance``'s fields, each ndarray made read-only; returns ``instance``."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(instance, name, value)
    return instance


def _built(cls, **fields):
    """A frozen ``cls`` from fields derived from checked input; checks nothing."""
    return _set(object.__new__(cls), **fields)


def _checked_int(value, path: str | None = None) -> int:
    """A count, seed, size or index as an int; unlike int(), never truncates or parses."""
    try:
        # bools by type: numpy versions differ on whether np.bool_ has __index__
        if not isinstance(value, (bool, np.bool_)):
            return operator.index(value)
    except TypeError:
        pass
    raise InvariantViolation(f"expected an integer, got {value!r}", path=path)


def _checked_reals(values, noun: str) -> np.ndarray:
    """Real numbers as a new float array; unlike np.array(dtype=float), never parses."""
    try:
        out = np.array(values)  # ragged nesting raises ValueError
        kinds = {out.dtype.kind}
        if "O" in kinds:  # numbers numpy has no dtype for, such as Fractions
            kinds = {np.array(v).dtype.kind for v in out.flat}
        if kinds.isdisjoint("USbc"):  # text, bools and complex numbers
            return out.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):  # or from float() of an object
        pass
    raise InvariantViolation(f"{noun} must be real numbers, got {reprlib.repr(values)}")


def _check_normalized(
    m: np.ndarray, noun: str, tolerance: float = WEIGHT_TOLERANCE
) -> None:
    """Check a probability vector, or each row of a stochastic matrix.

    Entries must be finite and non-negative, and the vector or each row must
    sum to 1 within ``tolerance``.  A matrix is checked whole, by its row
    sums and its minimum, and its rows are walked only when that fails.  The
    first of these is raised: a non-finite entry, a negative one, a bad sum;
    a matrix's first bad row is named in the path ``noun.row[i]``.  Only a
    non-finite sum can hide a non-finite entry, so entries are inspected only
    then; sums that overflow or meet inf - inf raise no numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = m.sum(axis=-1).tolist()  # a float for a vector
    if m.ndim == 1:
        rows = [(m, sums, noun, None)]
    else:
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
        w = _checked_reals(weights, "weights")
        if w.ndim != 1 or w.shape[0] != len(points):
            raise InvariantViolation(
                f"expected {len(points)} weights, got shape {w.shape}"
            )
        _check_normalized(w, "weights")
        _set(self, points=points, weights=w)

    @classmethod
    def uniform(cls, n: int) -> "Prespace":
        """Uniform space on ``n`` auto-named points ``p1`` .. ``pn``."""
        n = _checked_int(n)
        if n < 1:
            raise InvariantViolation("a prespace needs at least one point")
        return cls.from_weights(np.full(n, 1.0 / n))

    @classmethod
    def from_weights(cls, weights: Sequence[float]) -> "Prespace":
        """Space with auto-named points and the given weights."""
        w = _checked_reals(weights, "weights")
        # atleast_1d, so a scalar reaches the shape check instead of failing here
        return cls([f"p{i + 1}" for i in range(len(np.atleast_1d(w)))], w)

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class RandomVariable:
    """Total map from points to a finite alphabet.

    ``values`` lists the variable's value at each point, in point order.  The
    ``alphabet`` is the distinct values in order of first appearance, and
    ``codes`` is the index of each point's value within the alphabet.
    """

    name: str
    values: tuple[Hashable, ...]

    def __init__(self, name: str, values: Sequence[Hashable]):
        values = tuple(values)
        if not values:
            raise InvariantViolation(f"variable {name!r} needs at least one value")
        alphabet = tuple(dict.fromkeys(values))
        index = {v: i for i, v in enumerate(alphabet)}
        codes = np.array([index[v] for v in values], dtype=np.intp)
        _set(self, name=str(name), values=values, alphabet=alphabet, _index=index, codes=codes)

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
            # Members are read twice, so anything but a sequence is copied.
            if not isinstance(members, collections.abc.Sequence):
                members = list(members)
            # Plain ints pass on their type, which also refuses bool.
            if not set(map(type, members)) <= {int}:
                try:
                    members = [_checked_int(member) for member in members]
                except InvariantViolation as exc:
                    raise InvariantViolation(f"context members must be integers: {exc}")
            cleaned = sorted(set(members))
        if not cleaned:
            raise InvariantViolation("a context needs at least one member")
        if cleaned[0] < 0:
            raise InvariantViolation("context members must be non-negative indices")
        _set(self, members=tuple(cleaned))

    @classmethod
    def full(cls, space: Prespace) -> "Context":
        return _built(cls, members=tuple(range(space.size)))

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
        m = _checked_reals(masses, "masses")
        if m.ndim != 1 or m.shape[0] != len(support):
            raise InvariantViolation(
                f"expected {len(support)} masses, got shape {m.shape}"
            )
        _check_normalized(m, "masses")
        _set(self, support=support, masses=m)

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
    return _built(Distribution, support=space.points, masses=masses)


def pushforward(variable: RandomVariable, distribution: Distribution) -> Distribution:
    """Image of a point distribution under the variable's value map."""
    size = len(distribution.support)
    if size != len(variable.values):
        raise InvariantViolation(
            f"distribution on {size} points does not match variable "
            f"{variable.name!r} on {len(variable.values)} points"
        )
    image = np.bincount(
        variable.codes, weights=distribution.masses, minlength=len(variable.alphabet)
    )
    return _built(Distribution, support=variable.alphabet, masses=image)


def variable_distribution(
    space: Prespace, variable: RandomVariable, context: Context
) -> Distribution:
    """Distribution of the variable's values under conditioning on the context."""
    _check_variable(space, variable)
    conditional = conditional_distribution(space, context)
    return pushforward(variable, conditional)


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
    return _built(Context, members=tuple(members.tolist()))


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
    return _built(Context, members=tuple(kept.tolist()))
