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
_INTP_MAX = np.iinfo(np.intp).max  # hoisted: np.iinfo costs as much as a small Context
_SHOWN_LIMIT = 200  # longest repr of a value that a diagnostic shows whole


def _set(instance, **fields):
    """Store ``instance``'s fields in one step, each ndarray first made read-only.

    The fields go straight into the instance's ``__dict__``, past the frozen
    dataclass's ``__setattr__``.  Returns ``instance``.
    """
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    instance.__dict__.update(fields)
    return instance


def _built(cls, **fields):
    """A frozen ``cls`` from fields derived from checked input; checks nothing.

    The fields are stored as :func:`_set` stores them, written out here
    because a small analysis builds a dozen values and the call shows.
    """
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


class _Stored:
    """Base of the classes whose fields ``_set`` stores.

    ``pickle`` and ``copy`` restore a value's fields through ``_set`` too, so
    a copy's arrays are read-only like the original's.
    """

    def __setstate__(self, state):
        _set(self, **state)


class _ShortRepr(reprlib.Repr):
    """``reprlib``'s shortened repr, which names an integer too long for
    ``repr`` by its bit length wherever it is nested."""

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # more digits than int-to-str conversion allows
            return f"an integer of {x.bit_length()} bits"


_SHORT_REPR = _ShortRepr()


def _shown(value) -> str:
    """``repr(value)`` for a diagnostic, shortened by ``reprlib`` when it is long.

    An integer with more digits than int-to-str conversion allows is named by
    its bit length, alone or inside a container, so no diagnostic fails on it.
    """
    try:
        text = repr(value)
    except ValueError:
        return _SHORT_REPR.repr(value)
    return text if len(text) <= _SHOWN_LIMIT else _SHORT_REPR.repr(value)


def _index_of(entries: tuple, value, where: str) -> int:
    """Position of ``value`` in ``entries``; only a hashable value with a bool ``==`` matches.

    Entries are hashable. An array compares element-wise, so ``np.array([2])``,
    or a tuple holding one, would otherwise match ``2``.
    """
    try:
        hash(value)  # an array, even one nested in a tuple, is unhashable
        i = entries.index(value)
        if isinstance(entries[i] == value, (bool, np.bool_)):
            return i
    except (TypeError, ValueError):  # unhashable, absent, or no single truth value
        pass
    raise UnknownValue(f"{_shown(value)} is not {where}")


def _checked_int(value, path: str | None = None) -> int:
    """A count, seed, size or index as an int; unlike int(), never truncates or parses."""
    try:
        # bools by type: numpy versions differ on whether np.bool_ has __index__
        if not isinstance(value, (bool, np.bool_)):
            return operator.index(value)
    except TypeError:
        pass
    raise InvariantViolation(f"expected an integer, got {_shown(value)}", path=path)


def _real_types(types: set) -> bool:
    """Whether every type is a real-number type; bool is an int, but not a number."""
    return types <= {int, float} or all(  # the common case skips the slow ABC check
        issubclass(t, numbers.Real) and not issubclass(t, (bool, np.bool_)) for t in types
    )


def _checked_reals(values, noun: str, path: str | None = None) -> np.ndarray:
    """Real numbers as a new float array; never parses text or casts a bool.

    A real ndarray is judged by its dtype, anything else by each entry's type.
    A refusal names ``noun``, or entry ``i`` of a document's flat list at ``path.format(i)``.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        return values.astype(float)
    try:
        if type(values) in (list, tuple) and _real_types(set(map(type, values))):
            return np.array(values, dtype=float)
        if path is None:  # a document's list is flat
            nested = np.array(values, dtype=object)  # ragged: lists as entries
            if _real_types(set(map(type, nested.flat))):
                return nested.astype(float)
    except (ValueError, OverflowError):  # clashing shapes; too large for a float
        pass
    if path is not None:
        for i, entry in enumerate(values):
            where = path.format(i)
            if not _real_types({type(entry)}):
                raise InvariantViolation(f"expected a number, got {_shown(entry)}", path=where)
            try:
                float(entry)
            except OverflowError:
                raise InvariantViolation("number is too large for a float", path=where)
    raise InvariantViolation(f"{noun} must be real numbers, got {reprlib.repr(values)}")


def _check_normalized(
    m: np.ndarray, noun: str, tolerance: float = WEIGHT_TOLERANCE
) -> None:
    """Check a probability vector, or each row of a stochastic matrix.

    Entries must be finite and non-negative, and the vector or each row must
    sum to 1 within ``tolerance``.  A vector is one row; all rows are checked
    at once, by their sums and minimum, and walked only when that fails.  The
    first of these is raised: a non-finite entry, a negative one, a bad sum;
    a matrix's first bad row is named in the path ``noun.row[i]``.  Only a
    non-finite sum can hide a non-finite entry, so entries are inspected only
    then; sums that overflow or meet inf - inf raise no numpy warning.  A
    non-empty vector with every entry in [0, 1] and a good sum returns first,
    by its minimum, maximum and sum alone: it accepts exactly what the full
    check accepts, and anything else gets the full check and its message.
    """
    # A vector with entries in [0, 1] cannot overflow its sum, so the common
    # case is accepted first, without the errstate of the full check below.
    if m.ndim == 1 and m.size and m.min() >= 0.0 and m.max() <= 1.0 and (
        abs(float(m.sum()) - 1.0) <= tolerance
    ):
        return
    rows = np.atleast_2d(m)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = rows.sum(axis=1).tolist()
    # NaN fails every comparison, so it always falls through to the walk.
    if (not rows.size or rows.min() >= 0.0) and all(
        abs(total - 1.0) <= tolerance for total in sums
    ):
        return
    for i, (row, total) in enumerate(zip(rows, sums)):
        name, path = (noun, None) if m.ndim == 1 else ("row", f"{noun}.row[{i}]")
        if not math.isfinite(total) and not np.isfinite(row).all():
            raise InvariantViolation(f"{name} must be finite", path=path)
        if row.size and row.min() < 0.0:
            raise InvariantViolation(f"{name} must be non-negative", path=path)
        if abs(total - 1.0) > tolerance:
            raise InvariantViolation(
                f"{name} must sum to 1 within {tolerance}, got {total!r}", path=path
            )


def _check_weights(w: np.ndarray, n: int) -> None:
    """Check that ``w`` is a probability vector over ``n`` points."""
    if w.ndim != 1 or w.shape[0] != n:
        raise InvariantViolation(f"expected {n} weights, got shape {w.shape}")
    _check_normalized(w, "weights")


class _AutoNames(collections.abc.Sequence):
    """The names ``("p1", ..., "pN")`` of an auto-named space, each made when read.

    Equal to that tuple both ways, with its hash, length, indexing and slicing;
    ``in``, ``count`` and ``index`` scan the names, as a tuple's do.
    """

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(f"p{k + 1}" for k in range(self._n)[i])
        return f"p{range(self._n)[i] + 1}"  # the range refuses an index as a tuple would

    def __eq__(self, other):
        if isinstance(other, (_AutoNames, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


@dataclass(frozen=True, eq=False)
class Prespace(_Stored):
    """Ordered finite sample space: point identifiers plus one weight each.

    ``points`` is a tuple of the given identifiers.  An auto-named space
    (:meth:`from_weights`, :meth:`uniform`, a model document without
    ``points``) holds a sequence equal to the tuple ``("p1", ..., "pN")``
    that makes each name only when it is read.
    """

    points: Sequence[Hashable]
    weights: np.ndarray

    def __init__(self, points: Sequence[Hashable], weights: Sequence[float]):
        points = tuple(points)
        if not points:
            raise InvariantViolation("a prespace needs at least one point")
        if len(set(points)) != len(points):
            raise InvariantViolation("point identifiers must be unique")
        w = _checked_reals(weights, "weights")
        _check_weights(w, len(points))
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
        n = w.shape[0] if w.ndim else 1  # a scalar counts as one weight of the wrong shape
        if not n:
            raise InvariantViolation("a prespace needs at least one point")
        _check_weights(w, n)
        return _built(cls, points=_AutoNames(n), weights=w)

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class RandomVariable(_Stored):
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
            raise InvariantViolation(f"variable {_shown(name)} needs at least one value")
        try:
            name = str(name)
        except ValueError:  # an int with more digits than int-to-str conversion allows
            raise InvariantViolation(
                f"a variable name must have a text form, got {_shown(name)}"
            ) from None
        index = {v: i for i, v in enumerate(dict.fromkeys(values))}
        codes = np.fromiter(map(index.__getitem__, values), np.intp, len(values))
        _set(self, name=name, values=values, alphabet=tuple(index), codes=codes)

    @property
    def is_numeric(self) -> bool:
        return all(
            isinstance(v, numbers.Real) and not isinstance(v, bool)
            for v in self.values
        )

    def value_index(self, value: Hashable) -> int:
        return _index_of(self.alphabet, value, f"a value of variable {self.name!r}")


@dataclass(frozen=True, eq=False)
class Context(_Stored):
    """A subset of points, stored as ``indices``: sorted, unique, a read-only intp array.

    Index validity and positive total weight are checked against a concrete
    :class:`Prespace` by the operations that take both.
    """

    indices: np.ndarray

    def __init__(self, members: Sequence[int]):
        if isinstance(members, np.ndarray) and members.dtype.kind != "O":
            # An array is checked by its dtype, which also refuses bool.
            if members.ndim != 1 or members.dtype.kind not in "iu":
                raise InvariantViolation(
                    "context members must be integers: got an array of "
                    f"{members.dtype} with shape {members.shape}"
                )
            members = members.tolist()
        elif not isinstance(members, collections.abc.Sequence):
            # Members are read twice, so anything but a sequence is copied.
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
        if cleaned[-1] > _INTP_MAX:
            raise InvariantViolation(
                f"context member {_shown(cleaned[-1])} is out of range for an index"
            )
        _set(self, indices=np.array(cleaned, dtype=np.intp))

    @classmethod
    def full(cls, space: Prespace) -> "Context":
        return _built(cls, indices=np.arange(space.size, dtype=np.intp))

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(self.indices.tolist())

    @property
    def size(self) -> int:
        return len(self.indices)

    def __eq__(self, other):
        if not isinstance(other, Context):
            return NotImplemented
        return self.indices.tobytes() == other.indices.tobytes()

    def __hash__(self):
        return hash(self.indices.tobytes())


@dataclass(frozen=True, eq=False)
class Distribution(_Stored):
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
        return float(self.masses[_index_of(self.support, value, "in the support")])


def _check_variable(space: Prespace, variable: RandomVariable) -> None:
    if len(variable.values) != space.size:
        raise InvariantViolation(
            f"variable {variable.name!r} has {len(variable.values)} values "
            f"for a space of {space.size} points"
        )


def _member_indices(space: Prespace, context: Context) -> np.ndarray:
    indices = context.indices
    if indices[-1] >= space.size:
        raise InvariantViolation(
            f"context member {indices[-1]} is out of range for a space of {space.size} points"
        )
    return indices


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
    member_weights = space.weights[members]
    total = float(member_weights.sum())
    if total <= 0.0:
        raise DegenerateContext(
            "cannot condition on a context of zero probability"
        )
    masses = np.zeros(space.size)
    masses[members] = member_weights / total
    return _built(Distribution, support=space.points, masses=masses)


def _check_image(variable: RandomVariable, size: int) -> None:
    """Refuse a variable whose values do not cover a distribution on ``size`` points."""
    if size != len(variable.values):
        raise InvariantViolation(
            f"distribution on {size} points does not match variable "
            f"{variable.name!r} on {len(variable.values)} points"
        )


def pushforward(variable: RandomVariable, distribution: Distribution) -> Distribution:
    """Image of a point distribution under the variable's value map."""
    _check_image(variable, len(distribution.support))
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
    return _built(Context, indices=np.flatnonzero(variable.codes == code))


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
            f"no points with {variable.name!r} = {_shown(value)} in the context"
        )
    if float(space.weights[kept].sum()) <= 0.0:
        raise DegenerateContext(
            f"points with {variable.name!r} = {_shown(value)} carry zero weight "
            "in the context"
        )
    return _built(Context, indices=kept)
