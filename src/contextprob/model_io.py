"""Input documents: JSON experiment models and CSV contingency tables.

A model document fully describes one experiment: the weighted point space,
the named variables, the context, an optional disturbance kernel, and
analysis options.  A contingency table carries raw counts from the two
experiment families instead: outcomes counted directly in the context, and
outcomes counted after selecting on each selector value.

Both loaders validate eagerly and report the first violated invariant with
its location in the document.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .dynamics import (
    DEFAULT_SENSITIVITY_TOLERANCE,
    ContextualStatistics,
    PerturbationKernel,
    _checked_sample_count,
    _checked_seed,
)
from .errors import DegenerateData, InvariantViolation
from .interference import DEFAULT_CLASSIFY_TOLERANCE
from .prespace import Context, Prespace, RandomVariable, context_probability

SCHEMA_VERSION = 1

TABLE_HEADER = ["experiment", "outcome_a", "outcome_b", "count"]
DIRECT = "direct"
SEQUENTIAL = "sequential"

_MODEL_KEYS = {
    "schema",
    "points",
    "weights",
    "variables",
    "context",
    "kernel",
    "selector",
    "outcome",
    "options",
}
_OPTION_KEYS = {"classify_tolerance", "sensitivity_tolerance", "sample_size", "seed"}
# Counts, and so their sums, must stay finite as floats.
_MAX_COUNT = sys.float_info.max
# A bool is an int to isinstance, but not a number in a document.
_NUMBER_TYPES = {int, float}
_VALUE_TYPES = {str, int, float}


@dataclass(frozen=True)
class AnalysisOptions:
    """Tunable knobs a model document may override."""

    classify_tolerance: float = DEFAULT_CLASSIFY_TOLERANCE
    sensitivity_tolerance: float = DEFAULT_SENSITIVITY_TOLERANCE
    sample_size: int = 100_000
    seed: int = 0


@dataclass(frozen=True)
class ExperimentModel:
    """One loaded experiment: space, variables, context, kernel, options."""

    prespace: Prespace
    variables: dict[str, RandomVariable]
    context: Context
    kernel: PerturbationKernel | None
    selector_name: str
    outcome_name: str
    options: AnalysisOptions

    @property
    def selector(self) -> RandomVariable:
        return self.variables[self.selector_name]

    @property
    def outcome(self) -> RandomVariable:
        return self.variables[self.outcome_name]

    def effective_kernel(self) -> PerturbationKernel | None:
        """The kernel the measurement applies; None means no disturbance."""
        return self.kernel


def _fail(path: str, message: str) -> None:
    raise InvariantViolation(message, path=path)


def _key(name: str) -> str:
    """A document key as a path part; quoted when it would break the line."""
    return name if name.isprintable() else repr(name)


def _require_number(value: Any, path: str) -> float:
    if type(value) not in _NUMBER_TYPES:
        _fail(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        _fail(path, "number is too large for a float")


def _number_array(values: list, path: str) -> np.ndarray:
    """A JSON list of numbers as floats; the first bad entry is located.

    The entries are checked together, and one by one only when that fails.
    """
    if set(map(type, values)) <= _NUMBER_TYPES:
        try:
            return np.array(values, dtype=float)
        except OverflowError:
            pass
    return np.array([_require_number(x, f"{path}[{i}]") for i, x in enumerate(values)])


def _text(data: bytes | str) -> str:
    """A document as text; bytes must be UTF-8."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvariantViolation(
            f"not valid UTF-8: {exc.reason} at byte {exc.start}"
        ) from None


def _require_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return int(value)


def load_model(data: bytes | str) -> ExperimentModel:
    """Parse and validate a JSON model document."""
    text = _text(data)
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer literal beyond int()'s digit limit
        raise InvariantViolation(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        _fail("$", "model document must be a JSON object")
    for key in doc:
        if key not in _MODEL_KEYS:
            _fail(_key(key), "unknown key in model document")
    if doc.get("schema") != SCHEMA_VERSION:
        _fail("schema", f"expected schema {SCHEMA_VERSION}, got {doc.get('schema')!r}")

    weights = doc.get("weights")
    if not isinstance(weights, list) or not weights:
        _fail("weights", "expected a non-empty list of numbers")
    weights = _number_array(weights, "weights")

    points = doc.get("points")
    if points is not None:
        if not isinstance(points, list) or not set(map(type, points)) <= {str}:
            _fail("points", "expected a list of strings")
        if len(points) != len(weights):
            _fail("points", f"{len(points)} points for {len(weights)} weights")
        if len(set(points)) != len(points):
            _fail("points", "point identifiers must be unique")
    try:
        if points is None:
            prespace = Prespace.from_weights(weights)
        else:
            prespace = Prespace(points, weights)
    except InvariantViolation as exc:
        _fail("weights", str(exc))

    raw_variables = doc.get("variables")
    if not isinstance(raw_variables, dict) or not raw_variables:
        _fail("variables", "expected a non-empty object of name -> value list")
    size = prespace.size
    variables: dict[str, RandomVariable] = {}
    for name, values in raw_variables.items():
        path = f"variables.{_key(name)}"
        if not isinstance(values, list):
            _fail(path, "expected a list of values")
        if len(values) != size:
            _fail(path, f"{len(values)} values for {size} points")
        if not set(map(type, values)) <= _VALUE_TYPES:
            for i, value in enumerate(values):
                if type(value) not in _VALUE_TYPES:
                    _fail(f"{path}[{i}]", f"values must be strings or numbers, got {value!r}")
        variables[name] = RandomVariable(name, values)

    selector_name = doc.get("selector")
    outcome_name = doc.get("outcome")
    for role, name in (("selector", selector_name), ("outcome", outcome_name)):
        if not isinstance(name, str):
            _fail(role, "expected the name of a variable")
        if name not in variables:
            _fail(role, f"no variable named {name!r}")
        arity = len(variables[name].alphabet)
        if arity != 2:
            _fail(
                role,
                f"variable {name!r} must take exactly 2 values, found {arity}",
            )

    raw_context = doc.get("context")
    if not isinstance(raw_context, list) or not raw_context:
        _fail("context", "expected a non-empty list of point indices")
    # Checked whole; walked to the first bad entry only when that fails.
    if set(map(type, raw_context)) != {int}:
        for k, member in enumerate(raw_context):
            _require_int(member, f"context[{k}]")
    if min(raw_context) < 0 or max(raw_context) >= size:
        for k, member in enumerate(raw_context):
            if not 0 <= member < size:
                _fail(f"context[{k}]", f"index {member} out of range")
    context = Context(raw_context)
    if context_probability(prespace, context) <= 0.0:
        _fail("context", "context carries zero total weight")

    kernel = None
    raw_kernel = doc.get("kernel")
    if raw_kernel is not None:
        if not isinstance(raw_kernel, list) or len(raw_kernel) != size:
            _fail("kernel", f"expected {size} rows")
        matrix = np.empty((size, size))
        for i, row in enumerate(raw_kernel):
            if not isinstance(row, list) or len(row) != size:
                _fail(f"kernel.row[{i}]", f"expected {size} entries")
            matrix[i] = _number_array(row, f"kernel.row[{i}]")
        # PerturbationKernel checks the numeric invariants and names the row.
        kernel = PerturbationKernel(matrix)

    options = _load_options(doc.get("options"))
    return ExperimentModel(
        prespace=prespace,
        variables=variables,
        context=context,
        kernel=kernel,
        selector_name=selector_name,
        outcome_name=outcome_name,
        options=options,
    )


def _load_options(raw: Any) -> AnalysisOptions:
    if raw is None:
        return AnalysisOptions()
    if not isinstance(raw, dict):
        _fail("options", "expected an object")
    for key in raw:
        if key not in _OPTION_KEYS:
            _fail(f"options.{_key(key)}", "unknown option")
    fields: dict[str, Any] = {}
    for key in ("classify_tolerance", "sensitivity_tolerance"):
        if key in raw:
            value = _require_number(raw[key], f"options.{key}")
            if value <= 0.0:
                _fail(f"options.{key}", "tolerance must be positive")
            fields[key] = value
    if "sample_size" in raw:
        path = "options.sample_size"
        fields["sample_size"] = _checked_sample_count(
            _require_int(raw["sample_size"], path), path
        )
    if "seed" in raw:
        path = "options.seed"
        fields["seed"] = _checked_seed(_require_int(raw["seed"], path), path)
    return AnalysisOptions(**fields)


def _count(raw: str, path: str) -> int:
    """A table count: ASCII digits only, and small enough for a float."""
    digits = raw.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        _fail(path, f"count must be an integer, got {raw!r}")
    if digits != raw:
        _fail(path, f"count must be non-negative, got {raw}")
    if float(digits) > _MAX_COUNT:
        _fail(path, "count is too large for a float")
    # Leading zeros would count against int()'s digit limit.
    return int(digits.lstrip("0") or "0")


def ingest_contingency_table(data: bytes | str) -> ContextualStatistics:
    """Normalize raw counts from a contingency table into statistics.

    The table must carry a ``direct`` family (outcome counted straight in
    the context, ``outcome_a`` left empty) and a ``sequential`` family
    (selector measured first, then outcome).  Repeated cells accumulate.
    Raises :class:`DegenerateData` when a required group has zero total.
    """
    try:
        rows = list(csv.reader(io.StringIO(_text(data))))
    except csv.Error as exc:
        raise InvariantViolation(f"not a valid CSV table: {exc}") from None
    rows = [row for row in rows if row]  # drop blank lines
    if not rows:
        _fail("header", "empty table")
    if rows[0] != TABLE_HEADER:
        _fail("header", f"expected {','.join(TABLE_HEADER)!r}, got {','.join(rows[0])!r}")

    # One tally per (experiment, outcome_a, outcome_b); labels keep the
    # order in which the rows first name them.
    counts: dict[tuple[str, str, str], int] = {}
    for line, row in enumerate(rows[1:], start=2):
        path = f"row[{line}]"
        if len(row) != 4:
            _fail(path, f"expected 4 fields, got {len(row)}")
        experiment, selector_value, outcome_value, raw_count = (
            field.strip() for field in row
        )
        count = _count(raw_count, path)
        if not outcome_value:
            _fail(path, "outcome_b must not be empty")
        if experiment == DIRECT:
            if selector_value:
                _fail(path, "direct rows must leave outcome_a empty")
        elif experiment == SEQUENTIAL:
            if not selector_value:
                _fail(path, "sequential rows need a non-empty outcome_a")
        else:
            _fail(path, f"experiment must be {DIRECT!r} or {SEQUENTIAL!r}, got {experiment!r}")
        key = (experiment, selector_value, outcome_value)
        counts[key] = counts.get(key, 0) + count

    outcome_order = list(dict.fromkeys(outcome for _, _, outcome in counts))
    # Only sequential rows name a selector value; direct rows leave it empty.
    selector_order = list(dict.fromkeys(selector for _, selector, _ in counts if selector))
    if len(outcome_order) != 2:
        _fail(
            "outcome_b",
            f"expected exactly 2 outcome values, found {outcome_order!r}",
        )
    if len(selector_order) != 2:
        _fail(
            "outcome_a",
            f"expected exactly 2 selector values, found {selector_order!r}",
        )

    direct = [counts.get((DIRECT, "", o), 0) for o in outcome_order]
    cells = [
        [counts.get((SEQUENTIAL, s, o), 0) for o in outcome_order]
        for s in selector_order
    ]
    if sum(direct) > _MAX_COUNT or sum(map(sum, cells)) > _MAX_COUNT:
        _fail("count", "counts sum to more than a float can hold")

    direct = np.array(direct, dtype=float)
    direct_total = float(direct.sum())
    if direct_total == 0.0:
        raise DegenerateData("direct counts are all zero")

    cells = np.array(cells, dtype=float)
    row_totals = cells.sum(axis=1)
    for i, total in enumerate(row_totals):
        if total == 0.0:
            raise DegenerateData(
                f"sequential counts for selector {selector_order[i]!r} are all zero"
            )

    return ContextualStatistics(
        selector_labels=selector_order,
        outcome_labels=outcome_order,
        selector_marginals=row_totals / row_totals.sum(),
        outcome_marginals=direct / direct_total,
        transition=cells / row_totals[:, np.newaxis],
    )
