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

from .dynamics import MAX_SAMPLE_COUNT, ContextualStatistics, PerturbationKernel
from .errors import DegenerateData, InvariantViolation
from .prespace import Context, Prespace, RandomVariable

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


@dataclass(frozen=True)
class AnalysisOptions:
    """Tunable knobs a model document may override."""

    classify_tolerance: float = 1e-9
    sensitivity_tolerance: float = 1e-9
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


def _require_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return int(value)


def load_model(data: bytes | str) -> ExperimentModel:
    """Parse and validate a JSON model document."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer literal beyond int()'s digit limit
        raise InvariantViolation(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        _fail("$", "model document must be a JSON object")
    for key in doc:
        if key not in _MODEL_KEYS:
            _fail(key, "unknown key in model document")
    if doc.get("schema") != SCHEMA_VERSION:
        _fail("schema", f"expected schema {SCHEMA_VERSION}, got {doc.get('schema')!r}")

    weights = doc.get("weights")
    if not isinstance(weights, list) or not weights:
        _fail("weights", "expected a non-empty list of numbers")
    weights = _number_array(weights, "weights")

    points = doc.get("points")
    if points is None:
        points = [f"p{i + 1}" for i in range(len(weights))]
    else:
        if not isinstance(points, list) or not all(
            isinstance(p, str) for p in points
        ):
            _fail("points", "expected a list of strings")
        if len(points) != len(weights):
            _fail("points", f"{len(points)} points for {len(weights)} weights")
        if len(set(points)) != len(points):
            _fail("points", "point identifiers must be unique")
    try:
        prespace = Prespace(points, weights)
    except InvariantViolation as exc:
        _fail("weights", str(exc))

    raw_variables = doc.get("variables")
    if not isinstance(raw_variables, dict) or not raw_variables:
        _fail("variables", "expected a non-empty object of name -> value list")
    variables: dict[str, RandomVariable] = {}
    for name, values in raw_variables.items():
        path = f"variables.{name}"
        if not isinstance(values, list):
            _fail(path, "expected a list of values")
        if len(values) != prespace.size:
            _fail(path, f"{len(values)} values for {prespace.size} points")
        for i, value in enumerate(values):
            if not isinstance(value, (str, int, float)) or isinstance(value, bool):
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
    members = [_require_int(i, f"context[{k}]") for k, i in enumerate(raw_context)]
    for k, member in enumerate(members):
        if not 0 <= member < prespace.size:
            _fail(f"context[{k}]", f"index {member} out of range")
    context = Context(members)
    if float(np.sum(prespace.weights[np.asarray(context.members)])) <= 0.0:
        _fail("context", "context carries zero total weight")

    kernel = None
    raw_kernel = doc.get("kernel")
    if raw_kernel is not None:
        if not isinstance(raw_kernel, list) or len(raw_kernel) != prespace.size:
            _fail("kernel", f"expected {prespace.size} rows")
        matrix = np.empty((prespace.size, prespace.size))
        for i, row in enumerate(raw_kernel):
            if not isinstance(row, list) or len(row) != prespace.size:
                _fail(f"kernel.row[{i}]", f"expected {prespace.size} entries")
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
            _fail(f"options.{key}", "unknown option")
    fields: dict[str, Any] = {}
    for key in ("classify_tolerance", "sensitivity_tolerance"):
        if key in raw:
            value = _require_number(raw[key], f"options.{key}")
            if value <= 0.0:
                _fail(f"options.{key}", "tolerance must be positive")
            fields[key] = value
    if "sample_size" in raw:
        value = _require_int(raw["sample_size"], "options.sample_size")
        if not 1 <= value <= MAX_SAMPLE_COUNT:
            _fail(
                "options.sample_size",
                f"sample size must be at least 1 and at most {MAX_SAMPLE_COUNT}",
            )
        fields["sample_size"] = value
    if "seed" in raw:
        value = _require_int(raw["seed"], "options.seed")
        if value < 0:
            _fail("options.seed", "seed must be non-negative")
        fields["seed"] = value
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
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    rows = list(csv.reader(io.StringIO(text)))
    rows = [row for row in rows if row]  # drop blank lines
    if not rows:
        _fail("header", "empty table")
    if rows[0] != TABLE_HEADER:
        _fail("header", f"expected {','.join(TABLE_HEADER)!r}, got {','.join(rows[0])!r}")

    direct_counts: dict[str, int] = {}
    sequential_counts: dict[tuple[str, str], int] = {}
    selector_order: list[str] = []
    outcome_order: list[str] = []

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
        if outcome_value not in outcome_order:
            outcome_order.append(outcome_value)
        if experiment == DIRECT:
            if selector_value:
                _fail(path, "direct rows must leave outcome_a empty")
            direct_counts[outcome_value] = (
                direct_counts.get(outcome_value, 0) + count
            )
        elif experiment == SEQUENTIAL:
            if not selector_value:
                _fail(path, "sequential rows need a non-empty outcome_a")
            if selector_value not in selector_order:
                selector_order.append(selector_value)
            key = (selector_value, outcome_value)
            sequential_counts[key] = sequential_counts.get(key, 0) + count
        else:
            _fail(path, f"experiment must be {DIRECT!r} or {SEQUENTIAL!r}, got {experiment!r}")

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

    for counts in (direct_counts, sequential_counts):
        if sum(counts.values()) > _MAX_COUNT:
            _fail("count", "counts sum to more than a float can hold")

    direct = np.array(
        [direct_counts.get(value, 0) for value in outcome_order], dtype=float
    )
    direct_total = float(direct.sum())
    if direct_total == 0.0:
        raise DegenerateData("direct counts are all zero")

    cells = np.array(
        [
            [sequential_counts.get((s, o), 0) for o in outcome_order]
            for s in selector_order
        ],
        dtype=float,
    )
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
