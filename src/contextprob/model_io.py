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

import array
import csv
import io
import itertools
import json
import math
import operator
import re
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .dynamics import (
    ContextualStatistics,
    PerturbationKernel,
    _checked_sample_count,
    _checked_seed,
)
from .errors import DegenerateData, InvariantViolation
from .interference import DEFAULT_CLASSIFY_TOLERANCE, _check_tolerance
from .prespace import (
    Context, Prespace, RandomVariable, _AutoNames, _built, _check_normalized, _checked_int,
    _checked_reals, _real_types, _shown,
)

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
# A model document of at least this many characters (bytes, when it is bytes)
# has its kernel read row by row straight from the caller's data
# (_streamed_document), so loading holds the matrix and the other values, not
# a decoded copy of the text and the parsed rows at four times the matrix's
# size.  The reader's Python steps cost about 2.5 us a row: 30 to 75 us on a
# document of 10 to 30 points, a fifth to a third of its load, and 7 % of the
# load at 100 points; from 220 points the time is level.  At 1 MiB (a
# 220-point kernel) the reader holds 1.1 MB less, 0.44 MB against 1.52 MB.
_STREAMED_KERNEL_CHARS = 1 << 20
_OPTION_KEYS = {"classify_tolerance", "sample_size", "seed"}
# Counts, and so their sums, must stay finite as floats.
_MAX_COUNT = sys.float_info.max
_VALUE_TYPES = {str, int, float}


@dataclass(frozen=True)
class AnalysisOptions:
    """What a model document's ``options`` may set: the analysis's classify
    tolerance, the seed a report echoes, and ``sample``'s default draws and seed."""

    classify_tolerance: float = DEFAULT_CLASSIFY_TOLERANCE
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


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; a repeated key is an error, not its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {_shown(key)}")
        obj[key] = value
    return obj


class _Unstreamed(Exception):
    """The document is not one :func:`_streamed_document` reads on its own."""


# The kernel's key, colon and "[", in text and in bytes.  A variable named kernel
# ahead of the key matches too, and its document takes the plain parse.
_KERNEL_KEY = re.compile(r'"kernel"[ \t\n\r]*:[ \t\n\r]*\[')
_BYTES_KERNEL_KEY = re.compile(_KERNEL_KEY.pattern.encode())
_SPACE = json.decoder.WHITESPACE.match  # what the plain parse skips between tokens
_BYTES_SPACE = re.compile(rb"[ \t\n\r]*").match  # the same, in bytes


def _streamed_document(data: bytes | str) -> dict[str, Any] | None:
    """A model document parsed as :func:`_json_document` parses it, except that
    its top-level ``"kernel"`` is read one row at a time, straight from
    ``data``, into one float buffer, its square matrix.  So neither the whole
    text nor all the rows as Python floats are ever held.  None for a document
    under ``_STREAMED_KERNEL_CHARS``, or one the walk does not read on its own.

    The kernel starts at the first ``"kernel"`` followed by a colon and a
    ``[``, so a point or label named ``kernel`` is passed over.  Only the text
    before that match and the text after the kernel are decoded whole, and
    each row from its own slice, up to its first ``]``, as ASCII.  Every cut
    falls on an ASCII byte, so the pieces decode if and only if the whole
    does.  The C scanner reads every value.  Anything the walk does not
    expect, from a match that is no top-level key (a variable named
    ``kernel`` ahead of the key) to bad UTF-8 or a kernel that is not a
    square of numbers, leaves the document to the plain parse: a refused
    document gets its error, and an odd kernel reaches ``load_model`` as
    parsed rows, whose walk names the bad one.
    """
    if len(data) < _STREAMED_KERNEL_CHARS:
        return None
    is_text = isinstance(data, str)
    key = (_KERNEL_KEY if is_text else _BYTES_KERNEL_KEY).search(data)
    if key is None:
        return None
    start = key.start()
    decoder = json.JSONDecoder(object_pairs_hook=_unique_keys)
    pairs: list[tuple[str, Any]] = []
    try:
        head = data[:start] if is_text else data[:start].decode()
        i = _SPACE(head).end()
        if head[i:i + 1] != "{":
            raise _Unstreamed
        i = _SPACE(head, i + 1).end()
        while i < len(head):  # the walk must end at the key, after the "{" or a ","
            i = _member(head, i, decoder, pairs)
            if head[i:i + 1] != ",":
                raise _Unstreamed
            i = _SPACE(head, i + 1).end()
        matrix, end = _kernel_rows(data, key.end(), decoder.scan_once)
        pairs.append(("kernel", matrix))
        tail = data[end:] if is_text else data[end:].decode()
        i = _SPACE(tail).end()
        while tail[i:i + 1] == ",":
            i = _member(tail, _SPACE(tail, i + 1).end(), decoder, pairs)
        if tail[i:i + 1] != "}" or _SPACE(tail, i + 1).end() != len(tail):
            raise _Unstreamed
        return _unique_keys(pairs)  # a repeated key raises ValueError
    except (_Unstreamed, StopIteration, ValueError, TypeError, OverflowError, RecursionError):
        # The plain parse runs after return: inside this handler, the walk's rows would stay alive.
        return None


def _member(s: str, i: int, decoder: json.JSONDecoder, pairs: list[tuple[str, Any]]) -> int:
    """Reads the ``"key": value`` at ``s[i]`` into ``pairs``; returns where the next token starts."""
    if s[i:i + 1] != '"':
        raise _Unstreamed
    key, i = decoder.parse_string(s, i + 1, decoder.strict)
    i = _SPACE(s, i).end()
    if s[i:i + 1] != ":":
        raise _Unstreamed
    value, i = decoder.scan_once(s, _SPACE(s, i + 1).end())
    pairs.append((key, value))
    return _SPACE(s, i).end()


def _kernel_rows(data: bytes | str, i: int, scan_once) -> tuple[np.ndarray, int]:
    """The kernel array whose ``[`` is just before ``data[i]``, read one row at a
    time: its square float matrix, and the index just past its ``]``."""
    if isinstance(data, str):
        space, closing, comma = _SPACE, "]", ","
    else:
        space, closing, comma = _BYTES_SPACE, b"]", b","
    i = space(data, i).end()
    flat = array.array("d")
    count = width = 0
    while data[i:i + 1] != closing:
        if count:
            if data[i:i + 1] != comma:
                raise _Unstreamed
            i = space(data, i + 1).end()
        end = data.find(closing, i) + 1
        text = data[i:end] if isinstance(data, str) else data[i:end].decode("ascii")
        # A list ends at the slice's one "]", so it is the whole slice.  An empty
        # slice raises StopIteration.  fromlist takes a bool as a number: only
        # true, false or Infinity holds a t or an f, and the plain parse judges those.
        row = scan_once(text, 0)[0]
        if type(row) is not list or "t" in text or "f" in text:
            raise _Unstreamed
        if count and len(row) != width:  # ragged: the plain parse's walk names the row
            raise _Unstreamed
        flat.fromlist(row)  # TypeError or OverflowError on an entry no float holds
        count, width = count + 1, len(row)
        i = space(data, end).end()
    # ValueError when not square: the plain parse's walk names the row.
    return np.frombuffer(flat).reshape(count, count), i + 1


def _json_document(data: bytes | str) -> Any:
    """A model or report document parsed; its text is dropped on return."""
    text = _text(data)  # outside the try: bad UTF-8 is not reworded as bad JSON
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # also nesting too deep, or an over-long integer
        raise InvariantViolation(f"not valid JSON: {exc}") from None


def load_model(data: bytes | str) -> ExperimentModel:
    """Parse and validate a JSON model document."""
    doc = _streamed_document(data)
    if doc is None:
        doc = _json_document(data)
    if not isinstance(doc, dict):
        _fail("$", "model document must be a JSON object")
    for key in doc:
        if key not in _MODEL_KEYS:
            _fail(_key(key), "unknown key in model document")
    schema = doc.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        _fail("schema", f"expected schema {SCHEMA_VERSION}, got {_shown(schema)}")

    # Each array is taken out of the document and dropped once converted, so
    # loading holds no more than the parse.
    weights = doc.pop("weights", None)
    if not isinstance(weights, list) or not weights:
        _fail("weights", "expected a non-empty list of numbers")
    weights = _checked_reals(weights, "weights", "weights[{}]")  # flat, so one dimension

    points = doc.pop("points", None)
    if points is None:
        points = _AutoNames(len(weights))
    else:
        if not isinstance(points, list) or not set(map(type, points)) <= {str}:
            _fail("points", "expected a list of strings")
        if len(points) != len(weights):
            _fail("points", f"{len(points)} points for {len(weights)} weights")
        points = tuple(points)
        # Sorted, not a set: a set of the names can outgrow the whole parse.
        ordered = sorted(points)
        if any(map(operator.eq, ordered, itertools.islice(ordered, 1, None))):
            _fail("points", "point identifiers must be unique")
    try:
        _check_normalized(weights, "weights")
    except InvariantViolation as exc:
        _fail("weights", str(exc))
    prespace = _built(Prespace, points=points, weights=weights)

    raw_variables = doc.pop("variables", None)
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
        types = set(map(type, values))
        # Only a float can be NaN or infinite, which no report could print.
        if not types <= _VALUE_TYPES or float in types:
            for i, value in enumerate(values):
                if type(value) not in _VALUE_TYPES:
                    _fail(f"{path}[{i}]", f"values must be strings or numbers, got {_shown(value)}")
                if type(value) is float and not math.isfinite(value):
                    _fail(f"{path}[{i}]", f"values must be finite, got {value!r}")
        variables[name] = RandomVariable(name, values)
        values.clear()

    selector_name = doc.get("selector")
    outcome_name = doc.get("outcome")
    for role, name in (("selector", selector_name), ("outcome", outcome_name)):
        if not isinstance(name, str):
            _fail(role, "expected the name of a variable")
        if name not in variables:
            _fail(role, f"no variable named {_shown(name)}")
        arity = len(variables[name].alphabet)
        if arity != 2:
            _fail(
                role,
                f"variable {_shown(name)} must take exactly 2 values, found {arity}",
            )

    raw_context = doc.pop("context", None)
    if not isinstance(raw_context, list) or not raw_context:
        _fail("context", "expected a non-empty list of point indices")
    # Checked whole; walked to the first bad entry only when that fails.
    if set(map(type, raw_context)) != {int}:
        for k, member in enumerate(raw_context):
            _checked_int(member, f"context[{k}]")
    if min(raw_context) < 0 or max(raw_context) >= size:
        for k, member in enumerate(raw_context):
            if not 0 <= member < size:
                _fail(f"context[{k}]", f"index {member} out of range")
    # Checked above, so built from a membership mask: sorted and unique by construction.
    mask = np.zeros(size, dtype=bool)
    mask[raw_context] = True
    del raw_context
    members = np.flatnonzero(mask)
    if float(weights[members].sum()) <= 0.0:
        _fail("context", "context carries zero total weight")
    context = _built(Context, indices=members)

    kernel = None
    raw_kernel = doc.pop("kernel", None)
    if raw_kernel is not None:
        if not isinstance(raw_kernel, (list, np.ndarray)) or len(raw_kernel) != size:
            _fail("kernel", f"expected {size} rows")
        if type(raw_kernel) is np.ndarray:  # read while parsing: a square float matrix
            matrix = raw_kernel
        else:  # checked whole, converted in one call, walked to the bad row only when that fails
            matrix = None
            rows_fit = all(isinstance(row, list) and len(row) == size for row in raw_kernel)
            if rows_fit and _real_types(set(map(type, itertools.chain.from_iterable(raw_kernel)))):
                try:
                    matrix = np.array(raw_kernel, dtype=float)
                except OverflowError:  # an integer too large for a float; the walk names it
                    pass
        if matrix is None:
            for i, row in enumerate(raw_kernel):
                if not isinstance(row, list) or len(row) != size:
                    _fail(f"kernel.row[{i}]", f"expected {size} entries")
                _checked_reals(row, "kernel", f"kernel.row[{i}][{{}}]")
            raise AssertionError("a kernel that failed its whole check has no bad row")
        del raw_kernel
        _check_normalized(matrix, "kernel")  # names the first bad row
        kernel = _built(PerturbationKernel, matrix=matrix)  # square and checked above

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
    if "classify_tolerance" in raw:
        fields["classify_tolerance"] = _classify_tolerance(
            raw["classify_tolerance"], "options.classify_tolerance"
        )
    for key, check in (("sample_size", _checked_sample_count), ("seed", _checked_seed)):
        if key in raw:
            fields[key] = check(raw[key], f"options.{key}")
    return AnalysisOptions(**fields)


def _classify_tolerance(raw: Any, path: str) -> float:
    """A document's classify tolerance as a float: a number that fits one, which
    :func:`_check_tolerance` accepts; refused at ``path`` otherwise."""
    # no "{}" in path: the one entry is named path itself
    tolerance = float(_checked_reals([raw], "tolerance", path)[0])
    _check_tolerance(tolerance, path)
    return tolerance


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

    return _built(
        ContextualStatistics,
        selector_labels=tuple(selector_order),
        outcome_labels=tuple(outcome_order),
        selector_marginals=row_totals / row_totals.sum(),
        outcome_marginals=direct / direct_total,
        transition=cells / row_totals[:, np.newaxis],
    )
