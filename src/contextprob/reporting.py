"""Analysis orchestration and canonical report serialization.

``analyze_model`` and ``analyze_statistics`` run the full pipeline: measure
(or accept) contextual statistics, classify the interference, reconstruct
amplitudes when the regime allows it, and check the Born rule.  Reports
serialize to a canonical JSON form: keys sorted, floats at 17 significant
digits, two-space indentation, trailing newline.  The same report always
produces the same bytes, and emit(load(emit(r))) is byte-identical.

``load_report`` reads only a report's inputs, its statistics,
``classify_tolerance`` (finite, not negative), ``input_digest`` and ``seed``,
and analyses them again.  Every other field comes from that analysis or is
a constant, except ``tool.version``, which is read as a string.  A document
that differs from that report in any key, value or type (``1`` is not
``true``; ``1.0`` is ``1``) is refused at its first differing path, and an
input that is missing or of the wrong kind at that input's path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii
from typing import Any, Hashable, Mapping

import numpy as np

from . import __version__
from .amplitudes import (
    born_residual,
    hyperbolic_amplitude,
    trigonometric_amplitude,
)
from .dynamics import (
    ContextualStatistics,
    _checked_seed,
    contextual_statistics,
    is_contextually_sensitive,
)
from .errors import InvariantViolation
from .interference import (
    InterferenceReport,
    OutcomeInterference,
    analyze_interference,
)
from .model_io import (
    AnalysisOptions, ExperimentModel, _classify_tolerance, _json_document, _key,
)
from .prespace import _shown

TOOL_NAME = "contextprob"
REPORT_SCHEMA = 1
_STATISTICS_FIELDS = {field.name for field in fields(ContextualStatistics)}


@dataclass(frozen=True)
class AnalysisReport:
    """Complete result of analyzing one experiment."""

    statistics: ContextualStatistics
    interference: InterferenceReport
    regime: str
    amplitude_components: tuple[tuple[float, float], ...] | None
    born_residual: float | None
    contextually_sensitive: bool
    input_digest: str | None = None
    seed: int | None = None
    tool_version: str = __version__


def analyze_statistics(
    statistics: ContextualStatistics,
    options: AnalysisOptions | None = None,
    input_digest: str | None = None,
    seed: int | None = None,
) -> AnalysisReport:
    """Classify, reconstruct amplitudes where possible, verify the Born rule.

    Degenerate or mixed regimes come back as reports with null amplitudes,
    never as errors.
    """
    seed = None if seed is None else _checked_seed(seed)
    options = options or AnalysisOptions()
    report = analyze_interference(statistics, options.classify_tolerance)
    regime = report.regime
    components: tuple[tuple[float, float], ...] | None = None
    residual: float | None = None
    if regime == "trigonometric":
        amplitude = trigonometric_amplitude(report)
        components = tuple((z.real, z.imag) for z in amplitude.components)
        residual = born_residual(amplitude, statistics)
    elif regime == "hyperbolic":
        amplitude = hyperbolic_amplitude(report)
        components = tuple((z.x, z.y) for z in amplitude.components)
        residual = born_residual(amplitude, statistics)
    return AnalysisReport(
        statistics=statistics,
        interference=report,
        regime=regime,
        amplitude_components=components,
        born_residual=residual,
        contextually_sensitive=is_contextually_sensitive(statistics),
        input_digest=input_digest,
        seed=seed,
    )


def analyze_model(
    model: ExperimentModel,
    input_digest: str | None = None,
    seed: int | None = None,
) -> AnalysisReport:
    """Measure a loaded model and analyze the resulting statistics."""
    seed = model.options.seed if seed is None else _checked_seed(seed)
    statistics = contextual_statistics(
        model.prespace,
        model.context,
        model.selector,
        model.outcome,
        model.effective_kernel(),
    )
    return analyze_statistics(
        statistics,
        options=model.options,
        input_digest=input_digest,
        seed=seed,
    )


def emit_report(report: AnalysisReport) -> bytes:
    """Canonical bytes of a report (stable across runs and platforms).

    The report's fixed, key-sorted layout is written in one pass, each value
    by the :func:`canonical_json` writers at its depth, so the report and any
    other document share one array writer; a non-finite number is refused.
    """
    stats = report.statistics
    interference = report.interference
    return (
        "{\n"
        '  "amplitudes": {\n'
        f'    "components": {_encode(report.amplitude_components, 2)},\n'
        f'    "regime": {_encode(report.regime, 2)}\n'
        "  },\n"
        f'  "born_residual": {_encode(report.born_residual, 1)},\n'
        f'  "contextually_sensitive": {_encode(report.contextually_sensitive, 1)},\n'
        f'  "input_digest": {_encode(report.input_digest, 1)},\n'
        '  "interference": {\n'
        f'    "classify_tolerance": {_encode(interference.classify_tolerance, 2)},\n'
        f'    "entries": {_entries(interference.entries)}\n'
        "  },\n"
        f'  "schema": {REPORT_SCHEMA},\n'
        f'  "seed": {_encode(report.seed, 1)},\n'
        '  "statistics": {\n'
        f'    "outcome_labels": {_encode(stats.outcome_labels, 2)},\n'
        f'    "outcome_marginals": {_encode_array(stats.outcome_marginals.tolist(), 2)},\n'
        f'    "selector_labels": {_encode(stats.selector_labels, 2)},\n'
        f'    "selector_marginals": {_encode_array(stats.selector_marginals.tolist(), 2)},\n'
        f'    "transition": {_encode_array(stats.transition.tolist(), 2)}\n'
        "  },\n"
        '  "tool": {\n'
        f'    "name": "{TOOL_NAME}",\n'
        f'    "version": {_encode(report.tool_version, 2)}\n'
        "  }\n"
        "}\n"
    ).encode("ascii")


def _entries(entries) -> str:
    """``interference.entries``: one object per outcome, at depth 2."""
    if not entries:
        return "[]"
    return "[\n" + ",\n".join([_entry(entry) for entry in entries]) + "\n    ]"


def _entry(entry: OutcomeInterference) -> str:
    return (
        "      {\n"
        f'        "branches": {_encode_array(entry.branches, 4)},\n'
        f'        "classification": {_encode(entry.classification.value, 4)},\n'
        f'        "coefficient": {_encode(entry.coefficient, 4)},\n'
        f'        "observed": {_encode(entry.observed, 4)},\n'
        f'        "outcome": {_encode(entry.outcome, 4)},\n'
        f'        "phase": {_encode(entry.phase, 4)},\n'
        f'        "sign": {_encode(entry.sign, 4)}\n'
        "      }"
    )


def load_report(data: bytes | str) -> AnalysisReport:
    """Inverse of :func:`emit_report`; the module docstring says what it checks."""
    doc = _json_document(data)
    if not isinstance(doc, dict):
        raise InvariantViolation("report document must be a JSON object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != REPORT_SCHEMA:
        raise InvariantViolation(
            f"expected report schema {REPORT_SCHEMA}, got {_shown(schema)}",
            path="schema",
        )
    raw = _input(doc, "statistics")
    if type(raw) is not dict:
        raise InvariantViolation("expected an object", path="statistics")
    for key in sorted(raw.keys() | _STATISTICS_FIELDS):
        if key not in raw or key not in _STATISTICS_FIELDS:
            raise InvariantViolation(
                "unknown key" if key in raw else "missing", path=f"statistics.{_key(key)}"
            )
    try:
        statistics = ContextualStatistics(**{
            key: _label(value) if key.endswith("_labels") else value
            for key, value in raw.items()
        })
    except (InvariantViolation, TypeError) as exc:  # TypeMismatch, or an unhashable label
        raise InvariantViolation(str(exc), path="statistics") from None
    tolerance = _input(doc, "interference", "classify_tolerance")
    digest, seed = _input(doc, "input_digest"), _input(doc, "seed")
    version = _input(doc, "tool", "version")
    # checked, but kept as read: an integer tolerance is written back as an integer
    _classify_tolerance(tolerance, "interference.classify_tolerance")
    # Each value is taken as its field's type; the comparison refuses one that was not.
    report = replace(
        analyze_statistics(
            statistics,
            AnalysisOptions(classify_tolerance=tolerance),
            input_digest=None if digest is None else str(digest),
            seed=None if seed is None else _checked_seed(seed, "seed"),
        ),
        tool_version=str(version),
    )
    _refuse_difference(doc, json.loads(emit_report(report)), "")
    return report


def _input(doc: dict, *keys: str) -> Any:
    """The value at ``keys`` in a report document, refused where a key is
    missing or an object is expected, in the words of :func:`_refuse_difference`."""
    value, path = doc, ""
    for key in keys:
        if type(value) is not dict:
            raise InvariantViolation("expected an object", path=path)
        path = f"{path}.{key}" if path else key
        if key not in value:
            raise InvariantViolation("missing", path=path)
        value = value[key]
    return value


def _label(value: Any) -> Hashable:
    """A label as read from JSON; an array is read back as a tuple, recursively."""
    return tuple(map(_label, value)) if type(value) is list else value


def _refuse_difference(found: Any, expected: Any, path: str) -> None:
    """Refuse the first place, in key order, where a document differs from the expected one."""
    if type(found) is dict and type(expected) is dict:
        for key in sorted(found.keys() | expected.keys()):
            where = f"{path}.{_key(key)}" if path else _key(key)
            if key not in found or key not in expected:
                raise InvariantViolation("unknown key" if key in found else "missing", path=where)
            _refuse_difference(found[key], expected[key], where)
    elif type(found) is list and type(expected) is list and len(found) == len(expected):
        for i, pair in enumerate(zip(found, expected)):
            _refuse_difference(*pair, f"{path}[{i}]")
    elif found != expected or (type(found) is bool) != (type(expected) is bool):
        raise InvariantViolation(f"expected {_shown(expected)}, got {_shown(found)}", path=path)


_INDENT = "  "
_SCALARS = (float, str, int, bool, type(None), np.integer, np.bool_)


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats.

    Scalar-only lists stay on one line; containers of containers go
    multiline with two-space indentation.
    """
    return _encode(value, 0)


def _encode(value: Any, level: int) -> str:
    # Exact types first: a report's values are almost all floats, strings, arrays and ints.
    # A non-finite float falls through to the float branch, which refuses it.
    kind = type(value)
    if kind is float and math.isfinite(value):
        return format(value + 0.0, ".17g")
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is list or kind is tuple:
        return _encode_array(value, level)
    if kind is int:
        return _digits(value)
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return _digits(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise InvariantViolation(f"cannot serialize non-finite number {value!r}")
        return format(value + 0.0, ".17g")  # -0.0 + 0.0 is 0.0: a zero is written 0
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, Mapping):
        return _encode_object(value, level)
    if isinstance(value, (list, tuple)):
        return _encode_array(value, level)
    raise InvariantViolation(f"cannot serialize {type(value).__name__}")


def _digits(value: int) -> str:
    """An exact integer's digits; one with more than int-to-str conversion allows is refused."""
    try:
        return str(value)
    except ValueError:
        raise InvariantViolation(f"cannot serialize {_shown(value)}") from None


def _encode_object(value: Mapping, level: int) -> str:
    if not value:
        return "{}"
    inner = _INDENT * (level + 1)
    parts = []
    for key in sorted(value):
        if not isinstance(key, str):
            raise InvariantViolation(f"object keys must be strings, got {_shown(key)}")
        parts.append(
            f"{inner}{encode_basestring_ascii(key)}: {_encode(value[key], level + 1)}"
        )
    return "{\n" + ",\n".join(parts) + "\n" + _INDENT * level + "}"


def _encode_array(value: list | tuple, level: int) -> str:
    """The one array writer of :func:`emit_report` and :func:`canonical_json`.

    A run of exact, finite floats, the bulk of a report, is written without a
    call per entry; at the first other entry the whole array goes the general way.
    """
    parts = []
    for item in value:
        if type(item) is not float or not math.isfinite(item):
            break
        parts.append(format(item + 0.0, ".17g"))
    else:
        return "[" + ", ".join(parts) + "]"
    if all(isinstance(item, _SCALARS) for item in value):
        return "[" + ", ".join([_encode(item, level) for item in value]) + "]"
    inner = _INDENT * (level + 1)
    parts = [f"{inner}{_encode(item, level + 1)}" for item in value]
    return "[\n" + ",\n".join(parts) + "\n" + _INDENT * level + "]"
