"""Analysis orchestration and canonical report serialization.

``analyze_model`` and ``analyze_statistics`` run the full pipeline: measure
(or accept) contextual statistics, classify the interference, reconstruct
amplitudes when the regime allows it, and check the Born rule.  Reports
serialize to a canonical JSON form: keys sorted, floats at 17 significant
digits, two-space indentation, trailing newline.  The same report always
produces the same bytes, and emit(load(emit(r))) is byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping

import numpy as np

from . import __version__
from .amplitudes import (
    born_residual,
    hyperbolic_amplitude,
    trigonometric_amplitude,
)
from .dynamics import (
    ContextualStatistics,
    contextual_statistics,
    is_contextually_sensitive,
)
from .errors import InvariantViolation
from .interference import (
    Classification,
    InterferenceReport,
    OutcomeInterference,
    analyze_interference,
)
from .model_io import AnalysisOptions, ExperimentModel

TOOL_NAME = "contextprob"
REPORT_SCHEMA = 1


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
    seed = _checked_seed(seed)
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
        contextually_sensitive=is_contextually_sensitive(
            statistics, options.sensitivity_tolerance
        ),
        input_digest=input_digest,
        seed=seed,
    )


def analyze_model(
    model: ExperimentModel,
    input_digest: str | None = None,
    seed: int | None = None,
) -> AnalysisReport:
    """Measure a loaded model and analyze the resulting statistics."""
    seed = _checked_seed(model.options.seed if seed is None else int(seed))
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


def _checked_seed(seed: int | None) -> int | None:
    """Reject a negative seed before any analysis is paid for."""
    if seed is not None and seed < 0:
        raise InvariantViolation("seed must be a non-negative integer")
    return seed


def _statistics_document(statistics: ContextualStatistics) -> dict[str, Any]:
    return {
        "selector_labels": list(statistics.selector_labels),
        "outcome_labels": list(statistics.outcome_labels),
        "selector_marginals": statistics.selector_marginals.tolist(),
        "outcome_marginals": statistics.outcome_marginals.tolist(),
        "transition": statistics.transition.tolist(),
    }


def _entry_document(entry: OutcomeInterference) -> dict[str, Any]:
    return {
        "outcome": entry.outcome,
        "observed": entry.observed,
        "branches": list(entry.branches),
        "coefficient": entry.coefficient,
        "classification": entry.classification.value,
        "phase": entry.phase,
        "sign": entry.sign,
    }


def to_document(report: AnalysisReport) -> dict[str, Any]:
    """Plain-data form of a report, ready for canonical serialization."""
    return {
        "schema": REPORT_SCHEMA,
        "tool": {"name": TOOL_NAME, "version": report.tool_version},
        "input_digest": report.input_digest,
        "seed": report.seed,
        "statistics": _statistics_document(report.statistics),
        "interference": {
            "classify_tolerance": report.interference.classify_tolerance,
            "entries": [
                _entry_document(entry) for entry in report.interference.entries
            ],
        },
        "amplitudes": {
            "regime": report.regime,
            "components": (
                None
                if report.amplitude_components is None
                else [list(pair) for pair in report.amplitude_components]
            ),
        },
        "born_residual": report.born_residual,
        "contextually_sensitive": report.contextually_sensitive,
    }


def from_document(doc: Mapping[str, Any]) -> AnalysisReport:
    """Rebuild a typed report from parsed canonical JSON."""
    if not isinstance(doc, Mapping):
        raise InvariantViolation("report document must be a JSON object")
    if doc.get("schema") != REPORT_SCHEMA:
        raise InvariantViolation(
            f"expected report schema {REPORT_SCHEMA}, got {doc.get('schema')!r}",
            path="schema",
        )
    try:
        stats_doc = doc["statistics"]
        statistics = ContextualStatistics(
            selector_labels=stats_doc["selector_labels"],
            outcome_labels=stats_doc["outcome_labels"],
            selector_marginals=stats_doc["selector_marginals"],
            outcome_marginals=stats_doc["outcome_marginals"],
            transition=stats_doc["transition"],
        )
        entries = tuple(
            OutcomeInterference(
                outcome=entry["outcome"],
                observed=entry["observed"],
                branches=tuple(entry["branches"]),
                coefficient=entry["coefficient"],
                classification=Classification(entry["classification"]),
                phase=entry["phase"],
                sign=entry["sign"],
            )
            for entry in doc["interference"]["entries"]
        )
        interference = InterferenceReport(
            entries=entries,
            classify_tolerance=doc["interference"]["classify_tolerance"],
        )
        amplitudes = doc["amplitudes"]
        components = amplitudes["components"]
        if components is not None:
            components = tuple(tuple(pair) for pair in components)
        return AnalysisReport(
            statistics=statistics,
            interference=interference,
            regime=amplitudes["regime"],
            amplitude_components=components,
            born_residual=doc["born_residual"],
            contextually_sensitive=doc["contextually_sensitive"],
            input_digest=doc["input_digest"],
            seed=doc["seed"],
            tool_version=doc["tool"]["version"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvariantViolation(f"malformed report document: {exc!r}") from exc


def emit_report(report: AnalysisReport) -> bytes:
    """Canonical bytes of a report (stable across runs and platforms)."""
    return (canonical_json(to_document(report)) + "\n").encode("ascii")


def load_report(data: bytes | str) -> AnalysisReport:
    """Inverse of :func:`emit_report`."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvariantViolation(f"not valid JSON: {exc}") from None
    return from_document(doc)


_INDENT = "  "
_SCALARS = (type(None), bool, int, float, str)


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats.

    Scalar-only lists stay on one line; containers of containers go
    multiline with two-space indentation.
    """
    return _encode(value, 0)


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise InvariantViolation(f"cannot serialize non-finite number {value!r}")
    return format(value, ".17g")


def _encode(value: Any, level: int) -> str:
    # Exact types first: a report is almost all floats, strings, dicts, lists.
    kind = type(value)
    if kind is float:
        return _format_float(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        return _encode_object(value, level)
    if kind is list:
        return _encode_array(value, level)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, Mapping):
        return _encode_object(value, level)
    if isinstance(value, (list, tuple)):
        return _encode_array(value, level)
    raise InvariantViolation(f"cannot serialize {type(value).__name__}")


def _encode_object(value: Mapping, level: int) -> str:
    if not value:
        return "{}"
    inner = _INDENT * (level + 1)
    parts = []
    for key in sorted(value):
        if not isinstance(key, str):
            raise InvariantViolation(f"object keys must be strings, got {key!r}")
        parts.append(
            f"{inner}{encode_basestring_ascii(key)}: {_encode(value[key], level + 1)}"
        )
    return "{\n" + ",\n".join(parts) + "\n" + _INDENT * level + "}"


def _encode_array(value: list | tuple, level: int) -> str:
    if not value:
        return "[]"
    if all(isinstance(item, _SCALARS) for item in value):
        return "[" + ", ".join([_encode(item, level) for item in value]) + "]"
    inner = _INDENT * (level + 1)
    parts = [f"{inner}{_encode(item, level + 1)}" for item in value]
    return "[\n" + ",\n".join(parts) + "\n" + _INDENT * level + "]"
