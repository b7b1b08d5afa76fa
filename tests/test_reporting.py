"""The report writer against the generic document path it replaced.

``emit_report`` writes a report's fixed, key-sorted layout in one pass.  The
reference here is the writer it replaced: build the report's plain-data
document, then serialize it with ``canonical_json``.  Both must give the same
bytes, or refuse with the same message, for analysed reports of every regime
and for reports whose fields hold values of unexpected types.

``load_report`` analyses a document's statistics again, so a document whose
derived fields differ from that analysis is refused at the differing path.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextprob import (
    AnalysisOptions,
    ContextualStatistics,
    InvariantViolation,
    analyze_statistics,
    canonical_json,
    emit_report,
    load_report,
)
from contextprob.reporting import REPORT_SCHEMA, TOOL_NAME

from synth import random_hyperbolic_statistics, random_trigonometric_statistics

GOLDEN = Path(__file__).resolve().parent.parent / "example_models" / "golden"
GOLDENS = sorted(GOLDEN.glob("*.report.json"))


def reference_document(report):
    """Plain-data form of a report, as the previous writer built it."""
    statistics = report.statistics
    return {
        "schema": REPORT_SCHEMA,
        "tool": {"name": TOOL_NAME, "version": report.tool_version},
        "input_digest": report.input_digest,
        "seed": report.seed,
        "statistics": {
            "selector_labels": list(statistics.selector_labels),
            "outcome_labels": list(statistics.outcome_labels),
            "selector_marginals": statistics.selector_marginals.tolist(),
            "outcome_marginals": statistics.outcome_marginals.tolist(),
            "transition": statistics.transition.tolist(),
        },
        "interference": {
            "classify_tolerance": report.interference.classify_tolerance,
            "entries": [
                {
                    "outcome": entry.outcome,
                    "observed": entry.observed,
                    "branches": list(entry.branches),
                    "coefficient": entry.coefficient,
                    "classification": entry.classification.value,
                    "phase": entry.phase,
                    "sign": entry.sign,
                }
                for entry in report.interference.entries
            ],
        },
        "amplitudes": {
            "regime": report.regime,
            "components": report.amplitude_components,
        },
        "born_residual": report.born_residual,
        "contextually_sensitive": report.contextually_sensitive,
    }


def reference_emit(report) -> bytes:
    return (canonical_json(reference_document(report)) + "\n").encode("ascii")


def _outcome(emit, report):
    """The emitted bytes, or the type and message of what was raised."""
    try:
        return emit(report)
    except InvariantViolation as exc:
        return type(exc), str(exc)


def assert_matches_reference(report):
    assert _outcome(emit_report, report) == _outcome(reference_emit, report)


def two_by_two(labels=(("a", "b"), ("x", "y")), p=0.5, q=0.5, t1=0.5, t2=0.5):
    return ContextualStatistics(*labels, (p, 1 - p), (q, 1 - q), [[t1, 1 - t1], [t2, 1 - t2]])


REGIMES = {
    "trigonometric": random_trigonometric_statistics(np.random.default_rng(5)),
    "hyperbolic": random_hyperbolic_statistics(np.random.default_rng(5)),
    # the second selector value never reaches the first outcome
    "degenerate": two_by_two(q=0.6, t1=1.0, t2=0.0),
    # branches 0.45 + 0.45 and 0.05 + 0.05: coefficients -1/6 and 3/2
    "mixed": two_by_two(q=0.75, t1=0.9, t2=0.9),
}


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_every_regime_matches_the_reference(regime):
    report = analyze_statistics(REGIMES[regime], input_digest="sha256:00", seed=3)
    assert report.regime == regime
    assert_matches_reference(report)


_labels = st.one_of(
    st.text(max_size=6),  # any code point: escapes and non-ASCII too
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.tuples(st.text(max_size=3), st.integers(-9, 9)),
)
_label_pairs = st.lists(_labels, min_size=2, max_size=2, unique=True)
_probabilities = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(
    labels=st.tuples(_label_pairs, _label_pairs),
    masses=st.tuples(*[_probabilities] * 4),
    classify_tolerance=st.sampled_from([0.0, 1e-9, 0.25]),
    input_digest=st.none() | st.text(max_size=12),
    seed=st.none() | st.integers(0, 2**70),
)
def test_analysed_reports_match_the_reference(
    labels, masses, classify_tolerance, input_digest, seed
):
    report = analyze_statistics(
        two_by_two(labels, *masses),
        options=AnalysisOptions(classify_tolerance=classify_tolerance),
        input_digest=input_digest,
        seed=seed,
    )
    data = _outcome(emit_report, report)
    assert data == _outcome(reference_emit, report)
    if type(data) is bytes:  # emit -> load -> emit is a fixed point, tuple labels too
        assert emit_report(load_report(data)) == data


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)  # NaN and infinities included: json writes and reads them, the writers refuse them
_lists = st.lists(_json, max_size=3) | st.lists(st.floats(), max_size=3)
# odd values for each field, keyed by owner (the report, its interference, or
# entry 0 or 1) and field name
_FIELDS = {
    ("report", "regime"): _json,
    ("report", "amplitude_components"): st.none() | st.lists(_lists | st.text(max_size=3), max_size=3),
    ("report", "born_residual"): _json,
    ("report", "contextually_sensitive"): _json,
    ("report", "input_digest"): _json,
    ("report", "seed"): _json,
    ("report", "tool_version"): _json,
    ("interference", "classify_tolerance"): _json,
    ("interference", "entries"): st.just(()),
    (0, "outcome"): _json,
    (0, "observed"): _json,
    (0, "branches"): _lists,
    (1, "coefficient"): _json,
    (1, "phase"): _json,
    (1, "sign"): _json,
}


def _replaced(report, changes):
    """``report`` with each ``(owner, name): value`` of ``changes`` set."""
    by_owner = {"report": {}, "interference": {}, 0: {}, 1: {}}
    for (owner, name), value in changes.items():
        by_owner[owner][name] = value
    entries = tuple(
        replace(entry, **by_owner[i]) for i, entry in enumerate(report.interference.entries)
    )
    interference = replace(report.interference, **{"entries": entries, **by_owner["interference"]})
    return replace(report, interference=interference, **by_owner["report"])


@st.composite
def _odd_reports(draw):
    report = load_report(draw(st.sampled_from(GOLDENS)).read_bytes())
    fields = draw(st.lists(st.sampled_from(list(_FIELDS)), min_size=1, max_size=4, unique=True))
    return _replaced(report, {field: draw(_FIELDS[field]) for field in fields})


@settings(max_examples=300, deadline=None)
@given(report=_odd_reports())
def test_reports_with_odd_fields_match_the_reference(report):
    assert_matches_reference(report)


@pytest.mark.parametrize("components, written", [(["ab"], '["ab"]'), ([""], '[""]')])
def test_string_components_are_written_as_strings(components, written):
    report = replace(load_report(GOLDENS[0].read_bytes()), amplitude_components=components)
    assert f'"components": {written},'.encode() in emit_report(report)
    assert_matches_reference(report)


def _set_field(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


def _refusal(doc) -> InvariantViolation:
    with pytest.raises(InvariantViolation) as info:
        load_report(json.dumps(doc))  # json writes NaN and Infinity
    return info.value


def _leaves(value, keys=()):
    """``(keys, value)`` of every scalar, empty list and empty object."""
    if value and type(value) in (dict, list):
        for key, item in value.items() if type(value) is dict else enumerate(value):
            yield from _leaves(item, keys + (key,))
    else:
        yield keys, value


def _path(keys) -> str:
    """``("a", "b", 0, "c")`` as ``a.b[0].c``."""
    return "".join(f"[{key}]" if type(key) is int else f".{key}" for key in keys)[1:]


# every field that load_report derives from the statistics and the tolerance
_DERIVED = (
    ("amplitudes",),
    ("born_residual",),
    ("contextually_sensitive",),
    ("interference", "entries"),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_changed_derived_field_is_refused_at_its_path(data):
    doc = json.loads(data.draw(st.sampled_from(GOLDENS)).read_bytes())
    leaves = []
    for root in _DERIVED:
        value = doc
        for key in root:
            value = value[key]
        leaves.extend(_leaves(value, root))
    keys, old = data.draw(st.sampled_from(leaves))
    # a different value: 1.0 is 1, but true is not 1
    new = data.draw(_json.filter(lambda v: v != old or (type(v) is bool) != (type(old) is bool)))
    _set_field(doc, keys, new)
    assert _refusal(doc).path == _path(keys)


@pytest.mark.parametrize(
    "field, value, path",
    [
        (("amplitudes", "regime"), "banana", "amplitudes.regime"),
        (("interference", "entries", 0, "coefficient"), "oops", "interference.entries[0].coefficient"),
        (("born_residual",), [1, 2], "born_residual"),
        (("contextually_sensitive",), 1, "contextually_sensitive"),
        (("input_digest",), {}, "input_digest"),
        (("tool", "version"), 3, "tool.version"),
        (("interference", "entries"), [], "interference.entries"),
        (("seed",), {"b": [1.5, None], "a": {}}, "seed"),
        (("amplitudes", "components"), [[1, 2], [], ["x", None]], "amplitudes.components"),
        (
            ("interference", "entries", 0, "branches"),
            [0.5, [1, {"a": [2]}]],
            "interference.entries[0].branches[0]",  # 0.5 is not the first branch
        ),
        (("interference", "entries", 1, "classification"), "hyperbolic", "interference.entries[1].classification"),
        (("tool", "name"), "other", "tool.name"),
        (("comment",), "hello", "comment"),
    ],
)
def test_a_tampered_field_is_refused_at_its_path(field, value, path):
    doc = json.loads((GOLDEN / "classical.report.json").read_bytes())
    _set_field(doc, field, value)
    assert _refusal(doc).path == path


@pytest.mark.parametrize("golden", GOLDENS, ids=[path.name for path in GOLDENS])
def test_a_flipped_sensitivity_flag_is_refused(golden):
    doc = json.loads(golden.read_bytes())
    doc["contextually_sensitive"] = not doc["contextually_sensitive"]
    refusal = _refusal(doc)
    assert refusal.path == "contextually_sensitive"
    assert str(refusal).startswith("contextually_sensitive: expected ")


@pytest.mark.parametrize(
    "doc, path, message",
    [
        pytest.param([], None, "report document must be a JSON object", id="not-an-object"),
        pytest.param({"schema": REPORT_SCHEMA}, "statistics", "missing", id="no-statistics"),
        pytest.param(
            {"schema": REPORT_SCHEMA, "statistics": []},
            "statistics",
            "expected an object",
            id="statistics-not-an-object",
        ),
    ],
)
def test_a_document_that_is_not_a_report_is_refused(doc, path, message):
    refusal = _refusal(doc)
    assert refusal.path == path
    assert str(refusal) == (message if path is None else f"{path}: {message}")


def _without(doc, keys):
    *parents, last = keys
    for key in parents:
        doc = doc[key]
    del doc[last]


@pytest.mark.parametrize(
    "change, path, message",
    [
        (lambda doc: _without(doc, ("statistics", "transition")), "statistics.transition", "missing"),
        (lambda doc: _set_field(doc, ("statistics", "extra"), 1), "statistics.extra", "unknown key"),
        (lambda doc: _without(doc, ("interference",)), "interference", "missing"),
        (lambda doc: _set_field(doc, ("interference",), [0.5]), "interference", "expected an object"),
        (
            lambda doc: _without(doc, ("interference", "classify_tolerance")),
            "interference.classify_tolerance",
            "missing",
        ),
        (lambda doc: _without(doc, ("input_digest",)), "input_digest", "missing"),
        (lambda doc: _without(doc, ("seed",)), "seed", "missing"),
        (lambda doc: _set_field(doc, ("tool",), "contextprob"), "tool", "expected an object"),
        (lambda doc: _without(doc, ("tool", "version")), "tool.version", "missing"),
        (
            lambda doc: _set_field(doc, ("statistics", "outcome_marginals"), [0.5, 0.75]),
            "statistics",
            "outcome marginals must sum to 1 within 1e-10, got 1.25",
        ),
        (
            lambda doc: _set_field(doc, ("statistics", "selector_labels"), ["a", "a"]),
            "statistics",
            "selector variable must take exactly 2 distinct values, got ('a', 'a')",
        ),
        (
            lambda doc: _set_field(doc, ("statistics", "selector_labels"), [{}, "a"]),
            "statistics",
            "unhashable type: 'dict'",
        ),
    ],
)
def test_a_report_input_that_cannot_be_read_is_refused_at_its_path(change, path, message):
    doc = json.loads((GOLDEN / "classical.report.json").read_bytes())
    change(doc)
    refusal = _refusal(doc)
    assert refusal.path == path
    assert str(refusal) == f"{path}: {message}"


def test_a_missing_derived_field_is_refused_at_its_path():
    doc = json.loads((GOLDEN / "classical.report.json").read_bytes())
    del doc["amplitudes"]["regime"]
    assert _refusal(doc).path == "amplitudes.regime"


@pytest.mark.parametrize(
    "field, value, path",
    [
        (("report", "born_residual"), math.nan, ("born_residual",)),
        (("interference", "classify_tolerance"), -math.inf, ("interference", "classify_tolerance")),
        ((0, "branches"), [0.5, math.nan], ("interference", "entries", 0, "branches")),
        (("report", "amplitude_components"), [[0.5, 0.5], [math.inf, 0.5]], ("amplitudes", "components")),
        (("report", "seed"), [1, {"a": [math.nan]}], ("seed",)),
    ],
)
def test_a_non_finite_value_is_refused(field, value, path):
    report = _replaced(load_report(GOLDENS[0].read_bytes()), {field: value})
    with pytest.raises(InvariantViolation, match="^cannot serialize non-finite number"):
        emit_report(report)
    assert _outcome(emit_report, report) == _outcome(reference_emit, report)
    doc = json.loads(GOLDENS[0].read_bytes())
    _set_field(doc, path, value)
    assert _refusal(doc).path.startswith(_path(path))  # the field, or an entry in it


# kept as read: an integer is written back as an integer, not as 1e+17 or 0.0
@pytest.mark.parametrize("tolerance", [0, 0.0, -0.0, 0.25, 10**17])
def test_a_tolerance_of_zero_or_more_loads(tolerance):
    report = analyze_statistics(
        REGIMES["mixed"], options=AnalysisOptions(classify_tolerance=tolerance)
    )
    data = emit_report(report)
    assert emit_report(load_report(data)) == data


@pytest.mark.parametrize("tolerance", [-1e-9, "1e-9", True, None, 10**400])
def test_a_tolerance_that_is_not_a_finite_non_negative_number_is_refused(tolerance):
    doc = json.loads((GOLDEN / "classical.report.json").read_bytes())
    doc["interference"]["classify_tolerance"] = tolerance
    assert _refusal(doc).path == "interference.classify_tolerance"


@pytest.mark.parametrize("golden", GOLDENS, ids=[path.name for path in GOLDENS])
def test_golden_re_emits_through_load_report(golden):
    data = golden.read_bytes()
    assert emit_report(load_report(data)) == data


@pytest.mark.parametrize(
    "labels",
    [
        ((np.True_, np.False_), ("x", "y")),
        ((np.int64(1), np.int64(2)), (np.int32(7), np.int32(8))),
    ],
    ids=["numpy-bool", "numpy-int"],
)
def test_numpy_labels_re_emit_byte_for_byte(labels):
    report = analyze_statistics(two_by_two(labels, q=0.75, t1=0.9, t2=0.9), seed=1)
    data = emit_report(report)
    assert data == reference_emit(report)
    assert emit_report(load_report(data)) == data


def test_tuple_labels_re_emit_byte_for_byte():
    report = analyze_statistics(two_by_two(((("a", 1), ("b", ("c", ()))), ("x", ("y",)))), seed=1)
    data = emit_report(report)
    assert json.loads(data)["statistics"]["selector_labels"] == [["a", 1], ["b", ["c", []]]]
    loaded = load_report(data)
    assert loaded.statistics.selector_labels == (("a", 1), ("b", ("c", ())))
    assert emit_report(loaded) == data
