import itertools
import json
import math
import re
import sys
import tracemalloc
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contextprob import (
    Context,
    ContextualStatistics,
    DegenerateData,
    InvariantViolation,
    analyze_model,
    analyze_statistics,
    canonical_json,
    emit_report,
    ingest_contingency_table,
    load_model,
    load_report,
    variable_distribution,
)
import contextprob.cli  # noqa: F401  (the stage tracer wraps the CLI's stages too)
from contextprob import model_io
from contextprob.prespace import _AutoNames, _check_normalized, _shown

from synth import (
    coefficients,
    four_point_model,
    perfbench_spans,
    random_hyperbolic_statistics,
    random_space,
    random_trigonometric_statistics,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "example_models"


def model_document(**overrides):
    """A small valid model; tests mutate one field at a time."""
    doc = {
        "schema": 1,
        "weights": [0.1, 0.2, 0.3, 0.4],
        "variables": {
            "path": ["left", "left", "right", "right"],
            "screen": ["up", "down", "up", "down"],
        },
        "selector": "path",
        "outcome": "screen",
        "context": [0, 1, 2, 3],
    }
    doc.update(overrides)
    return doc


def model_text(**overrides):
    return json.dumps(model_document(**overrides))


def identity_kernel(*cells):
    """The 4x4 identity kernel with (row, column, value) cells replaced."""
    kernel = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    for i, j, value in cells:
        kernel[i][j] = value
    return kernel


def uniform_model(n, kernel):
    """A model document of ``n`` >= 2 equally weighted points with the given kernel."""
    return model_document(
        weights=[1.0 / n] * n,
        variables={
            "path": [("left", "right")[i % 2] for i in range(n)],
            "screen": [("up", "down")[(i + i // 2) % 2] for i in range(n)],
        },
        context=list(range(n)),
        kernel=kernel,
    )


def dense_model(n):
    """A model document of ``n`` points whose kernel entries are full-precision floats."""
    kernel = np.random.default_rng(n).uniform(0.05, 1.0, (n, n))
    kernel /= kernel.sum(axis=1, keepdims=True)
    return json.dumps(uniform_model(n, kernel.tolist())).encode()


def kernel_free_model(n):
    """A model document of ``n`` points with full-precision weights and no kernel."""
    weights = np.random.default_rng(n).uniform(0.05, 1.0, n)
    doc = uniform_model(n, None)
    del doc["kernel"]
    doc["weights"] = (weights / weights.sum()).tolist()
    return json.dumps(doc).encode()


def parse(raw):
    """A document's text and its parse, as loading starts them."""
    return json.loads(raw.decode())


def traced_peak(load, raw):
    """The largest memory ``tracemalloc`` sees while ``load(raw)`` runs."""
    tracemalloc.start()
    try:
        load(raw)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Deeper than json.loads can recurse: arrays, then objects.
DEEPLY_NESTED = ["[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000 + "1" + "}" * 100_000]


# A corrupted kernel cell holds one of these; a corrupted row is cut short or is no list.
_BAD_ENTRIES = {"string": "x", "true": True, "null": None, "huge-integer": 10**400}
_BAD_ROWS = ("short-row", "non-list-row")


@st.composite
def _corrupted_identity_kernels(draw):
    """An identity kernel of 2 to 8 points with one or two faults, and the path named first.

    That is the earliest bad row; a row's own shape is named before its entries.
    """
    n = draw(st.integers(2, 8))
    faults = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from([*_BAD_ENTRIES, *_BAD_ROWS]),
            ),
            min_size=1,
            max_size=2,
        )
    )
    kernel = np.eye(n).tolist()
    for i, j, kind in faults:
        if kind in _BAD_ENTRIES:
            kernel[i][j] = _BAD_ENTRIES[kind]
    bad_rows = {i: kind for i, _, kind in faults if kind in _BAD_ROWS}
    for i, kind in bad_rows.items():
        kernel[i] = kernel[i][:-1] if kind == "short-row" else 1.0
    first = min(i for i, _, _ in faults)
    if first in bad_rows:
        path = f"kernel.row[{first}]"
    else:
        column = min(j for i, j, kind in faults if i == first and kind in _BAD_ENTRIES)
        path = f"kernel.row[{first}][{column}]"
    return n, kernel, path


# Values a parsed kernel entry can take besides a number that fits a float.
_ODD_ENTRIES = [True, False, None, "0.5", "x", [0.5], [], {}, 2**63, 2**64, -(2**63) - 1, 10**30, 10**400]


@st.composite
def _kernels_with_an_odd_entry(draw):
    """A stochastic kernel of 2 to 10 points, dense or a permutation, with its
    integral entries written as JSON integers at random and at most one entry
    replaced by one of ``_ODD_ENTRIES``."""
    n = draw(st.integers(2, 10))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        kernel = [[rng.uniform(0.05, 1.0) for _ in range(n)] for _ in range(n)]
        kernel = [[entry / sum(row) for entry in row] for row in kernel]
    else:
        kernel = np.eye(n)[draw(st.permutations(range(n)))].tolist()
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    kernel = [
        [int(entry) if entry.is_integer() and rng.random() < share else entry for entry in row]
        for row in kernel
    ]
    if draw(st.booleans()):
        kernel[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
            st.sampled_from(_ODD_ENTRIES)
        )
    return n, kernel


def _reference_kernel(rows, size):
    """A parsed kernel judged by the set of its entry types and converted by
    ``np.array(rows, dtype=float)``, or walked to its first bad entry: the float
    matrix, or the :class:`InvariantViolation` that ``load_model`` raises."""
    if all(isinstance(row, list) and len(row) == size for row in rows) and set(
        map(type, itertools.chain.from_iterable(rows))
    ) <= {int, float}:
        try:
            matrix = np.array(rows, dtype=float)
        except OverflowError:
            pass
        else:
            try:
                _check_normalized(matrix, "kernel")
            except InvariantViolation as exc:
                return exc
            return matrix
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != size:
            return InvariantViolation(f"expected {size} entries", path=f"kernel.row[{i}]")
        for j, entry in enumerate(row):
            path = f"kernel.row[{i}][{j}]"
            if type(entry) not in (int, float):
                return InvariantViolation(f"expected a number, got {_shown(entry)}", path=path)
            try:
                float(entry)
            except OverflowError:
                return InvariantViolation("number is too large for a float", path=path)
    raise AssertionError("a kernel that failed its type check has no bad entry")


# Entries are multiples of 2**-52 below 2, so every partial sum is exact and
# a row's sum is 1 + excess * 2**-52 in any order; |excess| <= 4503 keeps it
# within the 1e-12 tolerance.
_UNIT = 2.0**-52
_BAND = 4503


def _row_in_band(rng, length, positive, excess):
    """A row of uniform cuts summing to exactly 1 + excess * 2**-52."""
    total = 2**52 + excess
    if positive:
        cuts = rng.sample(range(1, total), length - 1)
    else:
        cuts = [rng.randint(0, total) for _ in range(length - 1)]
    bounds = [0, *sorted(cuts), total]
    return [(b - a) * _UNIT for a, b in zip(bounds, bounds[1:])]


@st.composite
def _edge_of_band_models(draw):
    """Models of 2 to 11 points whose weights and kernel rows sum inside the band."""
    # Hypothesis's own numbers favour small models and round values, whose
    # derived sums do not round; a seeded Random draws uniformly.
    rng = draw(st.randoms(use_true_random=True))
    n = rng.randint(2, 11)

    def excess():
        # the upper edge, where rounding most often carries a derived sum out
        return _BAND if rng.random() < 0.5 else rng.randint(-_BAND, _BAND)

    def labels(pair):
        """Both values, then n - 2 more drawn from them."""
        return [*pair, *(rng.choice(pair) for _ in range(n - 2))]

    doc = model_document(
        weights=_row_in_band(rng, n, positive=True, excess=excess()),
        variables={"path": labels(["left", "right"]), "screen": labels(["up", "down"])},
        context=list(range(n)),
    )
    if rng.random() < 0.75:
        shared = excess()  # rows at the edge together push a derived sum furthest
        doc["kernel"] = [
            _row_in_band(rng, n, positive=False, excess=shared) for _ in range(n)
        ]
    return doc


# How a dense model document is spoiled, each as both parse paths must judge it.
_ENTRY_FAULTS = {"true": True, "false": False, "string": "x", "null": None, "nan": math.nan}
_DOCUMENT_FAULTS = [
    *_ENTRY_FAULTS, "ragged", "narrow", "one-row-short", "empty", "repeated-key",
    "deep-in-a-row", "deep-in-options", "trailing", "kernel-null",
]


@st.composite
def _spoiled_dense_documents(draw):
    """The text of a dense model of 2 to 8 points, whole or with one fault."""
    n = draw(st.integers(2, 8))
    kernel = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.05, 1.0, (n, n))
    kernel = (kernel / kernel.sum(axis=1, keepdims=True)).tolist()
    doc = uniform_model(n, kernel)
    fault = draw(st.sampled_from([None, *_DOCUMENT_FAULTS]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if fault in _ENTRY_FAULTS:
        kernel[i][j] = _ENTRY_FAULTS[fault]
    elif fault == "ragged":
        kernel[i] = kernel[i][:-1] if draw(st.booleans()) else [*kernel[i], 0.0]
    elif fault == "narrow":
        doc["kernel"] = [row[:-1] for row in kernel]
    elif fault == "one-row-short":
        del kernel[i]
    elif fault == "empty":
        doc["kernel"] = []
    elif fault == "deep-in-a-row":
        kernel[i][j] = "DEEP"
    elif fault == "deep-in-options":
        doc["options"] = {"seed": "DEEP"}
    elif fault == "kernel-null":
        doc["kernel"] = None
    text = json.dumps(doc).replace('"DEEP"', DEEPLY_NESTED[0])
    if fault == "repeated-key":
        key = draw(st.sampled_from(sorted(doc)))
        text = f"{{{json.dumps(key)}: {json.dumps(doc[key])}, {text[1:]}"
    elif fault == "trailing":
        text += draw(st.sampled_from([" x", "{}", ",", "]", " 1", "\n{"]))
    return text


def _loading(text):
    """What ``load_model`` makes of a document: every field of the model, or its error."""
    try:
        model = load_model(text)
    except InvariantViolation as exc:
        return "refused", exc.path, str(exc)
    return (
        tuple(model.prespace.points),
        model.prespace.weights.tobytes(),
        {name: variable.values for name, variable in model.variables.items()},
        model.context.indices.tobytes(),
        None if model.kernel is None else model.kernel.matrix.tobytes(),
        model.selector_name,
        model.outcome_name,
        model.options,
    )


def large_dense_model():
    """A dense model document of 240 points: 1.3 MB, above the size whose kernel
    is read while parsing."""
    raw = dense_model(240)
    assert len(raw) >= model_io._STREAMED_KERNEL_CHARS
    return raw


TABLE = """\
experiment,outcome_a,outcome_b,count
direct,,up,750
direct,,down,250
sequential,left,up,250
sequential,left,down,250
sequential,right,up,250
sequential,right,down,250
"""


class TestLoadModel:
    def test_round_trip_of_a_valid_document(self):
        model = load_model(model_text())
        assert model.prespace.size == 4
        assert model.prespace.points == ("p1", "p2", "p3", "p4")
        assert set(model.variables) == {"path", "screen"}
        assert model.selector is model.variables["path"]
        assert model.outcome is model.variables["screen"]
        assert model.kernel is None
        assert model.options.seed == 0

    def test_accepts_bytes(self):
        assert load_model(model_text().encode()).prespace.size == 4

    def test_explicit_points_and_kernel(self):
        identity = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
        model = load_model(
            model_text(points=["a", "b", "c", "d"], kernel=identity)
        )
        assert model.prespace.points == ("a", "b", "c", "d")
        assert model.kernel is not None
        np.testing.assert_array_equal(model.kernel.matrix, np.eye(4))

    def test_effective_kernel_is_none_without_a_kernel(self):
        assert load_model(model_text()).effective_kernel() is None

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_missing_kernel_reports_like_the_identity(self, seed, numeric):
        space, selector, outcome, context = random_space(
            np.random.default_rng(seed), numeric=numeric
        )
        doc = {
            "schema": 1,
            "points": list(space.points),
            "weights": space.weights.tolist(),
            "variables": {v.name: list(v.values) for v in (selector, outcome)},
            "selector": selector.name,
            "outcome": outcome.name,
            "context": list(context.members),
        }
        with_identity = dict(doc, kernel=np.eye(space.size).tolist())
        assert emit_report(analyze_model(load_model(json.dumps(doc)))) == emit_report(
            analyze_model(load_model(json.dumps(with_identity)))
        )

    def test_invalid_json(self):
        with pytest.raises(InvariantViolation, match="not valid JSON"):
            load_model("{nope")

    @pytest.mark.parametrize("load", [load_model, load_report])
    @pytest.mark.parametrize("text", DEEPLY_NESTED, ids=["arrays", "objects"])
    def test_deep_nesting_is_invalid_json(self, load, text):
        with pytest.raises(InvariantViolation, match="^not valid JSON: maximum recursion depth"):
            load(text)

    @pytest.mark.parametrize("load", [load_model, load_report])
    def test_a_repeated_long_key_is_shown_shortened(self, load):
        key = "k" * 200_000
        with pytest.raises(InvariantViolation) as info:
            load(f'{{"{key}": 1, "{key}": 2}}')
        assert str(info.value).startswith("not valid JSON: duplicate key 'kkkk")
        assert len(str(info.value)) < 120

    def test_top_level_must_be_an_object(self):
        with pytest.raises(InvariantViolation) as info:
            load_model("[1, 2]")
        assert info.value.path == "$"

    def test_unknown_key_is_rejected(self):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(comment="hello"))
        assert info.value.path == "comment"

    def test_wrong_schema(self):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(schema=2))
        assert info.value.path == "schema"

    @pytest.mark.parametrize("schema", [True, 1.0])
    def test_schema_must_be_an_integer(self, schema):
        with pytest.raises(
            InvariantViolation, match=re.escape(f"expected schema 1, got {schema!r}")
        ) as info:
            load_model(model_text(schema=schema))
        assert info.value.path == "schema"

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(weights=[0.5, 0.6]))
        assert info.value.path == "weights"

    def test_boolean_weight_is_not_a_number(self):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(weights=[True, 0.0]))
        assert info.value.path == "weights[0]"

    def test_duplicate_points(self):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(points=["a", "a", "b", "c"]))
        assert info.value.path == "points"

    def test_variable_length_must_match(self):
        with pytest.raises(InvariantViolation) as info:
            load_model(
                model_text(
                    variables={
                        "path": ["left", "right"],
                        "screen": ["up", "down", "up", "down"],
                    }
                )
            )
        assert info.value.path == "variables.path"

    def test_selector_must_be_dichotomous(self):
        with pytest.raises(InvariantViolation) as info:
            load_model(
                model_text(
                    variables={
                        "path": ["left", "middle", "right", "right"],
                        "screen": ["up", "down", "up", "down"],
                    }
                )
            )
        assert info.value.path == "selector"
        assert "exactly 2" in str(info.value)

    def test_selector_must_name_a_variable(self):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(selector="missing"))
        assert info.value.path == "selector"

    def test_context_index_out_of_range(self):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(context=[0, 7]))
        assert info.value.path == "context[1]"

    @pytest.mark.parametrize(
        "context, path, message",
        [
            pytest.param([0, True, 2, 3], "context[1]", "expected an integer, got True", id="true"),
            pytest.param([0, 1.0, 2, 3], "context[1]", "expected an integer, got 1.0", id="float"),
            pytest.param([0, "0", 2, 3], "context[1]", "expected an integer, got '0'", id="string"),
            pytest.param([0, -1, 2, 3], "context[1]", "index -1 out of range", id="negative"),
            pytest.param([0, 4, 2, 3], "context[1]", "index 4 out of range", id="n"),
            # every entry's type is checked before any range
            pytest.param([0, 7, True, 3], "context[2]", "expected an integer, got True", id="type-first"),
            pytest.param([0, 1, 9, -1], "context[2]", "index 9 out of range", id="first-of-two"),
        ],
    )
    def test_bad_context_entry_is_located(self, context, path, message):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(context=context))
        assert info.value.path == path
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "value, shown",
        [
            pytest.param(True, "True", id="true"),
            pytest.param(None, "None", id="null"),
            pytest.param([1], "[1]", id="list"),
            pytest.param({}, "{}", id="object"),
        ],
    )
    def test_bad_variable_value_is_located(self, value, shown):
        values = ["left", "left", value, "right"]
        with pytest.raises(InvariantViolation) as info:
            load_model(
                model_text(variables={"path": values, "screen": ["up", "down", "up", "down"]})
            )
        assert info.value.path == "variables.path[2]"
        assert str(info.value) == (
            f"variables.path[2]: values must be strings or numbers, got {shown}"
        )

    HUGE = list(range(100_000))
    LONG_NAME = "s" * 200_000
    SHORT_HUGE = "[0, 1, 2, 3, 4, 5, ...]"
    SHORT_NAME = "'ssssssssssss...sssssssssssss'"
    VARIABLES = {"path": ["left", "left", "right", "right"], "screen": ["up", "down", "up", "down"]}

    @pytest.mark.parametrize(
        "fields, path, message",
        [
            pytest.param(
                {"schema": HUGE}, "schema", f"expected schema 1, got {SHORT_HUGE}", id="schema"
            ),
            pytest.param(
                {"variables": VARIABLES | {"screen": [HUGE, "down", "up", "down"]}},
                "variables.screen[0]",
                f"values must be strings or numbers, got {SHORT_HUGE}",
                id="variable-value",
            ),
            pytest.param(
                {"selector": LONG_NAME}, "selector", f"no variable named {SHORT_NAME}", id="name"
            ),
            pytest.param(
                {"variables": VARIABLES | {LONG_NAME: ["a", "b", "c", "a"]}, "outcome": LONG_NAME},
                "outcome",
                f"variable {SHORT_NAME} must take exactly 2 values, found 3",
                id="arity",
            ),
            pytest.param(
                {"context": [HUGE, 1, 2, 3]},
                "context[0]",
                f"expected an integer, got {SHORT_HUGE}",
                id="context",
            ),
            pytest.param(
                {"weights": [HUGE, 0.2, 0.3, 0.4]},
                "weights[0]",
                f"expected a number, got {SHORT_HUGE}",
                id="weights",
            ),
            pytest.param(
                {"kernel": identity_kernel((1, 1, [0.5] * 100_000))},
                "kernel.row[1][1]",
                "expected a number, got [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, ...]",
                id="kernel",
            ),
        ],
    )
    def test_a_huge_bad_value_is_shown_shortened(self, fields, path, message):
        with pytest.raises(InvariantViolation) as info:
            load_model(json.dumps(model_document(**fields)))
        assert info.value.path == path
        assert str(info.value) == f"{path}: {message}"
        assert len(str(info.value)) < 120

    def test_unprintable_key_is_quoted_in_the_path(self):
        doc = model_document(options={"se\ned": 1})
        doc["a\u2028b"] = 1
        with pytest.raises(InvariantViolation) as info:
            load_model(json.dumps(doc))
        assert str(info.value) == "'a\\u2028b': unknown key in model document"
        del doc["a\u2028b"]
        with pytest.raises(InvariantViolation) as info:
            load_model(json.dumps(doc))
        assert str(info.value) == "options.'se\\ned': unknown option"

    def test_invalid_utf8_is_rejected(self):
        for load in (load_model, ingest_contingency_table):
            with pytest.raises(InvariantViolation, match="^not valid UTF-8: invalid start byte at byte 0$"):
                load(b"\xff{}")

    def test_context_with_zero_weight(self):
        with pytest.raises(InvariantViolation) as info:
            load_model(
                model_text(weights=[0.5, 0.5, 0.0, 0.0], context=[2, 3])
            )
        assert info.value.path == "context"

    @pytest.mark.parametrize(
        "kernel, path",
        [
            pytest.param(
                [row[:3] if i == 1 else row for i, row in enumerate(identity_kernel())],
                "kernel.row[1]",
                id="short-row",
            ),
            pytest.param(identity_kernel((1, 2, "x")), "kernel.row[1][2]", id="string"),
            pytest.param(identity_kernel((1, 2, True)), "kernel.row[1][2]", id="bool"),
            pytest.param(identity_kernel((1, 2, None)), "kernel.row[1][2]", id="null"),
            pytest.param(
                identity_kernel((1, 2, 10**400)), "kernel.row[1][2]", id="huge-integer"
            ),
            # each of the rest has two bad rows; the first is named
            pytest.param(
                identity_kernel((1, 1, -1.0), (1, 2, 2.0), (3, 3, -1.0), (3, 0, 2.0)),
                "kernel.row[1]",
                id="negative",
            ),
            pytest.param(
                identity_kernel((1, 1, math.nan), (3, 3, math.nan)),
                "kernel.row[1]",
                id="nan",
            ),
            pytest.param(
                identity_kernel((1, 1, 0.9), (3, 3, 0.5)), "kernel.row[1]", id="row-sum"
            ),
            # integers a float holds, though no int64 does: refused by their row's sum
            pytest.param(identity_kernel((1, 2, 2**64)), "kernel.row[1]", id="integer-2**64"),
            pytest.param(identity_kernel((1, 2, 10**30)), "kernel.row[1]", id="integer-10**30"),
            pytest.param(
                [[2**63 if (i, j) == (1, 2) else int(i == j) for j in range(4)] for i in range(4)],
                "kernel.row[1]",
                id="integer-2**63-in-an-integer-identity",
            ),
            pytest.param(
                [[True if (i, j) == (1, 2) else 0.25 for j in range(4)] for i in range(4)],
                "kernel.row[1][2]",
                id="true-in-a-dense-row",
            ),
            pytest.param([[[0.25] * 4] * 4] * 4, "kernel.row[0][0]", id="three-levels"),
        ],
    )
    def test_kernel_row_is_named_in_diagnostics(self, kernel, path):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(kernel=kernel))
        assert info.value.path == path

    @given(case=_corrupted_identity_kernels())
    @settings(max_examples=200, deadline=None)
    def test_first_bad_kernel_row_is_named(self, case):
        n, kernel, path = case
        with pytest.raises(InvariantViolation) as info:
            load_model(json.dumps(uniform_model(n, kernel)))
        assert info.value.path == path

    def test_bad_entry_before_a_short_row_is_named(self):
        kernel = identity_kernel((1, 2, "x"))
        kernel[3] = kernel[3][:3]
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(kernel=kernel))
        assert info.value.path == "kernel.row[1][2]"

    def test_short_row_before_a_bad_entry_is_named(self):
        kernel = identity_kernel((3, 0, "x"))
        kernel[1] = kernel[1][:3]
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(kernel=kernel))
        assert info.value.path == "kernel.row[1]"

    @pytest.mark.parametrize(
        "raw",
        [
            pytest.param(dense_model(30), id="dense"),
            pytest.param(model_text(kernel=np.eye(4, dtype=int).tolist()), id="integers"),
            pytest.param(
                model_text(kernel=[[1, 0.0, 0, 0], [0.25, 0, 0.75, 0], [0, 0, 1.0, 0], [0, 0, 0, 1]]),
                id="mixed-int-float",
            ),
            pytest.param(model_text(kernel=identity_kernel((1, 2, -0.0))), id="negative-zero"),
            pytest.param(
                json.dumps(uniform_model(30, np.eye(30, dtype=int).tolist())),
                id="integer-identity",
            ),
        ],
    )
    def test_loaded_kernel_is_the_documents_matrix(self, raw):
        matrix = load_model(raw).kernel.matrix
        assert not matrix.flags.writeable
        expected = np.array(json.loads(raw)["kernel"], dtype=float)
        assert matrix.dtype == expected.dtype and matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [60, 120])
    def test_loading_holds_one_copy_of_a_dense_document(self, n):
        raw = dense_model(n)
        load_model(raw)  # the first call also allocates one-off state
        # Parsing holds the text and the document together; loading should hold no more.
        assert traced_peak(load_model, raw) <= 1.05 * traced_peak(parse, raw)

    @pytest.mark.parametrize("n", [2000, 4000])
    @pytest.mark.parametrize("named", [False, True], ids=["auto-named", "named"])
    @pytest.mark.parametrize("labels", ["string", "integer"])
    @pytest.mark.parametrize("context", ["whole", "partial"])
    def test_loading_holds_one_copy_of_a_kernel_free_document(self, n, named, labels, context):
        doc = json.loads(kernel_free_model(n))
        if named:
            doc["points"] = [f"point-{i}" for i in range(n)]
        if labels == "integer":
            codes = {"left": 0, "right": 1, "up": 10, "down": 20}
            doc["variables"] = {
                name: [codes[value] for value in values]
                for name, values in doc["variables"].items()
            }
        if context == "partial":  # the first four points hold every pair of values
            doc["context"] = [i for i in range(n) if i < 4 or i % 3]
        raw = json.dumps(doc).encode()
        load_model(raw)  # the first call also allocates one-off state
        # Each list is dropped once converted, so the document's lists and their
        # arrays are never held together.
        assert traced_peak(load_model, raw) <= 1.01 * traced_peak(parse, raw)

    @given(case=_kernels_with_an_odd_entry())
    @settings(max_examples=300, deadline=None)
    def test_a_kernel_loads_as_the_whole_type_check_and_walk_judge_it(self, case):
        n, kernel = case
        raw = json.dumps(uniform_model(n, kernel))
        expected = _reference_kernel(json.loads(raw)["kernel"], n)
        try:
            matrix = load_model(raw).kernel.matrix
        except InvariantViolation as exc:
            assert type(expected) is InvariantViolation
            assert (exc.path, str(exc)) == (expected.path, str(expected))
        else:
            assert type(expected) is np.ndarray
            assert matrix.dtype == expected.dtype and matrix.tobytes() == expected.tobytes()

    def test_a_long_string_in_a_kernel_is_refused_within_the_documents_memory(self):
        # A conversion whose dtype numpy infers would hold every entry as a
        # string of this length: 60 * 60 * 4 * 2000 bytes, 29 MB.
        kernel = np.full((60, 60), 1 / 60).tolist()
        kernel[59][59] = "x" * 2000
        raw = json.dumps(uniform_model(60, kernel)).encode()
        tracemalloc.start()
        try:
            with pytest.raises(InvariantViolation) as info:
                load_model(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.path == "kernel.row[59][59]"
        assert peak < 4 * len(raw) + 1_000_000

    @given(text=_spoiled_dense_documents())
    @settings(max_examples=300, deadline=None)
    def test_a_kernel_read_while_parsing_loads_as_the_plain_parse_does(self, text):
        plain = _loading(text)  # small, so parsed the plain way
        with mock.patch.object(model_io, "_STREAMED_KERNEL_CHARS", 0):
            assert _loading(text) == plain

    def test_a_dense_kernel_is_read_while_parsing(self):
        n = 5
        raw = dense_model(n).decode()
        with mock.patch.object(model_io, "_STREAMED_KERNEL_CHARS", 0):
            doc = json.loads(raw, cls=model_io._KernelDecoder, object_pairs_hook=model_io._unique_keys)
        rows, plain = doc.pop("kernel"), json.loads(raw)
        assert type(rows) is model_io._KernelRows and (len(rows), rows.width) == (n, n)
        assert list(rows) == plain.pop("kernel")
        assert doc == plain

    def test_true_in_a_large_dense_kernel_is_named(self):
        doc = json.loads(large_dense_model())
        doc["kernel"][170][33] = True
        raw = json.dumps(doc)
        assert len(raw) >= model_io._STREAMED_KERNEL_CHARS
        with pytest.raises(InvariantViolation) as info:
            load_model(raw)
        assert str(info.value) == "kernel.row[170][33]: expected a number, got True"

    def test_a_large_dense_document_loads_within_its_text_and_matrix(self):
        raw = large_dense_model()
        load_model(raw)  # the first call also allocates one-off state
        # Each row is converted as it is parsed, so the parsed rows, four times
        # the matrix as Python floats, are never held together.
        assert traced_peak(load_model, raw) < len(raw) + 1.25 * 240 * 240 * 8

    def test_a_large_dense_document_is_parsed_in_one_traced_span(self):
        tracer = perfbench_spans().Tracer()
        tracer.install()
        try:
            model = model_io.load_model(large_dense_model())  # the traced one
        finally:
            tracer.uninstall()
        assert model.kernel.matrix.shape == (240, 240)
        assert tracer.names == ["model_io.load_model", "model_io.json_loads"]

    @pytest.mark.parametrize("n", [2000, 4000])
    def test_loading_a_kernel_free_document_makes_no_per_point_objects(self, n):
        raw = kernel_free_model(n)
        load_model(raw)  # the first call also allocates one-off state
        # Point names and a set of context members would each add a Python object per point.
        assert traced_peak(load_model, raw) <= 1.2 * traced_peak(parse, raw)

    @pytest.mark.parametrize(
        "raw",
        [
            pytest.param(kernel_free_model(50), id="kernel-free"),
            pytest.param(json.dumps(uniform_model(50, np.eye(50).tolist())), id="kernel"),
        ],
    )
    def test_analysing_an_auto_named_model_makes_no_point_name(self, raw, monkeypatch):
        expected = emit_report(analyze_model(load_model(raw)))

        def refuse(*args):
            raise AssertionError("a point name was made")

        for method in ("__getitem__", "__iter__"):
            monkeypatch.setattr(_AutoNames, method, refuse)
        model = load_model(raw)
        assert type(model.prespace.points) is _AutoNames
        assert emit_report(analyze_model(model)) == expected

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_loaded_context_is_the_constructed_one(self, n, data):
        members = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
        context = load_model(json.dumps(uniform_model(n, None) | {"context": members})).context
        assert context == Context(members) and hash(context) == hash(Context(members))
        assert context.members == tuple(sorted(set(members)))
        assert context.indices.dtype == np.intp and not context.indices.flags.writeable
        k = data.draw(st.integers(0, len(members)), label="k")
        bad = data.draw(st.sampled_from([True, 1.0, "0", None, -1, n]), label="bad")
        with pytest.raises(InvariantViolation) as info:
            load_model(json.dumps(uniform_model(n, None) | {"context": members[:k] + [bad] + members[k:]}))
        assert info.value.path == f"context[{k}]"

    @pytest.mark.parametrize("points", [None, ["a", "b", "c", "d"]], ids=["auto-named", "explicit"])
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"points": "abcd"}, "points: expected a list of strings"),
            ({"points": ["a", "b", "c"]}, "points: 3 points for 4 weights"),
            ({"points": ["a", "a", "b", "c"]}, "points: point identifiers must be unique"),
            ({"weights": [0.5, 0.6, 0.0, 0.0]}, "weights: weights must sum to 1 within 1e-12, got 1.1"),
            ({"weights": [1.5, -0.5, 0.0, 0.0]}, "weights: weights must be non-negative"),
            ({"weights": [math.nan, 1.0, 0.0, 0.0]}, "weights: weights must be finite"),
            ({"weights": [1e308, 1e308, 0.0, 0.0]}, "weights: weights must sum to 1 within 1e-12, got inf"),
            ({"weights": [0.1, True, 0.3, 0.4]}, "weights[1]: expected a number, got True"),
            ({"weights": [0.1, 10**400, 0.3, 0.4]}, "weights[1]: number is too large for a float"),
            ({"weights": []}, "weights: expected a non-empty list of numbers"),
        ],
    )
    def test_point_and_weight_diagnostics(self, points, fields, message):
        doc = model_document() if points is None else model_document(points=points)
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            load_model(json.dumps(doc | fields))

    def test_weight_too_large_for_a_float(self):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(weights=[0.5, 10**400, 0.25, 0.25]))
        assert info.value.path == "weights[1]"

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([0.25, 10**400, True, 0.25], "number is too large for a float"),
            ([0.25, True, 10**400, 0.25], "expected a number, got True"),
        ],
        ids=["too-large-first", "bool-first"],
    )
    def test_first_bad_weight_is_named(self, weights, message):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(weights=weights))
        assert str(info.value) == f"weights[1]: {message}"

    # the report's flag is always judged at the default tolerance, so none may be given
    @pytest.mark.parametrize("key", ["verbosity", "sensitivity_tolerance"])
    def test_unknown_option(self, key):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(options={key: 3}))
        assert str(info.value) == f"options.{key}: unknown option"

    def test_negative_seed(self):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(options={"seed": -1}))
        assert info.value.path == "options.seed"

    @pytest.mark.parametrize("size", [0, 2**63])
    def test_sample_size_out_of_range(self, size):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(options={"sample_size": size}))
        assert info.value.path == "options.sample_size"

    def test_options_are_applied(self):
        model = load_model(
            model_text(options={"seed": 7, "sample_size": 1000})
        )
        assert model.options.seed == 7
        assert model.options.sample_size == 1000
        assert model.options.classify_tolerance == 1e-9

    # the message shows the tolerance as a float, which is how the options store it
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-9, -1], ids=repr)
    def test_tolerance_must_be_finite_and_not_negative(self, value):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(options={"classify_tolerance": value}))  # nan is written as NaN
        assert str(info.value) == (
            "options.classify_tolerance: classify tolerance must be finite and not negative, "
            f"got {float(value)!r}"
        )

    @pytest.mark.parametrize("value", [True, "1e-9", None, [1e-9]], ids=repr)
    def test_tolerance_must_be_a_number(self, value):
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(options={"classify_tolerance": value}))
        assert str(info.value) == f"options.classify_tolerance: expected a number, got {value!r}"

    # 1.125 is the magnitude of both coefficients of the hyperbolic example
    @pytest.mark.parametrize(
        "tolerance, regime", [(0, "hyperbolic"), (1e-12, "hyperbolic"), (0.25, "trigonometric")]
    )
    def test_a_classify_tolerance_reaches_the_report(self, tolerance, regime):
        doc = json.loads((EXAMPLES / "hyperbolic.json").read_text())
        doc["options"] = {"classify_tolerance": tolerance}
        model = load_model(json.dumps(doc))
        assert type(model.options.classify_tolerance) is float  # an integer 0 too
        assert model.options.classify_tolerance == tolerance
        data = emit_report(analyze_model(model))
        report = json.loads(data)
        assert report["interference"]["classify_tolerance"] == tolerance
        assert report["amplitudes"]["regime"] == regime
        assert emit_report(load_report(data)) == data

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_variable_value_is_located(self, value):
        variables = model_document()["variables"]
        variables["energy"] = [0.5, 2, value, True]
        with pytest.raises(InvariantViolation) as info:
            load_model(model_text(variables=variables))
        assert str(info.value) == f"variables.energy[2]: values must be finite, got {value!r}"

    @pytest.mark.parametrize("values", [[0.5, 2, 1e308, -0.0], ["x", 1.5, "y", 3]])
    def test_finite_float_values_are_kept(self, values):
        variables = dict(model_document()["variables"], energy=values)
        model = load_model(model_text(variables=variables))
        assert model.variables["energy"].values == tuple(values)


class TestIngestContingencyTable:
    def test_interference_from_counts(self):
        stats = ingest_contingency_table(TABLE)
        assert stats.selector_labels == ("left", "right")
        assert stats.outcome_labels == ("up", "down")
        np.testing.assert_allclose(stats.selector_marginals, (0.5, 0.5), atol=0)
        np.testing.assert_allclose(stats.outcome_marginals, (0.75, 0.25), atol=0)
        assert coefficients(stats) == (0.5, -0.5)

    def test_repeated_cells_accumulate(self):
        split = TABLE.replace("direct,,up,750", "direct,,up,700\ndirect,,up,50")
        np.testing.assert_array_equal(
            ingest_contingency_table(split).outcome_marginals,
            ingest_contingency_table(TABLE).outcome_marginals,
        )

    def test_labels_keep_first_appearance_order(self):
        reordered = (
            "experiment,outcome_a,outcome_b,count\n"
            "direct,,down,250\n"
            "direct,,up,750\n"
            "sequential,right,down,250\n"
            "sequential,right,up,250\n"
            "sequential,left,up,250\n"
            "sequential,left,down,250\n"
        )
        stats = ingest_contingency_table(reordered)
        assert stats.outcome_labels == ("down", "up")
        assert stats.selector_labels == ("right", "left")
        np.testing.assert_allclose(stats.outcome_marginals, (0.25, 0.75), atol=0)

        # A sequential row first, with the two families interleaved: the
        # outcome order comes from both families together.
        interleaved = (
            "experiment,outcome_a,outcome_b,count\n"
            "sequential,left,up,100\n"
            "direct,,down,250\n"
            "sequential,right,down,300\n"
            "direct,,up,750\n"
            "sequential,left,down,300\n"
            "sequential,right,up,100\n"
        )
        stats = ingest_contingency_table(interleaved)
        assert stats.outcome_labels == ("up", "down")
        assert stats.selector_labels == ("left", "right")
        np.testing.assert_allclose(stats.outcome_marginals, (0.75, 0.25), atol=0)
        np.testing.assert_allclose(
            stats.transition, ((0.25, 0.75), (0.25, 0.75)), atol=0
        )

    def test_accepts_bytes_and_blank_lines(self):
        stats = ingest_contingency_table(("\n" + TABLE + "\n\n").encode())
        np.testing.assert_allclose(stats.outcome_marginals, (0.75, 0.25), atol=0)

    def test_one_sided_direct_counts_are_valid(self):
        table = TABLE.replace("direct,,down,250", "direct,,down,0").replace(
            "direct,,up,750", "direct,,up,1000"
        )
        stats = ingest_contingency_table(table)
        np.testing.assert_allclose(stats.outcome_marginals, (1.0, 0.0), atol=0)

    def test_zero_direct_total_is_degenerate(self):
        table = TABLE.replace("up,750", "up,0").replace("direct,,down,250", "direct,,down,0")
        with pytest.raises(DegenerateData, match="direct"):
            ingest_contingency_table(table)

    def test_zero_selector_row_is_degenerate(self):
        table = (
            TABLE.replace("sequential,left,up,250", "sequential,left,up,0")
            .replace("sequential,left,down,250", "sequential,left,down,0")
        )
        with pytest.raises(DegenerateData, match="'left'"):
            ingest_contingency_table(table)

    def test_negative_count(self):
        for count in ("-750", "-0"):
            with pytest.raises(InvariantViolation, match="non-negative") as info:
                ingest_contingency_table(TABLE.replace("750", count))
            assert info.value.path == "row[2]"

    def test_fractional_count(self):
        # only ASCII digits: no Python literal syntax, no other scripts' digits
        for count in ("750.5", "9_500", "+5", "\u0665", "0x2ee", "7 50", "-", ""):
            with pytest.raises(InvariantViolation, match="count must be an integer") as info:
                ingest_contingency_table(TABLE.replace("750", count))
            assert info.value.path == "row[2]"

    def test_count_beyond_the_range_of_a_float(self):
        with pytest.raises(InvariantViolation, match="too large") as info:
            ingest_contingency_table(TABLE.replace("750", "9" * 400))
        assert info.value.path == "row[2]"
        near_max = str(int(sys.float_info.max))
        with pytest.raises(InvariantViolation) as info:
            ingest_contingency_table(
                TABLE.replace("up,750", "up," + near_max).replace("down,250", "down," + near_max, 1)
            )
        assert info.value.path == "count"
        # leading zeros do not count towards the size
        padded = ingest_contingency_table(TABLE.replace("750", "0" * 5000 + "750"))
        np.testing.assert_array_equal(
            padded.outcome_marginals, ingest_contingency_table(TABLE).outcome_marginals
        )

    def test_bare_carriage_return_is_not_a_valid_table(self):
        with pytest.raises(InvariantViolation, match="^not a valid CSV table: new-line"):
            ingest_contingency_table(TABLE.replace("direct,,up,750", "direct,,u\rp,750"))

    def test_field_beyond_the_csv_field_limit(self):
        with pytest.raises(InvariantViolation, match="^not a valid CSV table: field larger"):
            ingest_contingency_table(TABLE.replace("750", "7" * 200_000))

    def test_wrong_header(self):
        with pytest.raises(InvariantViolation) as info:
            ingest_contingency_table("a,b,c,d\ndirect,,up,1\n")
        assert info.value.path == "header"

    def test_unknown_experiment_family(self):
        with pytest.raises(InvariantViolation, match="parallel"):
            ingest_contingency_table(
                TABLE + "parallel,left,up,10\n"
            )

    def test_direct_row_with_selector_value(self):
        with pytest.raises(InvariantViolation, match="direct"):
            ingest_contingency_table(
                TABLE.replace("direct,,up,750", "direct,left,up,750")
            )

    def test_sequential_row_without_selector_value(self):
        with pytest.raises(InvariantViolation, match="outcome_a"):
            ingest_contingency_table(
                TABLE.replace("sequential,left,up,250", "sequential,,up,250")
            )

    def test_third_outcome_value_is_rejected(self):
        with pytest.raises(InvariantViolation, match="exactly 2 outcome"):
            ingest_contingency_table(TABLE + "direct,,sideways,5\n")

    def test_third_selector_value_is_rejected(self):
        with pytest.raises(InvariantViolation, match="exactly 2 selector"):
            ingest_contingency_table(TABLE + "sequential,middle,up,5\n")

    def test_row_with_wrong_field_count(self):
        with pytest.raises(InvariantViolation, match="4 fields"):
            ingest_contingency_table(TABLE + "direct,,up\n")


class TestAnalyze:
    def test_trigonometric_statistics(self):
        stats = ingest_contingency_table(TABLE)
        report = analyze_statistics(stats)
        assert report.regime == "trigonometric"
        assert report.born_residual is not None and report.born_residual <= 1e-10
        assert len(report.amplitude_components) == 2
        first = report.amplitude_components[0]
        assert first[0] == pytest.approx(0.75, abs=1e-12)
        assert first[1] == pytest.approx(math.sqrt(3) / 4, abs=1e-12)

    def test_hyperbolic_statistics(self):
        stats = ContextualStatistics(
            ("left", "right"),
            ("up", "down"),
            (0.5, 0.5),
            (0.95, 0.05),
            [[0.8, 0.2], [0.2, 0.8]],
        )
        report = analyze_statistics(stats)
        assert report.regime == "hyperbolic"
        assert report.born_residual <= 1e-10
        # split-complex pairs: x-part first, j-part second
        assert report.amplitude_components[0][1] != 0.0

    def test_mixed_statistics_have_null_amplitudes(self):
        stats = ContextualStatistics(
            ("left", "right"),
            ("up", "down"),
            (0.5, 0.5),
            (0.9683281572999748, 0.03167184270002523),
            [[0.9, 0.1], [0.5, 0.5]],
        )
        report = analyze_statistics(stats)
        assert report.regime == "mixed"
        assert report.amplitude_components is None
        assert report.born_residual is None

    def test_degenerate_statistics_have_null_amplitudes(self):
        stats = ContextualStatistics(
            ("left", "right"),
            ("up", "down"),
            (0.5, 0.5),
            (0.6, 0.4),
            [[1.0, 0.0], [0.3, 0.7]],
        )
        report = analyze_statistics(stats)
        assert report.regime == "degenerate"
        assert report.amplitude_components is None
        assert b'"phase": null' in emit_report(report)

    def test_analyze_model_end_to_end(self):
        model = load_model(model_text(options={"seed": 7}))
        report = analyze_model(model, input_digest="sha256:feed")
        # no kernel: the direct marginal equals the branch sum exactly
        assert report.regime == "trigonometric"
        for entry in report.interference.entries:
            assert abs(entry.coefficient) < 1e-12
        assert report.contextually_sensitive is False
        assert report.seed == 7
        assert report.input_digest == "sha256:feed"

    @given(_edge_of_band_models())
    @settings(max_examples=150, deadline=None)
    def test_models_inside_the_band_analyze(self, doc):
        # Weights are positive and the context is whole, so every branch
        # carries weight; only a re-check of derived sums could refuse it.
        emit_report(analyze_model(load_model(json.dumps(doc))))

    def test_explicit_seed_wins_over_options(self):
        model = load_model(model_text(options={"seed": 7}))
        assert analyze_model(model, seed=3).seed == 3


_counts = st.integers(0, 10**12)




def _count_table(direct, sequential):
    """The statistics of a table of two direct and four sequential counts."""
    assume(sum(direct) > 0 and sum(sequential[:2]) > 0 and sum(sequential[2:]) > 0)
    rows = ["experiment,outcome_a,outcome_b,count"]
    rows += [f"direct,,{o},{n}" for o, n in zip(["up", "down"], direct)]
    rows += [
        f"sequential,{s},{o},{n}"
        for (s, o), n in zip(itertools.product(["left", "right"], ["up", "down"]), sequential)
    ]
    return ingest_contingency_table("\n".join(rows))


@settings(max_examples=300, deadline=None)
@given(direct=st.tuples(_counts, _counts), sequential=st.tuples(*[_counts] * 4))
def test_a_count_table_and_its_four_point_model_share_a_regime(direct, sequential):
    table = _count_table(direct, sequential)
    expected = analyze_statistics(table)
    model = analyze_model(load_model(json.dumps(four_point_model(table))))
    # only the regime: near |c| = 1 the two float paths may fall on either side
    # of the band, and an exact bound on the coefficients waits for exact tables
    for report in (expected, model):
        for entry in report.interference.entries:
            assume(entry.coefficient is None or abs(abs(entry.coefficient) - 1.0) > 1e-6)
    assert model.regime == expected.regime


@settings(max_examples=200, deadline=None)
@given(direct=st.tuples(_counts, _counts), sequential=st.tuples(*[_counts] * 4))
def test_a_four_point_model_has_dispersion_free_points_below_its_tables_bound(direct, sequential):
    """Each point of a table's four-point model fixes both variables, so its
    entropy sum is 0, while the Maassen-Uffink bound ``-ln max t_ij`` that the
    table's quantum representation obeys is positive when no ``t_ij`` is 0 or 1.
    A point of weight 0 is no state to condition on, and is skipped."""
    table = _count_table(direct, sequential)
    model = load_model(json.dumps(four_point_model(table)))
    for point in np.flatnonzero(model.prespace.weights).tolist():
        for variable in (model.selector, model.outcome):
            masses = variable_distribution(model.prespace, variable, Context([point])).masses
            assert masses.max() == 1.0  # one value carries all the mass
    transition = table.transition.tolist()
    if all(0.0 < t < 1.0 for row in transition for t in row):
        assert -math.log(max(map(max, transition))) > 0.0


class TestReportSerialization:
    def sample_reports(self):
        rng = np.random.default_rng(73)
        yield analyze_statistics(ingest_contingency_table(TABLE))
        yield analyze_statistics(
            random_trigonometric_statistics(rng),
            input_digest="sha256:abcd",
            seed=11,
        )
        yield analyze_statistics(random_hyperbolic_statistics(rng), seed=2)
        yield analyze_statistics(
            ContextualStatistics(
                ("left", "right"),
                ("up", "down"),
                (0.5, 0.5),
                (0.6, 0.4),
                [[1.0, 0.0], [0.3, 0.7]],
            )
        )

    def test_emit_load_emit_is_byte_identical(self):
        for report in self.sample_reports():
            first = emit_report(report)
            second = emit_report(load_report(first))
            assert first == second

    def test_a_negative_zero_is_written_as_zero(self):
        report = analyze_statistics(
            ContextualStatistics(("a", "b"), ("x", "y"), (0.5, 0.5), (0.5, 0.5), [[1.0, -0.0], [0.0, 1.0]])
        )
        first = emit_report(report)
        assert b"-0," not in first and b"-0]" not in first and b"-0\n" not in first
        assert emit_report(load_report(first)) == first

    def test_emitted_form_is_ascii_with_trailing_newline(self):
        data = emit_report(analyze_statistics(ingest_contingency_table(TABLE)))
        assert data.endswith(b"\n") and not data.endswith(b"\n\n")
        data.decode("ascii")  # raises if not

    def test_loaded_report_preserves_fields(self):
        original = analyze_statistics(
            ingest_contingency_table(TABLE), input_digest="sha256:00", seed=4
        )
        loaded = load_report(emit_report(original))
        assert loaded.regime == original.regime
        assert loaded.seed == 4
        assert loaded.input_digest == "sha256:00"
        assert loaded.interference.entries[0].coefficient == pytest.approx(
            original.interference.entries[0].coefficient, abs=0
        )

    def test_load_report_rejects_wrong_schema(self):
        data = emit_report(analyze_statistics(ingest_contingency_table(TABLE)))
        doc = json.loads(data)
        doc["schema"] = 99
        with pytest.raises(InvariantViolation):
            load_report(json.dumps(doc))

    @pytest.mark.parametrize("schema", [True, 1.0])
    def test_load_report_rejects_a_non_integer_schema(self, schema):
        doc = json.loads(emit_report(analyze_statistics(ingest_contingency_table(TABLE))))
        doc["schema"] = schema
        with pytest.raises(InvariantViolation, match=re.escape(f"got {schema!r}")):
            load_report(json.dumps(doc))

    def test_load_report_shortens_a_huge_schema(self):
        doc = json.loads(emit_report(analyze_statistics(ingest_contingency_table(TABLE))))
        doc["schema"] = list(range(100_000))
        with pytest.raises(InvariantViolation) as info:
            load_report(json.dumps(doc))
        assert info.value.path == "schema"
        assert str(info.value) == "schema: expected report schema 1, got [0, 1, 2, 3, 4, 5, ...]"

    def test_load_report_rejects_a_repeated_key(self):
        data = emit_report(analyze_statistics(ingest_contingency_table(TABLE), seed=4))
        assert data.count(b'"seed": 4') == 1
        with pytest.raises(InvariantViolation, match="not valid JSON: duplicate key 'seed'"):
            load_report(data.replace(b'"seed": 4', b'"seed": 4, "seed": 5'))

    def test_load_report_rejects_invalid_json(self):
        with pytest.raises(InvariantViolation, match="not valid JSON"):
            load_report(b"{")
        with pytest.raises(InvariantViolation, match="not valid UTF-8"):
            load_report(b"\xff\xfe")
        # Beyond int()'s digit limit, json.loads raises a plain ValueError.
        with pytest.raises(InvariantViolation, match="not valid JSON"):
            load_report("9" * 5000)


def _reference_encode(value, level):
    """The canonical encoder written plainly: isinstance checks and json.dumps."""
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise InvariantViolation(f"cannot serialize non-finite number {value!r}")
        return format(value + 0.0, ".17g")  # a negative zero is written 0
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, Mapping):
        if not value:
            return "{}"
        inner = "  " * (level + 1)
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise InvariantViolation(f"object keys must be strings, got {key!r}")
            parts.append(f"{inner}{json.dumps(key)}: {_reference_encode(value[key], level + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + "  " * level + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        scalars = (type(None), bool, np.bool_, int, np.integer, float, str)
        if all(isinstance(item, scalars) for item in items):
            return "[" + ", ".join(_reference_encode(item, level) for item in items) + "]"
        inner = "  " * (level + 1)
        parts = [f"{inner}{_reference_encode(item, level + 1)}" for item in items]
        return "[\n" + ",\n".join(parts) + "\n" + "  " * level + "]"
    raise InvariantViolation(f"cannot serialize {type(value).__name__}")


def _outcome(encode, value):
    """The encoded text, or the type and message of what was raised."""
    try:
        return encode(value)
    except Exception as exc:  # both encoders must fail the same way
        return type(exc), str(exc)


_keys = st.text()  # any code point: non-ASCII and control characters too
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and infinities must be rejected alike
    st.text(),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.just({1, 2}),  # not serializable
)
# A run of exact, finite floats, alone or followed by one value that ends the
# array writer's float run, so that every way out of it meets the reference.
_float_run = st.tuples(
    st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0), min_size=1, max_size=4),
    st.lists(
        st.one_of(
            st.integers(),
            st.floats().map(np.float64),
            st.booleans(),
            st.none(),
            st.sampled_from([math.nan, math.inf, -math.inf]),
            st.lists(st.floats(), max_size=2),
        ),
        max_size=1,
    ),
).map(lambda run: run[0] + run[1])
_json_like = st.recursive(
    _scalars | _float_run,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(_keys, children, max_size=4).map(MappingProxyType),
        st.dictionaries(st.integers(), children, min_size=1, max_size=2),
    ),
    max_leaves=24,
)


class TestCanonicalJson:
    def test_floats_use_17_significant_digits(self):
        assert canonical_json(0.1) == "0.10000000000000001"
        assert canonical_json(1.0 / 3.0) == "0.33333333333333331"

    def test_integral_floats_collapse(self):
        # 1.0 emits as "1"; reloading yields int(1), which emits identically
        assert canonical_json(1.0) == "1"
        assert canonical_json(-0.0) == "0"

    def test_keys_are_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}'

    def test_scalar_lists_stay_inline(self):
        assert canonical_json([1, 2.5, "x", None]) == '[1, 2.5, "x", null]'

    def test_nested_lists_go_multiline(self):
        assert (
            canonical_json([[1, 2], [3, 4]])
            == "[\n  [1, 2],\n  [3, 4]\n]"
        )

    def test_booleans_stay_booleans(self):
        assert canonical_json({"flag": True}) == '{\n  "flag": true\n}'

    def test_numpy_scalars_are_plain_numbers(self):
        assert canonical_json(np.float64(0.5)) == "0.5"
        assert canonical_json(np.int64(3)) == "3"
        assert canonical_json([np.int64(1), np.int32(2)]) == "[1, 2]"

    def test_numpy_bools_are_booleans(self):
        assert canonical_json({"a": np.True_, "b": np.False_}) == '{\n  "a": true,\n  "b": false\n}'
        assert canonical_json([np.True_, np.False_, None]) == "[true, false, null]"

    def test_non_finite_is_rejected(self):
        with pytest.raises(InvariantViolation):
            canonical_json(float("inf"))
        with pytest.raises(InvariantViolation):
            canonical_json({"x": float("nan")})

    def test_non_string_keys_are_rejected(self):
        with pytest.raises(InvariantViolation):
            canonical_json({1: "x"})

    def test_unserializable_types_are_rejected(self):
        with pytest.raises(InvariantViolation):
            canonical_json({"x": {1, 2}})

    def test_idempotent_through_json_loads(self):
        document = {
            "weights": [0.1, 0.2, 0.30000000000000004, 1.0],
            "nested": {"z": [1.5, 2], "a": None},
        }
        once = canonical_json(document)
        again = canonical_json(json.loads(once))
        assert once == again

    @settings(max_examples=200, deadline=None)
    @given(document=_json_like)
    @example(document=[0.5, -0.0])  # a float run to the end, a negative zero in it
    @example(document=[0.5, -0.0, math.nan])
    @example(document=[0.5, [-0.0]])
    @example(document=((0.5, -0.25), (1, 10**30), (True, -2)))  # a report's components, and ints
    def test_matches_the_reference_encoder(self, document):
        assert _outcome(canonical_json, document) == _outcome(
            lambda value: _reference_encode(value, 0), document
        )

