"""Every count, seed and size a library call takes follows one integer rule.

Python and numpy integers are taken and act alike; bools, floats (even
integral ones), strings and, where the call needs a number, None are refused
with InvariantViolation instead of being truncated, parsed or passed on.
"""

import json
import re

import numpy as np
import pytest

from contextprob import (
    Context,
    FrequencyTable,
    InvariantViolation,
    PerturbationKernel,
    Prespace,
    RandomVariable,
    analyze_model,
    analyze_statistics,
    emit_report,
    ingest_contingency_table,
    load_model,
    sample_frequencies,
)

SPACE = Prespace.from_weights([0.1, 0.2, 0.3, 0.4])
OUTCOME = RandomVariable("screen", ["up", "down", "up", "down"])
CONTEXT = Context.full(SPACE)
MODEL = load_model(
    json.dumps(
        {
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
    )
)
STATISTICS = ingest_contingency_table(
    "experiment,outcome_a,outcome_b,count\n"
    "direct,,up,750\ndirect,,down,250\n"
    "sequential,left,up,250\nsequential,left,down,250\n"
    "sequential,right,up,250\nsequential,right,down,250\n"
)


def _table(table):
    return (
        table.support,
        table.counts.tolist(),
        (table.total, type(table.total)),
        (table.seed, type(table.seed)),
    )


# Each call passes the value as one integer argument, 7 being valid for all,
# and returns something that == compares.  The flag says whether None is a
# valid value of that argument.
CALLS = {
    "sample_frequencies-n": (
        lambda v: _table(sample_frequencies(SPACE, CONTEXT, OUTCOME, v, 1)),
        False,
    ),
    "sample_frequencies-seed": (
        lambda v: _table(sample_frequencies(SPACE, CONTEXT, OUTCOME, 7, v)),
        False,
    ),
    "analyze_model-seed": (lambda v: emit_report(analyze_model(MODEL, seed=v)), True),
    "analyze_statistics-seed": (
        lambda v: emit_report(analyze_statistics(STATISTICS, seed=v)),
        True,
    ),
    "FrequencyTable-counts": (lambda v: _table(FrequencyTable("ab", [v, 1], 8, 0)), False),
    "FrequencyTable-total": (lambda v: _table(FrequencyTable("ab", [6, 1], v, 0)), False),
    "FrequencyTable-seed": (lambda v: _table(FrequencyTable("ab", [6, 1], 7, v)), False),
    "Prespace.uniform": (lambda v: Prespace.uniform(v).weights.tolist(), False),
    "PerturbationKernel.identity": (
        lambda v: PerturbationKernel.identity(v).matrix.tolist(),
        False,
    ),
}

NON_INTEGERS = [True, np.True_, 2.5, np.float64(3.0), "7"]


@pytest.mark.parametrize("value", NON_INTEGERS + [None], ids=repr)
@pytest.mark.parametrize("call", CALLS)
def test_non_integers_are_refused(call, value):
    run, takes_none = CALLS[call]
    if value is None and takes_none:
        run(value)
        return
    with pytest.raises(InvariantViolation, match="^expected an integer, got "):
        run(value)


@pytest.mark.parametrize("kind", [np.int64, np.uint8])
@pytest.mark.parametrize("call", CALLS)
def test_numpy_integers_act_as_python_ints(call, kind):
    run, _ = CALLS[call]
    assert run(kind(7)) == run(7)


@pytest.mark.parametrize(
    "counts",
    [
        pytest.param(np.array([2.5, 1.0]), id="float-array"),
        pytest.param(np.array([True, False]), id="bool-array"),
        pytest.param(np.array(["6", "1"]), id="string-array"),
    ],
)
def test_count_arrays_must_hold_integers(counts):
    with pytest.raises(InvariantViolation, match="^expected an integer, got "):
        FrequencyTable("ab", counts, 7, 0)


@pytest.mark.parametrize(
    "counts, total",
    [
        pytest.param([2**63, 0], 2**63, id="beyond-int64"),
        pytest.param(np.array([2**64 - 1, 0], dtype=np.uint64), 2**64 - 1, id="uint64"),
        # the int64 sum of these wraps around to the total
        pytest.param(np.array([2**62] * 4 + [5]), 5, id="wrapping-sum"),
    ],
)
def test_counts_beyond_int64_are_refused(counts, total):
    with pytest.raises(InvariantViolation):
        FrequencyTable("abcde"[: len(counts)], counts, total, 0)


@pytest.mark.parametrize(
    "counts, message",
    [
        pytest.param([8, -1], "counts must be non-negative", id="negative"),
        pytest.param([[6], 1], "expected an integer, got [6]", id="ragged"),
        pytest.param([[6], [1]], "one count per support value required", id="nested"),
        pytest.param(np.array([[6, 1]]), "one count per support value required", id="2-d"),
        pytest.param(7, "one count per support value required", id="scalar"),
        pytest.param(
            [np.zeros((2, 2)), np.zeros((2, 3))],
            "one count per support value required",
            id="unbroadcastable",
        ),
    ],
)
def test_malformed_counts_are_refused(counts, message):
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        FrequencyTable("ab", counts, 7, 0)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("build", [Prespace.uniform, PerturbationKernel.identity])
def test_sizes_below_one_are_refused(build, n):
    with pytest.raises(InvariantViolation, match="needs at least one point$"):
        build(n)


def test_frequency_table_seed_must_be_non_negative():
    with pytest.raises(InvariantViolation, match="^seed must be a non-negative integer$"):
        FrequencyTable("ab", [6, 1], 7, -1)
