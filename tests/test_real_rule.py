"""Every weight, mass, kernel entry and statistic a constructor takes follows
one real-number rule.

Python and numpy reals, integers and Fractions are taken and act alike;
text (even numeric text), bools, complex numbers and ragged nestings are
refused with InvariantViolation instead of being parsed, cast or passed on
to numpy.
"""

import re
from fractions import Fraction

import numpy as np
import pytest

from contextprob import (
    ContextualStatistics,
    Distribution,
    InvariantViolation,
    PerturbationKernel,
    Prespace,
)

HALVES = [0.5, 0.5]
IDENTITY = [[1.0, 0.0], [0.0, 1.0]]

# Each call builds one value from one argument, a vector of two halves or
# the 2x2 identity, and returns the stored floats.  The noun is the one its
# refusal names.
CALLS = {
    "Prespace": (lambda v: Prespace("ab", v).weights, "vector", "weights"),
    "Prespace.from_weights": (
        lambda v: Prespace.from_weights(v).weights,
        "vector",
        "weights",
    ),
    "Distribution": (lambda v: Distribution("ab", v).masses, "vector", "masses"),
    "PerturbationKernel": (lambda v: PerturbationKernel(v).matrix, "matrix", "kernel"),
    "ContextualStatistics-selector": (
        lambda v: ContextualStatistics("ab", "xy", v, HALVES, IDENTITY).selector_marginals,
        "vector",
        "selector marginals",
    ),
    "ContextualStatistics-outcome": (
        lambda v: ContextualStatistics("ab", "xy", HALVES, v, IDENTITY).outcome_marginals,
        "vector",
        "outcome marginals",
    ),
    "ContextualStatistics-transition": (
        lambda v: ContextualStatistics("ab", "xy", HALVES, HALVES, v).transition,
        "matrix",
        "transition",
    ),
}

REFUSED = {
    "text": {"vector": ["0.5", "0.5"], "matrix": [["1", "0"], ["0", "1"]]},
    "text-array": {
        "vector": np.array(["0.5", "0.5"]),
        "matrix": np.eye(2).astype(str),
    },
    "bytes-array": {
        "vector": np.array([b"0.5", b"0.5"]),
        "matrix": np.eye(2).astype(bytes),
    },
    "text-among-fractions": {
        "vector": [Fraction(1, 2), "0.5"],
        "matrix": [[Fraction(1), "0"], [Fraction(0), Fraction(1)]],
    },
    "bool-array": {
        "vector": np.array([True, False]),
        "matrix": np.eye(2, dtype=bool),
    },
    "complex": {
        "vector": [0.5 + 0j, 0.5],
        "matrix": [[1.0 + 0j, 0.0], [0.0, 1.0]],
    },
    "complex-array": {
        "vector": np.array(HALVES, dtype=complex),
        "matrix": np.eye(2, dtype=complex),
    },
    "ragged": {"vector": [[0.5], 0.5], "matrix": [[1.0, 0.0], [1.0]]},
}

ACCEPTED = {
    "fractions": {
        "vector": [Fraction(1, 2), Fraction(1, 2)],
        "matrix": [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
    },
    "numpy-scalars": {
        "vector": [np.float32(0.5), np.float64(0.5)],
        "matrix": [[np.float64(1.0), np.int64(0)], [np.uint8(0), np.float32(1.0)]],
    },
    "mixed-objects": {
        "vector": [np.float32(0.5), Fraction(1, 2)],
        "matrix": [[1, Fraction(0)], [np.float64(0.0), 1.0]],
    },
    "float32-array": {
        "vector": np.array(HALVES, dtype=np.float32),
        "matrix": np.eye(2, dtype=np.float32),
    },
    "integer-array": {
        "vector": np.array([1, 0], dtype=np.int64),
        "matrix": np.eye(2, dtype=np.int64),
    },
}


@pytest.mark.parametrize("kind", REFUSED)
@pytest.mark.parametrize("call", CALLS)
def test_non_reals_are_refused(call, kind):
    run, shape, noun = CALLS[call]
    with pytest.raises(
        InvariantViolation, match=f"^{re.escape(noun)} must be real numbers, got "
    ):
        run(REFUSED[kind][shape])


@pytest.mark.parametrize("kind", ACCEPTED)
@pytest.mark.parametrize("call", CALLS)
def test_reals_of_any_type_act_as_floats(call, kind):
    run, shape, _ = CALLS[call]
    values = ACCEPTED[kind][shape]
    stored = run(values)
    assert stored.dtype == np.float64
    assert stored.tolist() == np.array(values, dtype=float).tolist()
