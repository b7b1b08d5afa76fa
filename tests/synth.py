"""Seeded random builders and independent oracles shared by the tests.

The generators produce models/statistics with comfortably non-degenerate
branch probabilities so that coefficient tolerances are meaningful.  The
brute-force oracle recomputes interference coefficients by exhaustive
enumeration over point pairs in plain Python, independently of the library's
vectorized pipeline.  Qubit experiments are drawn Haar-random, with their
exact quantum cosines.  The rest are shared documents and the benchmark's
stage tracer.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from contextprob import (
    Context,
    ContextualStatistics,
    PerturbationKernel,
    Prespace,
    RandomVariable,
    analyze_interference,
    branch_probabilities,
    contextual_statistics,
)

BRANCH_FLOOR = 0.005


def random_space(rng, max_points=32, numeric=False):
    """Space + dichotomous selector/outcome + context covering all 4 combos."""
    n = int(rng.integers(4, max_points + 1))
    weights = rng.uniform(0.05, 1.0, n)
    weights = weights / weights.sum()
    if numeric:
        sel_alphabet, out_alphabet = (-1.0, 1.0), (0.0, 1.0)
    else:
        sel_alphabet, out_alphabet = ("s1", "s2"), ("o1", "o2")
    # pin the first four points to the four value combinations
    sel_values = [sel_alphabet[0], sel_alphabet[0], sel_alphabet[1], sel_alphabet[1]]
    out_values = [out_alphabet[0], out_alphabet[1], out_alphabet[0], out_alphabet[1]]
    for _ in range(n - 4):
        sel_values.append(sel_alphabet[int(rng.integers(2))])
        out_values.append(out_alphabet[int(rng.integers(2))])
    members = [0, 1, 2, 3] + [i for i in range(4, n) if rng.random() < 0.5]
    space = Prespace([f"p{i}" for i in range(n)], weights)
    selector = RandomVariable("selector", sel_values)
    outcome = RandomVariable("outcome", out_values)
    return space, selector, outcome, Context(members)


def random_kernel(rng, n):
    matrix = rng.uniform(0.05, 1.0, (n, n))
    return PerturbationKernel(matrix / matrix.sum(axis=1, keepdims=True))


def random_perturbed_model(rng, max_points=16, identity=False, numeric=False):
    """A model whose branch probabilities all clear BRANCH_FLOOR."""
    while True:
        space, selector, outcome, context = random_space(
            rng, max_points=max_points, numeric=numeric
        )
        kernel = (
            PerturbationKernel.identity(space.size)
            if identity
            else random_kernel(rng, space.size)
        )
        stats = contextual_statistics(space, context, selector, outcome, kernel)
        if float(branch_probabilities(stats).min()) >= BRANCH_FLOOR:
            return space, selector, outcome, context, kernel, stats


def coefficients(statistics):
    """Both interference coefficients, as the analysis entries carry them."""
    return tuple(entry.coefficient for entry in analyze_interference(statistics).entries)


def _statistics_from_coefficient(selector_marginals, transition, lam_1):
    """Fill in outcome marginals so the first coefficient equals lam_1."""
    sel = np.asarray(selector_marginals, dtype=float)
    t = np.asarray(transition, dtype=float)
    branches = sel[:, np.newaxis] * t
    d1 = 2.0 * math.sqrt(branches[0, 0] * branches[1, 0])
    first = float(branches[:, 0].sum() + d1 * lam_1)
    return ContextualStatistics(
        selector_labels=("s1", "s2"),
        outcome_labels=("o1", "o2"),
        selector_marginals=sel,
        outcome_marginals=(first, 1.0 - first),
        transition=t,
    )


def random_trigonometric_statistics(rng, margin=0.02):
    """Valid statistics with both coefficients strictly inside [-1, 1]."""
    slack = 1.0 - 1e-6
    while True:
        a1 = rng.uniform(0.2, 0.8)
        sel = np.array([a1, 1.0 - a1])
        u = rng.uniform(0.05, 0.95)
        v = rng.uniform(0.05, 0.95)
        t = np.array([[u, 1.0 - u], [v, 1.0 - v]])
        branches = sel[:, np.newaxis] * t
        d1 = 2.0 * math.sqrt(branches[0, 0] * branches[1, 0])
        d2 = 2.0 * math.sqrt(branches[0, 1] * branches[1, 1])
        total_1 = float(branches[:, 0].sum())
        low = max(-slack, -(d2 / d1) * slack, (margin - total_1) / d1)
        high = min(slack, (d2 / d1) * slack, (1.0 - margin - total_1) / d1)
        if low >= high:
            continue
        return _statistics_from_coefficient(sel, t, rng.uniform(low, high))


def random_hyperbolic_statistics(rng, margin=0.02, band=1e-3):
    """Valid statistics with both coefficient magnitudes above 1 + band."""
    while True:
        a1 = rng.uniform(0.25, 0.75)
        sel = np.array([a1, 1.0 - a1])
        u = rng.uniform(0.02, 0.3)
        v = rng.uniform(0.02, 0.3)
        t = np.array([[1.0 - u, u], [v, 1.0 - v]])
        branches = sel[:, np.newaxis] * t
        d1 = 2.0 * math.sqrt(branches[0, 0] * branches[1, 0])
        d2 = 2.0 * math.sqrt(branches[0, 1] * branches[1, 1])
        total_1 = float(branches[:, 0].sum())
        floor = max(1.0 + band, (d2 / d1) * (1.0 + band))
        intervals = []
        high = (1.0 - margin - total_1) / d1
        if floor < high:
            intervals.append((floor, high))
        low = (margin - total_1) / d1
        if low < -floor:
            intervals.append((low, -floor))
        if not intervals:
            continue
        pick = intervals[int(rng.integers(len(intervals)))]
        return _statistics_from_coefficient(sel, t, rng.uniform(*pick))


def doubly_stochastic_statistics(rng):
    """Trigonometric statistics whose transition is doubly stochastic."""
    a = rng.uniform(0.15, 0.85)
    s1 = rng.uniform(0.2, 0.8)
    sel = np.array([s1, 1.0 - s1])
    t = np.array([[a, 1.0 - a], [1.0 - a, a]])
    branches = sel[:, np.newaxis] * t
    d1 = 2.0 * math.sqrt(branches[0, 0] * branches[1, 0])
    total_1 = float(branches[:, 0].sum())
    low = max(-1.0, -total_1 / d1) + 0.05
    lam = rng.uniform(low, 0.95)
    first = total_1 + d1 * lam
    return ContextualStatistics(
        selector_labels=("s1", "s2"),
        outcome_labels=("o1", "o2"),
        selector_marginals=sel,
        outcome_marginals=(first, 1.0 - first),
        transition=t,
    )


def haar_unitary(rng):
    """A Haar-random 2 x 2 unitary: QR of a complex Gaussian, with R's diagonal
    phases moved into Q (Mezzadri, Notices AMS 54, 592, 2007)."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    diagonal = np.diagonal(r)
    return q * (diagonal / np.abs(diagonal))


def qubit_experiment(rng):
    """A Haar-random qubit state measured in a Haar-random selector basis.

    The outcome basis ``b`` is the standard one, and the columns ``a_1, a_2``
    of a Haar unitary are the selector basis in its coordinates.  Returns the
    statistics ``p_i = |<a_i|psi>|^2``, ``q_j = |psi_j|^2`` and the doubly
    stochastic ``t_ij = |<b_j|a_i>|^2``, and the exact quantum cosine of each
    outcome ``j``, ``Re(conj(c_1j) c_2j) / (|c_1j| |c_2j|)`` with
    ``c_ij = <b_j|a_i><a_i|psi>``, so that ``q_j = |c_1j + c_2j|^2``.
    """
    psi = haar_unitary(rng)[:, 0]
    basis = haar_unitary(rng)
    along = basis.conj().T @ psi  # <a_i|psi>
    paths = basis.T * along[:, np.newaxis]  # c_ij
    cosines = (paths[0].conj() * paths[1]).real / (np.abs(paths[0]) * np.abs(paths[1]))
    statistics = ContextualStatistics(
        selector_labels=("a1", "a2"),
        outcome_labels=("b1", "b2"),
        selector_marginals=np.abs(along) ** 2,
        outcome_marginals=np.abs(psi) ** 2,
        transition=np.abs(basis.T) ** 2,
    )
    return statistics, tuple(cosines.tolist())


def brute_force_lambdas(space, context, selector, outcome, kernel):
    """Interference coefficients by exhaustive point-pair enumeration.

    Pure Python sums, no shared code with the library pipeline.
    """
    weights = [float(w) for w in space.weights]
    members = list(context.members)
    rows = [[float(x) for x in row] for row in kernel.matrix]
    total = sum(weights[i] for i in members)

    def marginal(variable, value):
        return (
            sum(weights[i] for i in members if variable.values[i] == value) / total
        )

    coefficients = []
    for out_value in outcome.alphabet:
        observed = marginal(outcome, out_value)
        branches = []
        for sel_value in selector.alphabet:
            chosen = [i for i in members if selector.values[i] == sel_value]
            chosen_weight = sum(weights[i] for i in chosen)
            reached = 0.0
            for i in chosen:
                for j in range(space.size):
                    if outcome.values[j] == out_value:
                        reached += (weights[i] / chosen_weight) * rows[i][j]
            branches.append(marginal(selector, sel_value) * reached)
        coefficients.append(
            (observed - branches[0] - branches[1])
            / (2.0 * math.sqrt(branches[0] * branches[1]))
        )
    return tuple(coefficients)


def four_point_model(statistics):
    """The classical prespace model of a count table's statistics, as a document.

    Point ``(s, o)`` weighs ``P(s)·P(o)``, so both undisturbed marginals hold;
    kernel row ``(s, o)`` is the transition row of ``s``, placed on the points
    ``(s, ·)``, so measuring ``s`` yields that row.  The context is the whole space.
    """
    pairs = [(i, j) for i in range(2) for j in range(2)]
    selector = statistics.selector_marginals.tolist()
    outcome = statistics.outcome_marginals.tolist()
    transition = statistics.transition.tolist()
    return {
        "schema": 1,
        "weights": [selector[i] * outcome[j] for i, j in pairs],
        "variables": {
            "selector": [statistics.selector_labels[i] for i, _ in pairs],
            "outcome": [statistics.outcome_labels[j] for _, j in pairs],
        },
        "selector": "selector",
        "outcome": "outcome",
        "context": [0, 1, 2, 3],
        "kernel": [
            [transition[i][j] if s == i else 0.0 for s, j in pairs] for i, _ in pairs
        ],
    }


def perfbench_spans():
    """``perfbench/spans.py``, loaded from its file without adding it to the path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
