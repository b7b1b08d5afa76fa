"""Seeded inputs of every workload, each paired with its oracle answer.

Everything here is a pure function of the workload seed.  The program sees
only the bytes (or, for sampling, the objects) built here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

import oracle

# small-models: (recipe, regime it must land in, how many)
SMALL_MODEL_PLAN = (
    ("classical", "trigonometric", 48),
    ("dense", "trigonometric", 24),
    ("missing", "degenerate", 40),
    ("sparse", "degenerate", 8),
    ("steer", "hyperbolic", 36),
    ("steer", "mixed", 36),
)
SMALL_TABLES_PER_REGIME = 16
REGIMES = ("trigonometric", "hyperbolic", "mixed", "degenerate")
# Generated inputs keep every non-zero branch probability at or above this,
# so a coefficient's rounding error stays far below the 1e-9 check.
BRANCH_FLOOR = 1e-4
COEFFICIENT_CEILING = 1e4

# Close sizes, so each percentile lands inside one size: the median in the
# middle one, p90 in the largest.  One load takes under 0.2 s, so a run
# holds about a hundred loads or more, and the tracemalloc pass stays short.
DENSE_SIZES = (350, 375, 400)
DENSE_ROW_POOL = 32
# An odd count of distinct sizes puts the median latency inside one size.
KERNEL_FREE_SIZES = (2000, 2500, 3000, 3500, 4000)

SAMPLING_POINTS = 1000
# 61 full chunks of 65536 draws plus a partial one; about 0.1 s per call, so
# short slow spells of the machine average out within a call
SAMPLING_DRAWS = 4_000_003

_SELECTOR_LABELS = (("left", "right"), ("open", "closed"), ("a", "b"), (0, 1))
_OUTCOME_LABELS = (("up", "down"), ("hit", "miss"), ("yes", "no"), (1, 2))
_NAMES = ("path", "gate", "arm", "screen", "detector", "spin", "which", "count")


@dataclass
class Input:
    """One input of an analysis workload."""

    name: str
    kind: str  # "model" or "table"
    raw: bytes
    expected: oracle.Expected
    reference: bytes | None = field(default=None, repr=False)  # checked first output


def _labels(rng, choices):
    return choices[int(rng.integers(len(choices)))]


def _slot_size(recipe: str, slot: int, count: int) -> int:
    """Sizes spread evenly over 2..32 (4..32 for classical), the same for every seed."""
    low = 4 if recipe == "classical" else 2
    return low + round(slot * (32 - low) / max(1, count - 1))


def _model_arrays(rng, recipe: str, n: int, part_context: bool):
    """Raw arrays of one small model with n points built by the named recipe."""
    # point codes: selector a in {0,1}, outcome o in {0,1}
    if recipe == "classical":
        pinned = [(0, 0), (0, 1), (1, 0), (1, 1)]
        allowed = pinned
    elif recipe == "missing":
        absent = (int(rng.integers(2)), int(rng.integers(2)))
        allowed = [c for c in ((0, 0), (0, 1), (1, 0), (1, 1)) if c != absent]
        pinned = [(0, 0), (1, 1)] if absent in ((0, 1), (1, 0)) else [(0, 1), (1, 0)]
        pinned += [c for c in allowed if c not in pinned][: max(0, n - 2)]
    else:
        pinned = [(0, 0), (1, 1), (0, 1), (1, 0)][: max(2, min(n, 4))]
        allowed = [(0, 0), (0, 1), (1, 0), (1, 1)]
    codes = list(pinned) + [allowed[int(rng.integers(len(allowed)))] for _ in range(n - len(pinned))]
    order = rng.permutation(n)
    codes = [codes[i] for i in order]
    pinned_at = {int(np.flatnonzero(order == i)[0]) for i in range(len(pinned))}
    selector = np.array([c[0] for c in codes])
    outcome = np.array([c[1] for c in codes])
    skew = float(np.exp(rng.uniform(-3.4, 3.4)))
    weights = rng.uniform(0.05, 1.0, n) * np.where(outcome == 0, skew, 1.0)
    weights = weights / weights.sum()
    if part_context:
        context = [i for i in range(n) if i in pinned_at or rng.random() < 0.6]
    else:
        context = list(range(n))
    kernel = None
    if recipe in ("dense", "sparse"):
        kernel = rng.uniform(0.05, 1.0, (n, n))
        if recipe == "sparse":
            # rows of selector-a points never reach outcome o: branch (a, o) is 0
            a, o = int(rng.integers(2)), int(rng.integers(2))
            kernel[np.ix_(selector == a, outcome == o)] = 0.0
        kernel = kernel / kernel.sum(axis=1, keepdims=True)
    elif recipe == "steer":
        # rows of selector-a points send share reach[a] of their mass to outcome 0
        reach = rng.uniform(0.03, 0.97, 2)
        kernel = rng.uniform(0.05, 1.0, (n, n))
        to_first = outcome == 0
        kernel[:, to_first] /= kernel[:, to_first].sum(axis=1, keepdims=True)
        kernel[:, ~to_first] /= kernel[:, ~to_first].sum(axis=1, keepdims=True)
        share = reach[selector][:, np.newaxis]
        kernel = np.where(to_first, kernel * share, kernel * (1.0 - share))
        kernel = kernel / kernel.sum(axis=1, keepdims=True)
    return weights, selector, outcome, context, kernel


def _model_document(rng, slot: int, weights, selector, outcome, context, kernel) -> dict:
    """The JSON document; which optional parts it has depends on the slot only."""
    names = rng.permutation(len(_NAMES))
    selector_name, outcome_name = _NAMES[names[0]], _NAMES[names[1]]
    selector_labels = _labels(rng, _SELECTOR_LABELS)
    outcome_labels = _labels(rng, _OUTCOME_LABELS)
    n = len(weights)
    doc = {"schema": 1}
    if slot % 2:
        doc["points"] = [f"x{i}" for i in range(n)]
    doc["weights"] = weights.tolist()
    doc["variables"] = {
        selector_name: [selector_labels[int(v)] for v in selector],
        outcome_name: [outcome_labels[int(v)] for v in outcome],
    }
    if slot % 3 == 0:
        doc["variables"][_NAMES[names[2]]] = [int(v) for v in rng.integers(0, 3, n)]
    doc["selector"] = selector_name
    doc["outcome"] = outcome_name
    doc["context"] = [int(i) for i in context]
    if kernel is not None:
        doc["kernel"] = kernel.tolist()
    if slot % 4 == 1:
        doc["options"] = {"seed": int(rng.integers(0, 1000))}
    return doc


def _acceptable(expected: oracle.Expected) -> bool:
    finite = [v for v in expected.coefficients.values() if v is not None]
    return (
        expected.smallest_branch >= BRANCH_FLOOR
        and not expected.near_band()
        and all(abs(v) <= COEFFICIENT_CEILING for v in finite)
    )


def small_models(seed: int) -> list[Input]:
    rng = np.random.default_rng([seed, 1])
    pool: list[Input] = []
    for recipe, regime, count in SMALL_MODEL_PLAN:
        made = 0
        while made < count:
            n = _slot_size(recipe, made, count)
            arrays = _model_arrays(rng, recipe, n, part_context=made % 4 >= 2)
            weights, selector, outcome, context, kernel = arrays
            if len(set(selector[context].tolist())) < 2 or len(set(outcome.tolist())) < 2:
                continue
            expected = oracle.model_expectation(weights, selector, outcome, context, kernel)
            if expected.regime != regime or not _acceptable(expected):
                continue
            doc = _model_document(rng, made, *arrays)
            # the oracle keys outcomes by the document's labels
            expected = oracle.document_expectation(doc)
            raw = (json.dumps(doc, indent=made % 3 or None) + "\n").encode("ascii")
            pool.append(Input(f"model-{recipe}-{regime}-{made}", "model", raw, expected))
            made += 1
    for regime in REGIMES:
        made = 0
        while made < SMALL_TABLES_PER_REGIME:
            table = _table(rng)
            if table is None:
                continue
            raw, expected = table
            if expected.regime != regime or not _acceptable(expected):
                continue
            pool.append(Input(f"table-{regime}-{made}", "table", raw, expected))
            made += 1
    order = rng.permutation(len(pool))
    return [pool[i] for i in order]


def _table(rng):
    """Counts of one contingency table, written as CSV with some variety."""
    selector_labels = [str(v) for v in _labels(rng, _SELECTOR_LABELS)]
    outcome_labels = [str(v) for v in _labels(rng, _OUTCOME_LABELS)]
    direct_total = int(rng.integers(500, 200_000))
    first = rng.uniform(0.02, 0.98)
    direct = [int(round(direct_total * first)), 0]
    direct[1] = direct_total - direct[0]
    cells = []
    for _ in range(2):
        row_total = int(rng.integers(200, 100_000))
        share = rng.uniform(0.03, 0.97)
        cell = int(round(row_total * share))
        cells.append([cell, row_total - cell])
    if rng.random() < 0.25:
        cells[int(rng.integers(2))][int(rng.integers(2))] = 0
    if min(direct) == 0 or min(sum(row) for row in cells) == 0:
        return None
    rows = [("direct", "", outcome_labels[o], direct[o]) for o in range(2)]
    rows += [("sequential", selector_labels[a], outcome_labels[o], cells[a][o])
             for a in range(2) for o in range(2)]
    # split some cells into two rows; the reader adds repeated cells up
    split = []
    for row in rows:
        if row[3] > 1 and rng.random() < 0.2:
            part = int(rng.integers(1, row[3]))
            split += [row[:3] + (part,), row[:3] + (row[3] - part,)]
        else:
            split.append(row)
    split = [split[i] for i in rng.permutation(len(split))]
    separator = ", " if rng.random() < 0.3 else ","
    lines = ["experiment,outcome_a,outcome_b,count"]
    for row in split:
        lines.append(separator.join(str(field) for field in row))
        if rng.random() < 0.05:
            lines.append("")
    raw = ("\n".join(lines) + "\n").encode("ascii")
    outcome_order = list(dict.fromkeys(row[2] for row in split))
    direct_counts = {o: 0 for o in outcome_order}
    sequential = {}
    for kind, a, o, count in split:
        if kind == "direct":
            direct_counts[o] += count
        else:
            sequential[(a, o)] = sequential.get((a, o), 0) + count
    ordered = {}
    for a in dict.fromkeys(a for kind, a, _, _ in split if kind == "sequential"):
        for o in outcome_order:
            ordered[(a, o)] = sequential.get((a, o), 0)
    return raw, oracle.table_expectation(direct_counts, ordered)


def _pool_rows_text(rows: np.ndarray) -> list[str]:
    formats = "[" + ", ".join(["%.17g"] * rows.shape[1]) + "]"
    return [formats % tuple(row) for row in rows.tolist()]


def large_dense(seed: int) -> list[Input]:
    """One model per size with a dense kernel whose rows come from a seeded pool.

    Every kernel entry is a full-precision float written with 17 significant
    digits.  Rows are drawn from a pool of DENSE_ROW_POOL distinct rows so
    that writing the JSON stays cheap; the program parses every row anyway.
    """
    rng = np.random.default_rng([seed, 2])
    inputs = []
    for n in DENSE_SIZES:
        selector = rng.integers(0, 2, n)
        outcome = rng.integers(0, 2, n)
        selector[:2], outcome[:2] = (0, 1), (0, 1)
        weights = rng.uniform(0.05, 1.0, n)
        weights = weights / weights.sum()
        pool = rng.uniform(0.05, 1.0, (DENSE_ROW_POOL, n))
        pool = pool / pool.sum(axis=1, keepdims=True)
        rows = rng.integers(0, DENSE_ROW_POOL, n)
        texts = _pool_rows_text(pool)
        doc = {
            "schema": 1,
            "weights": weights.tolist(),
            "variables": {
                "gate": ["open" if v == 0 else "closed" for v in selector],
                "screen": ["up" if v == 0 else "down" for v in outcome],
            },
            "selector": "gate",
            "outcome": "screen",
            "context": list(range(n)),
        }
        head = json.dumps(doc)[:-1]
        kernel_text = ", ".join(texts[i] for i in rows)
        raw = (head + ', "kernel": [' + kernel_text + "]}\n").encode("ascii")
        expected = oracle.document_expectation({**doc, "kernel": pool[rows]})
        inputs.append(Input(f"dense-{n}", "model", raw, expected))
    return inputs


def large_kernel_free(seed: int) -> list[Input]:
    """Kernel-free models, one per size; every other one conditions on part of the space."""
    rng = np.random.default_rng([seed, 3])
    inputs = []
    for index, n in enumerate(KERNEL_FREE_SIZES):
        full = index % 2 == 0
        selector = rng.integers(0, 2, n)
        outcome = rng.integers(0, 2, n)
        selector[:4], outcome[:4] = (0, 0, 1, 1), (0, 1, 0, 1)
        weights = rng.uniform(0.05, 1.0, n)
        weights = weights / weights.sum()
        context = list(range(n)) if full else [
            i for i in range(n) if i < 4 or rng.random() < 0.5
        ]
        doc = {
            "schema": 1,
            "weights": weights.tolist(),
            "variables": {
                "path": ["left" if v == 0 else "right" for v in selector],
                "screen": ["up" if v == 0 else "down" for v in outcome],
            },
            "selector": "path",
            "outcome": "screen",
            "context": context,
        }
        raw = (json.dumps(doc) + "\n").encode("ascii")
        expected = oracle.document_expectation(doc)
        name = f"kernel-free-{n}-{'full' if full else 'part'}"
        inputs.append(Input(name, "model", raw, expected))
    return inputs


@dataclass
class Draw:
    """One sample_frequencies call of the sampling workload."""

    name: str
    variable: str
    seed: int
    n: int
    selector_value: str | None
    exact: dict
    reference: dict | None = None


@dataclass
class SamplingSetup:
    weights: np.ndarray
    values: dict
    context: list
    kernel: np.ndarray
    draws: list


def sampling(seed: int) -> SamplingSetup:
    """A model with a dense kernel and four draws: two undisturbed, two disturbed."""
    rng = np.random.default_rng([seed, 4])
    n = SAMPLING_POINTS
    weights = rng.uniform(0.05, 1.0, n)
    weights = weights / weights.sum()
    values = {
        "gate": ["open" if v == 0 else "closed" for v in rng.integers(0, 2, n)],
        "screen": ["up" if v == 0 else "down" for v in rng.integers(0, 2, n)],
        "detector": [("d0", "d1", "d2")[v] for v in rng.integers(0, 3, n)],
    }
    values["gate"][:2] = ["open", "closed"]
    context = [i for i in range(n) if i < 2 or rng.random() < 0.7]
    kernel = rng.uniform(0.05, 1.0, (n, n))
    kernel = kernel / kernel.sum(axis=1, keepdims=True)
    draws = []
    for variable, selector_value in (("screen", None), ("detector", None),
                                     ("screen", "open"), ("detector", "closed")):
        exact = oracle.measurement_distribution(
            weights, values[variable], context,
            None if selector_value is None else kernel,
            None if selector_value is None else values["gate"], selector_value,
        )
        name = variable + ("" if selector_value is None else f"|gate={selector_value}")
        draws.append(Draw(name, variable, int(rng.integers(0, 2**32)), SAMPLING_DRAWS,
                          selector_value, exact))
    return SamplingSetup(weights, values, context, kernel, draws)
