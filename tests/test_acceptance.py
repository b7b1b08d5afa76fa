"""Acceptance gate: ten product-level checks with contractual tolerances.

Each check prints one ``ACCEPTANCE <n> PASS/FAIL: <label>`` line (visible
with ``pytest -s``) and fails loudly otherwise.  Statistics pools are cached
so the normalization-identity check runs over exactly the populations the
earlier checks generated.
"""

import functools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from contextprob import (
    Context,
    ContextualStatistics,
    NotDoublyStochastic,
    PerturbationKernel,
    Prespace,
    RandomVariable,
    analyze_interference,
    born_residual,
    canonical_json,
    expectation_and_dispersion,
    branch_probabilities,
    hyperbolic_amplitude,
    is_contextually_sensitive,
    measurement_distribution,
    sample_frequencies,
    selector_basis,
    trigonometric_amplitude,
)
from contextprob.interference import Classification

from synth import (
    brute_force_lambdas,
    coefficients,
    doubly_stochastic_statistics,
    random_hyperbolic_statistics,
    random_perturbed_model,
    random_space,
    random_trigonometric_statistics,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "example_models"
GOLDEN = EXAMPLES / "golden"


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} FAIL: {label}")
                raise
            print(f"\nACCEPTANCE {number} PASS: {label}")
            return result

        return run

    return wrap


@functools.lru_cache(maxsize=None)
def identity_statistics_pool():
    rng = np.random.default_rng(101)
    return tuple(
        random_perturbed_model(rng, max_points=32, identity=True)[5]
        for _ in range(200)
    )


@functools.lru_cache(maxsize=None)
def trigonometric_pool():
    rng = np.random.default_rng(102)
    return tuple(random_trigonometric_statistics(rng) for _ in range(1000))


@functools.lru_cache(maxsize=None)
def hyperbolic_pool():
    rng = np.random.default_rng(103)
    return tuple(random_hyperbolic_statistics(rng) for _ in range(1000))


@criterion(1, "identity kernel leaves no interference")
def test_criterion_01_classical_limit():
    started = time.perf_counter()
    for stats in identity_statistics_pool():
        lam_1, lam_2 = coefficients(stats)
        assert abs(lam_1) <= 1e-12 and abs(lam_2) <= 1e-12
        assert not is_contextually_sensitive(stats)
    assert time.perf_counter() - started < 5.0


@criterion(2, "trigonometric reconstruction and Born rule")
def test_criterion_02_trigonometric_identity():
    started = time.perf_counter()
    for stats in trigonometric_pool():
        report = analyze_interference(stats)
        assert report.regime == "trigonometric"
        for entry in report.entries:
            assert abs(entry.reconstructed() - entry.observed) <= 1e-10
        amplitude = trigonometric_amplitude(report)
        assert born_residual(amplitude, stats) <= 1e-10
    assert time.perf_counter() - started < 5.0


@criterion(3, "hyperbolic reconstruction and Born rule")
def test_criterion_03_hyperbolic_identity():
    started = time.perf_counter()
    for stats in hyperbolic_pool():
        report = analyze_interference(stats)
        assert report.regime == "hyperbolic"
        for entry in report.entries:
            assert abs(entry.reconstructed() - entry.observed) <= 1e-10
        amplitude = hyperbolic_amplitude(report)
        assert born_residual(amplitude, stats) <= 1e-10
    assert time.perf_counter() - started < 5.0


@criterion(4, "normalization identity across all generated statistics")
def test_criterion_04_normalization_identity():
    pools = identity_statistics_pool() + trigonometric_pool() + hyperbolic_pool()
    for stats in pools:
        lam_1, lam_2 = coefficients(stats)
        branches = branch_probabilities(stats)
        gap = abs(
            math.sqrt(branches[0, 0] * branches[1, 0]) * lam_1
            + math.sqrt(branches[0, 1] * branches[1, 1]) * lam_2
        )
        assert gap <= 1e-10


@criterion(5, "worked hyperbolic case")
def test_criterion_05_worked_hyperbolic_case():
    stats = ContextualStatistics(
        selector_labels=("left", "right"),
        outcome_labels=("up", "down"),
        selector_marginals=(0.5, 0.5),
        outcome_marginals=(0.95, 0.05),
        transition=[[0.8, 0.2], [0.2, 0.8]],
    )
    lam_1, lam_2 = coefficients(stats)
    assert lam_1 == pytest.approx(1.125, abs=1e-12)
    assert lam_2 == pytest.approx(-1.125, abs=1e-12)
    report = analyze_interference(stats)
    assert report.regime == "hyperbolic"
    closed_form = math.log(1.125 + math.sqrt(1.125**2 - 1.0))
    for entry in report.entries:
        assert entry.phase == pytest.approx(0.4949329, abs=1e-6)
        assert entry.phase == pytest.approx(closed_form, abs=1e-12)
    assert [entry.sign for entry in report.entries] == [1, -1]


@criterion(6, "pipeline equals exhaustive point-pair enumeration")
def test_criterion_06_brute_force_equivalence():
    rng = np.random.default_rng(104)
    for _ in range(100):
        space, selector, outcome, context, kernel, stats = random_perturbed_model(
            rng, max_points=16
        )
        expected = brute_force_lambdas(space, context, selector, outcome, kernel)
        lam_1, lam_2 = coefficients(stats)
        assert lam_1 == pytest.approx(expected[0], abs=1e-12)
        assert lam_2 == pytest.approx(expected[1], abs=1e-12)


@criterion(7, "singleton contexts are dispersion-free")
def test_criterion_07_dispersion_free_states():
    rng = np.random.default_rng(105)
    for _ in range(100):
        space, selector, outcome, _ = random_space(rng, numeric=True)
        for i in range(space.size):
            singleton = Context([i])
            dispersions = [
                expectation_and_dispersion(space, variable, singleton)[1]
                for variable in (selector, outcome)
            ]
            assert dispersions[0] == 0.0
            assert dispersions[1] == 0.0
            assert dispersions[0] * dispersions[1] == 0.0


@criterion(8, "sampled frequencies converge and are seed-stable")
def test_criterion_08_frequency_convergence():
    n = 100_000
    space = Prespace(
        ["left-up", "left-down", "right-up", "right-down"],
        [0.1, 0.2, 0.3, 0.4],
    )
    screen = RandomVariable("screen", ["up", "down", "up", "down"])
    full = Context.full(space)

    two_point = Prespace.uniform(2)
    gate = RandomVariable("gate", ["open", "closed"])
    detector = RandomVariable("detector", ["hit", "miss"])
    kernel = PerturbationKernel([[0.9, 0.1], [0.3, 0.7]])

    scenarios = [
        dict(space=space, context=full, variable=screen),
        dict(
            space=two_point,
            context=Context.full(two_point),
            variable=detector,
            kernel=kernel,
            selector=gate,
            selector_value="open",
        ),
    ]
    for scenario in scenarios:
        exact = measurement_distribution(**scenario).masses
        passed = 0
        for seed in range(100):
            table = sample_frequencies(n=n, seed=seed, **scenario)
            gaps = np.abs(table.frequencies - exact)
            bounds = 5.0 * np.sqrt(exact * (1.0 - exact) / n) + 1e-6
            passed += bool(np.all(gaps <= bounds))
        assert passed >= 99

        for seed in (0, 17):
            first = sample_frequencies(n=n, seed=seed, **scenario)
            second = sample_frequencies(n=n, seed=seed, **scenario)
            assert np.array_equal(first.counts, second.counts)
            as_bytes = [
                canonical_json(
                    {"support": list(t.support), "counts": t.counts.tolist()}
                ).encode("ascii")
                for t in (first, second)
            ]
            assert as_bytes[0] == as_bytes[1]


@criterion(9, "selector basis: orthonormality, recovery, diagnostics")
def test_criterion_09_selector_basis():
    rng = np.random.default_rng(106)
    for _ in range(100):
        stats = doubly_stochastic_statistics(rng)
        report = analyze_interference(stats)
        assert report.regime == "trigonometric"
        basis = selector_basis(stats, report)
        assert basis.orthonormality_defect <= 1e-8
        e1, e2 = basis.vectors
        weights = np.sqrt(stats.selector_marginals)
        psi = tuple(weights[0] * e1[k] + weights[1] * e2[k] for k in range(2))
        for i, vector in enumerate((e1, e2)):
            overlap = vector[0].conjugate() * psi[0] + vector[1].conjugate() * psi[1]
            gap = abs(abs(overlap) ** 2 - float(stats.selector_marginals[i]))
            assert gap <= 1e-8

    lopsided = ContextualStatistics(
        ("left", "right"),
        ("up", "down"),
        (0.5, 0.5),
        (0.6, 0.4),
        [[0.9, 0.1], [0.3, 0.7]],
    )
    with pytest.raises(NotDoublyStochastic) as info:
        selector_basis(lopsided, analyze_interference(lopsided))
    assert info.value.column_sums == pytest.approx((1.2, 0.8), abs=1e-12)


@criterion(10, "CLI golden bytes and contingency worked example")
def test_criterion_10_cli_end_to_end():
    jobs = [
        (["--model", str(EXAMPLES / "hyperbolic.json")], "hyperbolic.report.json"),
        (
            ["--table", str(EXAMPLES / "interference_table.csv")],
            "interference_table.report.json",
        ),
    ]
    for source, golden_name in jobs:
        golden = (GOLDEN / golden_name).read_bytes()
        outputs = []
        for threads in ("1", "1", "4"):
            env = dict(os.environ, OMP_NUM_THREADS=threads)
            result = subprocess.run(
                [sys.executable, "-m", "contextprob", "analyze", *source],
                capture_output=True,
                env=env,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1] == outputs[2] == golden

    table_report = json.loads(
        (GOLDEN / "interference_table.report.json").read_bytes()
    )
    entries = table_report["interference"]["entries"]
    coefficients = [entry["coefficient"] for entry in entries]
    assert coefficients[0] == pytest.approx(0.5, abs=1e-12)
    assert coefficients[1] == pytest.approx(-0.5, abs=1e-12)
    assert entries[0]["phase"] == pytest.approx(math.pi / 3, abs=1e-12)
    assert entries[1]["phase"] == pytest.approx(2 * math.pi / 3, abs=1e-12)
    kinds = [entry["classification"] for entry in entries]
    assert kinds == [
        Classification.TRIGONOMETRIC.value,
        Classification.TRIGONOMETRIC.value,
    ]
