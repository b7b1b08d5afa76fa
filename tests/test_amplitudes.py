import cmath
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contextprob import (
    ComplexAmplitudeVector,
    ContextualStatistics,
    HyperbolicNumber,
    InterferenceReport,
    InvariantViolation,
    NotDoublyStochastic,
    WrongRegime,
    analyze_interference,
    analyze_model,
    born_residual,
    branch_probabilities,
    exp_j,
    hyperbolic_amplitude,
    load_model,
    selector_basis,
    trigonometric_amplitude,
)
from contextprob.hyperbolic import ONE, UNIT_J, ZERO

from synth import (
    coefficients,
    doubly_stochastic_statistics,
    four_point_model,
    qubit_experiment,
    random_hyperbolic_statistics,
    random_trigonometric_statistics,
)

coordinates = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
numbers = st.builds(HyperbolicNumber, coordinates, coordinates)


def half_half_statistics():
    return ContextualStatistics(
        selector_labels=("left", "right"),
        outcome_labels=("up", "down"),
        selector_marginals=(0.5, 0.5),
        outcome_marginals=(0.75, 0.25),
        transition=[[0.5, 0.5], [0.5, 0.5]],
    )


def lopsided_statistics():
    return ContextualStatistics(
        selector_labels=("left", "right"),
        outcome_labels=("up", "down"),
        selector_marginals=(0.5, 0.5),
        outcome_marginals=(0.95, 0.05),
        transition=[[0.8, 0.2], [0.2, 0.8]],
    )


class TestHyperbolicAlgebra:
    def test_unit_squares_to_plus_one(self):
        assert UNIT_J * UNIT_J == ONE

    def test_zero_divisors_on_the_light_cone(self):
        assert (ONE + UNIT_J) * (ONE - UNIT_J) == ZERO

    def test_string_form(self):
        assert str(HyperbolicNumber(1.5, -2.0)) == "(1.5 - 2.0j)"

    def test_scalar_multiplication_commutes(self):
        z = HyperbolicNumber(0.25, -0.5)
        assert 2 * z == z * 2 == HyperbolicNumber(0.5, -1.0)

    @given(a=numbers, b=numbers)
    @settings(max_examples=200, deadline=None)
    def test_conjugation_is_an_automorphism(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()

    @given(a=numbers)
    @settings(max_examples=100, deadline=None)
    def test_conjugation_is_an_involution(self, a):
        assert a.conjugate().conjugate() == a

    @given(a=numbers)
    @settings(max_examples=100, deadline=None)
    def test_squared_modulus_is_self_times_conjugate(self, a):
        product = a * a.conjugate()
        assert product.x == pytest.approx(a.squared_modulus(), abs=1e-12)
        assert product.y == 0.0

    @given(a=numbers, b=numbers)
    @settings(max_examples=200, deadline=None)
    def test_squared_modulus_is_multiplicative(self, a, b):
        got = (a * b).squared_modulus()
        want = a.squared_modulus() * b.squared_modulus()
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("x", [6.6e155, 1e160, -5e160])
    def test_squared_modulus_survives_overflowing_squares(self, x):
        # x * x - y * y is inf - inf here; the factored form is finite
        assert HyperbolicNumber(x, x).squared_modulus() == 0.0
        y = math.nextafter(x, math.inf)
        got = HyperbolicNumber(x, y).squared_modulus()
        assert math.isfinite(got) and got == (x - y) * (x + y)

    @given(theta=st.floats(-5.0, 5.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_exp_j_lies_on_the_unit_hyperbola(self, theta):
        assert exp_j(theta).squared_modulus() == pytest.approx(1.0, abs=1e-10)

    def test_mixing_with_plain_complex_is_rejected(self):
        with pytest.raises(TypeError):
            ONE + 1j  # type: ignore[operator]


class TestTrigonometricAmplitude:
    def test_half_half_components(self):
        stats = half_half_statistics()
        amplitude = trigonometric_amplitude(analyze_interference(stats))
        first, second = amplitude.components
        # sqrt(1/4) + exp(i*pi/3) * sqrt(1/4) and its 2*pi/3 partner
        assert first == pytest.approx(0.75 + 0.4330127018922193j, abs=1e-12)
        assert second == pytest.approx(0.25 + 0.4330127018922193j, abs=1e-12)
        np.testing.assert_allclose(
            amplitude.born_probabilities(), (0.75, 0.25), atol=1e-12
        )

    def test_random_statistics_satisfy_the_born_rule(self):
        rng = np.random.default_rng(59)
        for _ in range(300):
            stats = random_trigonometric_statistics(rng)
            amplitude = trigonometric_amplitude(analyze_interference(stats))
            assert born_residual(amplitude, stats) <= 1e-10

    def test_rejects_hyperbolic_report(self):
        stats = lopsided_statistics()
        with pytest.raises(WrongRegime):
            trigonometric_amplitude(analyze_interference(stats))

    @pytest.mark.parametrize(
        "build",
        [
            trigonometric_amplitude,
            hyperbolic_amplitude,
            lambda report: selector_basis(half_half_statistics(), report),
        ],
        ids=["trigonometric_amplitude", "hyperbolic_amplitude", "selector_basis"],
    )
    def test_rejects_a_report_without_entries(self, build):
        report = InterferenceReport(entries=())
        assert report.regime == "mixed"
        with pytest.raises(WrongRegime, match=r"^need the \w+ regime, got mixed$"):
            build(report)


class TestHyperbolicAmplitude:
    def test_lopsided_moduli(self):
        stats = lopsided_statistics()
        amplitude = hyperbolic_amplitude(analyze_interference(stats))
        np.testing.assert_allclose(
            amplitude.born_probabilities(), (0.95, 0.05), atol=1e-12
        )
        # second outcome carries the negative sign, so its x-part shrinks
        assert amplitude.components[1].x < amplitude.components[0].x

    def test_random_statistics_satisfy_the_born_rule(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            stats = random_hyperbolic_statistics(rng)
            amplitude = hyperbolic_amplitude(analyze_interference(stats))
            assert born_residual(amplitude, stats) <= 1e-10

    def test_rejects_trigonometric_report(self):
        stats = half_half_statistics()
        with pytest.raises(WrongRegime):
            hyperbolic_amplitude(analyze_interference(stats))


class TestBornResidual:
    def test_zero_vector_residual_is_the_largest_marginal(self):
        stats = half_half_statistics()
        empty = ComplexAmplitudeVector((0j, 0j))
        assert born_residual(empty, stats) == pytest.approx(0.75, abs=1e-15)

    def test_corrupted_component_shows_up(self):
        stats = half_half_statistics()
        amplitude = trigonometric_amplitude(analyze_interference(stats))
        bumped = ComplexAmplitudeVector(
            (amplitude.components[0] + 0.1, amplitude.components[1])
        )
        residual = born_residual(bumped, stats)
        expected = abs(abs(amplitude.components[0] + 0.1) ** 2 - 0.75)
        assert residual == pytest.approx(expected, abs=1e-12)
        assert residual > 0.01

    def test_length_mismatch_is_structural(self):
        stats = half_half_statistics()
        with pytest.raises(InvariantViolation):
            born_residual(ComplexAmplitudeVector((1 + 0j,)), stats)


class TestSelectorBasis:
    def test_half_half_worked_example(self):
        stats = half_half_statistics()
        basis = selector_basis(stats, analyze_interference(stats))
        e1, e2 = basis.vectors
        root_half = math.sqrt(0.5)
        assert e1[0] == pytest.approx(root_half, abs=1e-12)
        assert e1[1] == pytest.approx(root_half, abs=1e-12)
        assert e2[0] == pytest.approx(root_half * cmath.exp(1j * math.pi / 3), abs=1e-12)
        assert e2[1] == pytest.approx(
            root_half * cmath.exp(1j * 4 * math.pi / 3), abs=1e-12
        )
        # independent inner-product check
        inner = e1[0].conjugate() * e2[0] + e1[1].conjugate() * e2[1]
        assert abs(inner) == pytest.approx(basis.orthonormality_defect, abs=1e-15)
        assert basis.orthonormality_defect <= 1e-10

    def test_vectors_have_unit_norm(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            stats = doubly_stochastic_statistics(rng)
            basis = selector_basis(stats, analyze_interference(stats))
            for vector in basis.vectors:
                norm = abs(vector[0]) ** 2 + abs(vector[1]) ** 2
                assert norm == pytest.approx(1.0, abs=1e-12)

    def test_state_expansion_recovers_both_sides(self):
        # psi = sqrt(p1)*e1 + sqrt(p2)*e2 must satisfy the Born rule in the
        # outcome basis and hand back the selector marginals against e1, e2
        rng = np.random.default_rng(71)
        for _ in range(100):
            stats = doubly_stochastic_statistics(rng)
            basis = selector_basis(stats, analyze_interference(stats))
            assert basis.orthonormality_defect <= 1e-8
            e1, e2 = basis.vectors
            weights = np.sqrt(stats.selector_marginals)
            psi = tuple(
                weights[0] * e1[k] + weights[1] * e2[k] for k in range(2)
            )
            for k in range(2):
                assert abs(psi[k]) ** 2 == pytest.approx(
                    float(stats.outcome_marginals[k]), abs=1e-10
                )
            for i, vector in enumerate((e1, e2)):
                overlap = (
                    vector[0].conjugate() * psi[0] + vector[1].conjugate() * psi[1]
                )
                assert abs(overlap) ** 2 == pytest.approx(
                    float(stats.selector_marginals[i]), abs=1e-8
                )

    def test_unbalanced_columns_are_rejected_with_sums(self):
        stats = ContextualStatistics(
            ("left", "right"),
            ("up", "down"),
            (0.5, 0.5),
            (0.6, 0.4),
            [[0.9, 0.1], [0.3, 0.7]],
        )
        report = analyze_interference(stats)
        assert report.regime == "trigonometric"
        with pytest.raises(NotDoublyStochastic) as info:
            selector_basis(stats, report)
        assert info.value.column_sums == pytest.approx((1.2, 0.8), abs=1e-12)
        assert info.value.row_sums == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_rejects_hyperbolic_report(self):
        stats = lopsided_statistics()
        with pytest.raises(WrongRegime):
            selector_basis(stats, analyze_interference(stats))


def _entropy(masses):
    """Shannon entropy in nats; a zero mass adds nothing."""
    return -sum(m * math.log(m) for m in masses if m > 0.0)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_maassen_uffink_bound_holds_and_a_prespace_point_lies_below_it(seed):
    """``H(p) + H(q) >= -ln max_ij t_ij`` (Maassen & Uffink, PRL 60, 1103, 1988).

    A doubly stochastic trigonometric transition is ``|<e_i|f_j>|^2`` for the
    selector basis ``e`` and the outcome basis ``f`` of its representation, so
    the selector and outcome marginals ``p`` and ``q`` obey the bound.  It is
    not asserted for other statistics, which have no such basis.  A prespace
    point fixes both variables, so its entropy sum is 0: below the bound, which
    is positive whenever no ``t_ij`` is 0 or 1.
    """
    stats = doubly_stochastic_statistics(np.random.default_rng(seed))
    assume(analyze_interference(stats).regime == "trigonometric")
    transition = stats.transition.tolist()
    assert all(0.0 < t < 1.0 for row in transition for t in row)
    bound = -math.log(max(max(row) for row in transition))
    assert bound > 0.0  # so the entropy sum 0 of a prespace point lies below it
    p, q = stats.selector_marginals.tolist(), stats.outcome_marginals.tolist()
    assert _entropy(p) + _entropy(q) >= bound


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_qubit_experiment_has_a_prespace_model_that_recovers_its_phases(seed):
    """A Haar-random qubit experiment is trigonometric, and its interference
    coefficients are the quantum cosines, both from its statistics and from
    the four-point prespace model of them.

    Each coefficient is ``(q - b_1 - b_2) / (2 sqrt(b_1 b_2))`` over its two
    branches ``b_i``: the numerator is a difference of numbers no larger than 1,
    each a few roundings from exact, and the division scales its error by
    ``1 / (2 sqrt(b_1 b_2))``.  So the bound is 16 ulps of 1 over
    ``sqrt(b_1 b_2)``; 20 000 draws came to at most 6.
    """
    statistics, cosines = qubit_experiment(np.random.default_rng(seed))
    bounds = [
        16 * sys.float_info.epsilon / math.sqrt(b1 * b2)
        for b1, b2 in branch_probabilities(statistics).T.tolist()
    ]
    report = analyze_model(load_model(json.dumps(four_point_model(statistics))))
    assert analyze_interference(statistics).regime == report.regime == "trigonometric"
    modelled = [entry.coefficient for entry in report.interference.entries]
    for found in (coefficients(statistics), modelled):
        for coefficient, cosine, bound in zip(found, cosines, bounds):
            assert abs(coefficient - cosine) <= bound
