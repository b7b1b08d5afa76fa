import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contextprob import (
    AnalysisOptions,
    Classification,
    ContextualStatistics,
    InvariantViolation,
    NoPhase,
    analyze_interference,
    analyze_statistics,
    branch_probabilities,
    classify,
    contextual_statistics,
    emit_report,
    load_model,
    load_report,
    phases,
)
from contextprob.interference import _sqrt_product
from contextprob.prespace import _shown

from synth import (
    brute_force_lambdas,
    coefficients,
    random_hyperbolic_statistics,
    random_perturbed_model,
    random_trigonometric_statistics,
)


PERTURBED = Path(__file__).resolve().parent.parent / "example_models" / "perturbed.json"


def half_half_statistics():
    """Even selector split, flat transition, interfering outcome marginals."""
    return ContextualStatistics(
        selector_labels=("left", "right"),
        outcome_labels=("up", "down"),
        selector_marginals=(0.5, 0.5),
        outcome_marginals=(0.75, 0.25),
        transition=[[0.5, 0.5], [0.5, 0.5]],
    )


def lopsided_statistics():
    """Concentrated transition with marginals pushed past the classical range."""
    return ContextualStatistics(
        selector_labels=("left", "right"),
        outcome_labels=("up", "down"),
        selector_marginals=(0.5, 0.5),
        outcome_marginals=(0.95, 0.05),
        transition=[[0.8, 0.2], [0.2, 0.8]],
    )


class TestCoefficients:
    def test_flat_transition_half_quarters(self):
        # oracle: (0.75 - 0.25 - 0.25) / (2*sqrt(0.25*0.25)) = 0.5 exactly
        stats = half_half_statistics()
        assert coefficients(stats) == (0.5, -0.5)
        np.testing.assert_allclose(branch_probabilities(stats), 0.25, atol=1e-15)

    def test_lopsided_case_exceeds_unit_circle(self):
        # oracle: (0.95 - 0.4 - 0.1) / (2*sqrt(0.4*0.1)) = 0.45/0.4 = 1.125
        lam_1, lam_2 = coefficients(lopsided_statistics())
        assert lam_1 == pytest.approx(1.125, abs=1e-12)
        assert lam_2 == pytest.approx(-1.125, abs=1e-12)

    @given(
        st.floats(min_value=0.0, allow_infinity=False),
        st.floats(min_value=0.0, allow_infinity=False),
    )
    @settings(max_examples=500, deadline=None)
    def test_sqrt_product_is_the_plain_root_when_the_product_is_normal(self, a, b):
        assume(sys.float_info.min <= a * b <= sys.float_info.max)
        assert _sqrt_product(a, b) == math.sqrt(a * b)

    def test_sqrt_product_survives_an_underflowing_product(self):
        assert 1e-300 * 1e-300 == 0.0
        assert _sqrt_product(1e-300, 1e-300) == pytest.approx(1e-300, rel=1e-15)

    def test_branches_multiply_marginals_into_transition(self):
        stats = lopsided_statistics()
        branches = branch_probabilities(stats)
        np.testing.assert_allclose(branches, [[0.4, 0.1], [0.1, 0.4]], atol=1e-15)


class TestClassify:
    def test_interior_values(self):
        assert classify(0.5) is Classification.TRIGONOMETRIC
        assert classify(-0.99) is Classification.TRIGONOMETRIC
        assert classify(1.125) is Classification.HYPERBOLIC
        assert classify(-8.0) is Classification.HYPERBOLIC

    def test_boundary_is_trigonometric(self):
        assert classify(1.0) is Classification.TRIGONOMETRIC
        assert classify(-1.0) is Classification.TRIGONOMETRIC

    def test_guard_band_clamps_to_trigonometric(self):
        assert classify(1.0 + 5e-10) is Classification.TRIGONOMETRIC
        assert classify(-(1.0 + 5e-10)) is Classification.TRIGONOMETRIC
        assert classify(1.0 + 5e-9) is Classification.HYPERBOLIC

    def test_non_finite_is_structural(self):
        with pytest.raises(InvariantViolation):
            classify(float("nan"))
        with pytest.raises(InvariantViolation):
            classify(float("inf"))

    @pytest.mark.parametrize(
        "tolerance", [-1.0, math.nan, 10**400], ids=["negative", "nan", "10**400"]
    )
    def test_a_tolerance_it_cannot_use_is_refused(self, tolerance):
        with pytest.raises(
            InvariantViolation, match="classify tolerance must be finite and not negative"
        ):
            classify(0.5, tolerance)

    @pytest.mark.parametrize(
        "tolerance, shown",
        [
            (10**400, f"1{'0' * 17}...{'0' * 19}"),  # 401 digits, shortened
            (-(10**5000), "an integer of 16610 bits"),  # too long for str() at all
        ],
        ids=["10**400", "-10**5000"],
    )
    def test_an_integer_beyond_float_range_is_refused_in_the_one_message(self, tolerance, shown):
        # math.isfinite raises OverflowError on such an integer
        with pytest.raises(InvariantViolation) as info:
            classify(0.5, tolerance)
        assert str(info.value) == f"classify tolerance must be finite and not negative, got {shown}"

    @given(
        coefficient=st.floats(-3.0, 3.0, allow_nan=False),
        nudge=st.floats(-9.9e-10, 9.9e-10),
    )
    @settings(max_examples=200, deadline=None)
    def test_stable_away_from_the_guard_band(self, coefficient, nudge):
        # outside a 2-tolerance neighborhood of |1|, sub-tolerance nudges
        # can never flip the classification
        if abs(abs(coefficient) - 1.0) <= 2e-9:
            return
        assert classify(coefficient) is classify(coefficient + nudge)


class TestPhases:
    def test_arccos_branch(self):
        theta, sign = phases(0.5, Classification.TRIGONOMETRIC)
        assert theta == pytest.approx(math.pi / 3, abs=1e-12)
        assert sign == 1
        theta, _ = phases(-0.5, Classification.TRIGONOMETRIC)
        assert theta == pytest.approx(2 * math.pi / 3, abs=1e-12)

    def test_zero_coefficient_is_quarter_turn(self):
        theta, _ = phases(0.0, Classification.TRIGONOMETRIC)
        assert theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_clamped_band_values(self):
        theta, _ = phases(1.0 + 5e-10, Classification.TRIGONOMETRIC)
        assert theta == 0.0
        theta, _ = phases(-(1.0 + 5e-10), Classification.TRIGONOMETRIC)
        assert theta == pytest.approx(math.pi, abs=1e-12)

    def test_arccosh_branch_with_signs(self):
        # closed form: arccosh(x) = ln(x + sqrt(x^2 - 1))
        expected = math.log(1.125 + math.sqrt(1.125**2 - 1.0))
        theta, sign = phases(1.125, Classification.HYPERBOLIC)
        assert theta == pytest.approx(expected, abs=1e-12)
        assert theta == pytest.approx(0.4949329, abs=1e-6)
        assert sign == 1
        theta, sign = phases(-1.125, Classification.HYPERBOLIC)
        assert theta == pytest.approx(expected, abs=1e-12)
        assert sign == -1

    def test_degenerate_has_no_phase(self):
        with pytest.raises(NoPhase):
            phases(None, Classification.DEGENERATE)

    @pytest.mark.parametrize(
        "coefficient, classification",
        [
            (math.nan, Classification.TRIGONOMETRIC),
            (math.nan, Classification.HYPERBOLIC),
            (math.inf, Classification.HYPERBOLIC),
            (-math.inf, Classification.TRIGONOMETRIC),
            (10**400, Classification.HYPERBOLIC),  # too large for a float
            (-(10**400), Classification.TRIGONOMETRIC),
        ],
    )
    def test_a_coefficient_that_is_not_finite_is_refused(self, coefficient, classification):
        message = f"interference coefficient must be finite, got {_shown(coefficient)}"
        with pytest.raises(InvariantViolation) as info:
            phases(coefficient, classification)
        assert str(info.value) == message
        with pytest.raises(InvariantViolation) as info:
            classify(coefficient)
        assert str(info.value) == message

    @pytest.mark.parametrize("coefficient", [0.5, -0.5, 0.0, math.nextafter(1.0, 0.0)])
    def test_a_hyperbolic_coefficient_below_one_is_refused(self, coefficient):
        with pytest.raises(
            InvariantViolation, match="hyperbolic coefficient must have magnitude at least 1"
        ):
            phases(coefficient, Classification.HYPERBOLIC)

    def test_a_hyperbolic_coefficient_of_magnitude_one_has_phase_zero(self):
        assert phases(1.0, Classification.HYPERBOLIC) == (0.0, 1)
        assert phases(-1.0, Classification.HYPERBOLIC) == (0.0, -1)


class TestReport:
    def test_half_half_report(self):
        report = analyze_interference(half_half_statistics())
        assert report.regime == "trigonometric"
        first, second = report.entries
        assert first.outcome == "up"
        assert first.coefficient == 0.5
        assert first.phase == pytest.approx(math.pi / 3, abs=1e-12)
        assert second.phase == pytest.approx(2 * math.pi / 3, abs=1e-12)

    @pytest.mark.parametrize(
        "tolerance", [-0.5, -1e-9, -math.inf, math.inf, math.nan]
    )
    def test_negative_or_non_finite_tolerance_is_refused(self, tolerance):
        with pytest.raises(InvariantViolation, match="classify tolerance"):
            analyze_interference(half_half_statistics(), tolerance)

    def test_negative_tolerance_is_refused_before_a_phase_is_taken(self):
        # the coefficient 0.8 is hyperbolic under a tolerance of -0.5, and
        # its phase would be math.acosh(0.8), a math domain error
        stats = ContextualStatistics(
            ("a", "b"), ("x", "y"), (0.5, 0.5), (0.9, 0.1), [[0.5, 0.5], [0.5, 0.5]]
        )
        options = AnalysisOptions(classify_tolerance=-0.5)
        with pytest.raises(InvariantViolation, match="not negative, got -0.5"):
            analyze_statistics(stats, options)

    def test_an_integer_beyond_float_range_is_refused_by_the_analysis(self):
        options = AnalysisOptions(classify_tolerance=10**400)
        with pytest.raises(
            InvariantViolation, match="^classify tolerance must be finite and not negative, got 1000"
        ):
            analyze_statistics(half_half_statistics(), options)

    @pytest.mark.parametrize("tolerance", [0, 0.0, -0.0, 0.25])
    def test_zero_or_positive_tolerance_is_kept(self, tolerance):
        report = analyze_interference(half_half_statistics(), tolerance)
        assert report.classify_tolerance == tolerance

    def test_lopsided_report_is_hyperbolic(self):
        report = analyze_interference(lopsided_statistics())
        assert report.regime == "hyperbolic"
        assert [e.sign for e in report.entries] == [1, -1]

    def test_degenerate_entry_is_first_class(self):
        stats = ContextualStatistics(
            ("left", "right"),
            ("up", "down"),
            (0.5, 0.5),
            (0.6, 0.4),
            [[1.0, 0.0], [0.3, 0.7]],
        )
        report = analyze_interference(stats)
        assert report.regime == "degenerate"
        down = report.entries[1]
        assert down.classification is Classification.DEGENERATE
        assert down.coefficient is None and down.phase is None and down.sign is None
        up = report.entries[0]
        assert up.classification is not Classification.DEGENERATE

    def test_branches_too_small_for_a_finite_coefficient_are_degenerate(self):
        # both "up" branches are about 1e-310, so the gap over their
        # geometric mean overflows to inf, which classify refuses
        stats = ContextualStatistics(
            ("left", "right"),
            ("up", "down"),
            (2e-310, 1.0),
            (0.5, 0.5),
            [[0.5, 0.5], [1e-310, 1.0]],
        )
        report = analyze_interference(stats)
        up, down = report.entries
        assert up.classification is Classification.DEGENERATE
        assert up.coefficient is None and up.phase is None and up.sign is None
        assert down.classification is Classification.HYPERBOLIC
        assert report.regime == "degenerate"

    def test_mixed_regime_is_reported_not_raised(self):
        # one branch pair much smaller than the other makes the second
        # coefficient overshoot while the first stays classical
        stats = ContextualStatistics(
            ("left", "right"),
            ("up", "down"),
            (0.5, 0.5),
            (0.9683281572999748, 0.03167184270002523),
            [[0.9, 0.1], [0.5, 0.5]],
        )
        report = analyze_interference(stats)
        kinds = [e.classification for e in report.entries]
        assert kinds == [Classification.TRIGONOMETRIC, Classification.HYPERBOLIC]
        assert report.regime == "mixed"

    def test_reconstruction_round_trip(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            stats = random_trigonometric_statistics(rng)
            for entry in analyze_interference(stats).entries:
                assert abs(entry.reconstructed() - entry.observed) < 1e-10
        for _ in range(200):
            stats = random_hyperbolic_statistics(rng)
            for entry in analyze_interference(stats).entries:
                assert abs(entry.reconstructed() - entry.observed) < 1e-10


class TestNormalizationIdentity:
    """sqrt(b11*b21)*lam_1 + sqrt(b12*b22)*lam_2 always cancels."""

    @staticmethod
    def identity_gap(stats):
        lam_1, lam_2 = coefficients(stats)
        branches = branch_probabilities(stats)
        return abs(
            math.sqrt(branches[0, 0] * branches[1, 0]) * lam_1
            + math.sqrt(branches[0, 1] * branches[1, 1]) * lam_2
        )

    def test_on_worked_examples(self):
        assert self.identity_gap(half_half_statistics()) < 1e-10
        assert self.identity_gap(lopsided_statistics()) < 1e-10

    def test_on_random_statistics(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            assert self.identity_gap(random_trigonometric_statistics(rng)) < 1e-10
            assert self.identity_gap(random_hyperbolic_statistics(rng)) < 1e-10


class TestAgainstBruteForce:
    def test_identity_kernel_lambdas_vanish(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            _, _, _, _, _, stats = random_perturbed_model(rng, identity=True)
            lam_1, lam_2 = coefficients(stats)
            assert abs(lam_1) < 1e-12 and abs(lam_2) < 1e-12

    def test_pipeline_matches_enumeration(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            space, selector, outcome, context, kernel, stats = random_perturbed_model(
                rng
            )
            expected = brute_force_lambdas(space, context, selector, outcome, kernel)
            lam_1, lam_2 = coefficients(stats)
            assert lam_1 == pytest.approx(expected[0], abs=1e-12)
            assert lam_2 == pytest.approx(expected[1], abs=1e-12)


class TestOneToleranceRule:
    """``classify``, a model's ``options`` and a report's ``interference`` share one rule."""

    PATHS = {
        "classify": None,
        "model": "options.classify_tolerance",
        "report": "interference.classify_tolerance",
    }

    @staticmethod
    def use(entry, tolerance):
        if entry == "classify":
            return classify(0.5, tolerance)
        if entry == "model":
            doc = json.loads(PERTURBED.read_text())
            doc["options"]["classify_tolerance"] = tolerance
            return load_model(json.dumps(doc))  # json writes NaN and Infinity
        doc = json.loads(emit_report(analyze_statistics(half_half_statistics())))
        doc["interference"]["classify_tolerance"] = tolerance
        return load_report(json.dumps(doc))

    @pytest.mark.parametrize("entry", sorted(PATHS))
    @pytest.mark.parametrize("tolerance", [0, 0.0, 1e-9, 0.25])
    def test_zero_or_more_is_accepted(self, entry, tolerance):
        self.use(entry, tolerance)

    @pytest.mark.parametrize("entry", sorted(PATHS))
    @pytest.mark.parametrize("tolerance", [-1e-9, -math.inf, math.inf, math.nan])
    def test_negative_or_not_finite_is_refused_in_one_message(self, entry, tolerance):
        with pytest.raises(InvariantViolation) as info:
            self.use(entry, tolerance)
        path = self.PATHS[entry]
        assert info.value.path == path
        assert str(info.value) == "".join([
            "" if path is None else f"{path}: ",
            f"classify tolerance must be finite and not negative, got {tolerance!r}",
        ])

    @pytest.mark.parametrize("entry", ["model", "report"])
    def test_a_negative_integer_in_a_document_is_named_as_its_float(self, entry):
        with pytest.raises(InvariantViolation) as info:
            self.use(entry, -1)
        assert str(info.value) == (
            f"{self.PATHS[entry]}: classify tolerance must be finite and not negative, got -1.0"
        )

    @pytest.mark.parametrize("entry", ["model", "report"])
    @pytest.mark.parametrize(
        "tolerance, message",
        [
            (True, "expected a number, got True"),
            ("1e-9", "expected a number, got '1e-9'"),
            (None, "expected a number, got None"),
            ([1e-9], f"expected a number, got {[1e-9]!r}"),
            (10**400, "number is too large for a float"),
        ],
        ids=["true", "string", "null", "list", "10**400"],
    )
    def test_a_document_value_that_is_not_a_number_is_refused_at_its_path(
        self, entry, tolerance, message
    ):
        with pytest.raises(InvariantViolation) as info:
            self.use(entry, tolerance)
        assert str(info.value) == f"{self.PATHS[entry]}: {message}"
