import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextprob import (
    Context,
    DegenerateContext,
    Distribution,
    InvariantViolation,
    Prespace,
    RandomVariable,
    TypeMismatch,
    UnknownValue,
    compression_ratio,
    conditional_distribution,
    context_probability,
    expectation_and_dispersion,
    fiber,
    filter_context,
    pushforward,
    variable_distribution,
)

from synth import random_space


def four_point_space():
    return Prespace(["w1", "w2", "w3", "w4"], [0.1, 0.2, 0.3, 0.4])


class TestTypeInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvariantViolation):
            Prespace(["a", "b"], [0.5, 0.6])

    def test_weights_must_be_non_negative(self):
        with pytest.raises(InvariantViolation):
            Prespace(["a", "b"], [1.5, -0.5])

    def test_at_least_one_point(self):
        with pytest.raises(InvariantViolation):
            Prespace([], [])

    def test_duplicate_point_ids_rejected(self):
        with pytest.raises(InvariantViolation):
            Prespace(["a", "a"], [0.5, 0.5])

    def test_zero_weight_points_are_allowed(self):
        space = Prespace(["a", "b"], [1.0, 0.0])
        assert space.size == 2

    def test_uniform_factory(self):
        space = Prespace.uniform(5)
        np.testing.assert_allclose(space.weights, 0.2)

    @pytest.mark.parametrize(
        "weights, shape", [pytest.param(1.0, "()", id="scalar"), ([[0.5, 0.5]], "(1, 2)")]
    )
    def test_from_weights_needs_a_vector(self, weights, shape):
        with pytest.raises(InvariantViolation, match=re.escape(f"got shape {shape}")):
            Prespace.from_weights(weights)

    def test_context_must_be_non_empty(self):
        with pytest.raises(InvariantViolation):
            Context([])

    def test_context_members_deduplicated_and_sorted(self):
        assert Context([3, 1, 1, 0]).members == (0, 1, 3)
        assert Context(iter([3, 1, 1, 0])).members == (0, 1, 3)

    @pytest.mark.parametrize(
        "members",
        [
            [0.7, 2.9],
            [2.0],
            [True, 2],
            [np.True_],
            np.array([1.5]),
            np.array([True]),
            np.array([[1], [2]]),
            np.array(3),
            np.array([1, True], dtype=object),
            iter([2, True]),
        ],
        ids=[
            "floats",
            "integral-float",
            "bool",
            "numpy-bool",
            "float-array",
            "bool-array",
            "2d-array",
            "0d-array",
            "object-array-with-bool",
            "iterator-with-bool",
        ],
    )
    def test_context_members_must_be_integers(self, members):
        with pytest.raises(InvariantViolation, match="must be integers"):
            Context(members)

    def test_context_accepts_numpy_integers(self):
        members = [np.int64(4), np.uint8(1), *np.array([2, 1], dtype=np.int32)]
        context = Context(members)
        assert context.members == (1, 2, 4)
        assert all(type(i) is int for i in context.members)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16, np.uint64, object])
    def test_context_accepts_integer_arrays(self, dtype):
        context = Context(np.array([5, 0, 5, 2], dtype=dtype))
        assert context.members == (0, 2, 5)
        assert all(type(i) is int for i in context.members)

    def test_context_refuses_bad_arrays_like_lists(self):
        with pytest.raises(InvariantViolation, match="at least one member"):
            Context(np.array([], dtype=np.int64))
        with pytest.raises(InvariantViolation, match="non-negative"):
            Context(np.array([3, -1]))

    def test_distribution_masses_must_normalize(self):
        with pytest.raises(InvariantViolation):
            Distribution(["x", "y"], [0.7, 0.2])

    def test_distribution_rejects_negative_mass(self):
        with pytest.raises(InvariantViolation):
            Distribution(["x", "y"], [1.2, -0.2])

    @pytest.mark.parametrize(
        "masses, message",
        [
            pytest.param([math.nan, 1.0], "{} must be finite", id="nan"),
            pytest.param([math.inf, 0.0], "{} must be finite", id="inf"),
            pytest.param([-math.inf, 1.0], "{} must be finite", id="-inf"),
            pytest.param([math.nan, -1.0], "{} must be finite", id="nan-and-negative"),
            pytest.param([1.2, -0.2], "{} must be non-negative", id="negative"),
            pytest.param(
                [0.7, 0.2],
                "{} must sum to 1 within 1e-12, got 0.8999999999999999",
                id="bad-sum",
            ),
            pytest.param(
                [1e308, 1e308], "{} must sum to 1 within 1e-12, got inf", id="overflowing-sum"
            ),
        ],
    )
    def test_first_failed_check_is_reported(self, masses, message):
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message.format('weights'))}$"):
            Prespace(["a", "b"], masses)
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message.format('masses'))}$"):
            Distribution(["x", "y"], masses)

    def test_empty_distribution_is_rejected(self):
        with pytest.raises(InvariantViolation, match="sum to 1 within 1e-12, got 0.0$"):
            Distribution((), [])

    def test_variable_length_checked_against_space(self):
        space = four_point_space()
        short = RandomVariable("v", ["x", "y"])
        with pytest.raises(InvariantViolation):
            variable_distribution(space, short, Context.full(space))

    def test_alphabet_is_first_appearance_order(self):
        v = RandomVariable("v", ["b", "a", "b", "c"])
        assert v.alphabet == ("b", "a", "c")

    @pytest.mark.parametrize("field", ["name", "values", "alphabet", "codes"])
    def test_variable_fields_cannot_be_assigned(self, field):
        v = RandomVariable("v", ["b", "a", "b"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, field, None)
        assert (v.alphabet, v.codes.tolist()) == (("b", "a"), [0, 1, 0])


class TestContextProbability:
    def test_full_context_has_probability_one(self):
        space = four_point_space()
        assert context_probability(space, Context.full(space)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_two_member_context(self):
        space = four_point_space()
        # w2 + w4 = 0.2 + 0.4
        assert context_probability(space, Context([1, 3])) == pytest.approx(
            0.6, abs=1e-12
        )

    def test_out_of_range_member_is_structural(self):
        space = four_point_space()
        with pytest.raises(InvariantViolation):
            context_probability(space, Context([0, 9]))
        # Members beyond the intp range are out of range, not an overflow.
        for member in (2**63, 2**70):
            with pytest.raises(InvariantViolation, match="out of range"):
                context_probability(space, Context([0, member]))
            with pytest.raises(InvariantViolation, match="out of range"):
                conditional_distribution(space, Context([member]))


class TestConditionalDistribution:
    def test_renormalizes_inside_context(self):
        space = four_point_space()
        dist = conditional_distribution(space, Context([2, 3]))
        np.testing.assert_allclose(dist.masses, [0.0, 0.0, 3 / 7, 4 / 7], atol=1e-15)

    def test_singleton_context_is_point_mass(self):
        space = four_point_space()
        dist = conditional_distribution(space, Context([1]))
        assert dist.masses[1] == 1.0
        assert dist.mass("w2") == 1.0

    def test_zero_weight_context_degenerate(self):
        space = Prespace(["a", "b", "c"], [0.5, 0.5, 0.0])
        with pytest.raises(DegenerateContext):
            conditional_distribution(space, Context([2]))


class TestVariableDistribution:
    def test_pushforward_sums_fibers(self):
        space = four_point_space()
        v = RandomVariable("screen", ["up", "down", "up", "down"])
        dist = variable_distribution(space, v, Context.full(space))
        assert dist.support == ("up", "down")
        np.testing.assert_allclose(dist.masses, [0.4, 0.6], atol=1e-15)

    def test_pushforward_takes_only_a_checked_distribution(self):
        v = RandomVariable("v", ["x", "y", "x"])
        # an unnormalized vector is refused where it would enter
        with pytest.raises(InvariantViolation, match="^masses must sum to 1"):
            pushforward(v, Distribution("abc", [2.0, 3.0, 0.0]))
        dist = pushforward(v, Distribution("abc", [0.25, 0.5, 0.25]))
        assert dist.support == ("x", "y")
        np.testing.assert_array_equal(dist.masses, [0.5, 0.5])
        message = "distribution on 2 points does not match variable 'v' on 3 points"
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            pushforward(v, Distribution("ab", [0.5, 0.5]))

    def test_masses_normalized_on_random_spaces(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            space, selector, outcome, context = random_space(rng)
            for v in (selector, outcome):
                dist = variable_distribution(space, v, context)
                assert np.all(dist.masses >= 0.0)
                assert abs(dist.masses.sum() - 1.0) < 1e-12


class TestExpectationAndDispersion:
    def test_fair_coin_moments(self):
        space = Prespace.uniform(2)
        v = RandomVariable("bit", [0.0, 1.0])
        mean, dispersion = expectation_and_dispersion(space, v, Context.full(space))
        assert mean == pytest.approx(0.5, abs=1e-12)
        assert dispersion == pytest.approx(0.25, abs=1e-12)

    def test_singleton_context_dispersion_free(self):
        space = four_point_space()
        v = RandomVariable("v", [1.5, -2.0, 0.25, 7.0])
        for i in range(space.size):
            mean, dispersion = expectation_and_dispersion(space, v, Context([i]))
            assert mean == v.values[i]
            assert dispersion == 0.0

    def test_constant_variable_has_zero_dispersion(self):
        space = four_point_space()
        v = RandomVariable("v", [3.0, 3.0, 3.0, 3.0])
        _, dispersion = expectation_and_dispersion(space, v, Context.full(space))
        assert dispersion == pytest.approx(0.0, abs=1e-12)

    def test_non_numeric_alphabet_rejected(self):
        space = four_point_space()
        v = RandomVariable("v", ["x", "y", "x", "y"])
        with pytest.raises(TypeMismatch):
            expectation_and_dispersion(space, v, Context.full(space))


class TestFiber:
    def test_fiber_collects_matching_points(self):
        space = four_point_space()
        v = RandomVariable("screen", ["up", "down", "up", "down"])
        assert fiber(space, v, "up").members == (0, 2)

    def test_unknown_value_rejected(self):
        space = four_point_space()
        v = RandomVariable("screen", ["up", "down", "up", "down"])
        with pytest.raises(UnknownValue):
            fiber(space, v, "sideways")

    def test_fibers_partition_the_space(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            space, selector, outcome, _ = random_space(rng)
            for v in (selector, outcome):
                pieces = [fiber(space, v, x).members for x in v.alphabet]
                flat = [i for piece in pieces for i in piece]
                assert sorted(flat) == list(range(space.size))
                assert len(set(flat)) == len(flat)


class TestCompressionRatio:
    def test_two_to_one(self):
        space = four_point_space()
        v = RandomVariable("screen", ["up", "down", "up", "down"])
        assert compression_ratio(space, v) == 2.0

    def test_injective_variable_does_not_compress(self):
        space = four_point_space()
        v = RandomVariable("id", ["a", "b", "c", "d"])
        assert compression_ratio(space, v) == 1.0

    def test_constant_variable_compresses_fully(self):
        space = Prespace.uniform(500)
        v = RandomVariable("const", ["same"] * 500)
        assert compression_ratio(space, v) == 500.0


class TestFilterContext:
    def test_restricts_to_value(self):
        space = four_point_space()
        v = RandomVariable("screen", ["up", "down", "up", "down"])
        assert filter_context(space, Context.full(space), v, "down").members == (1, 3)

    def test_result_equals_the_checked_context(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            space, selector, _, context = random_space(rng)
            for value in selector.alphabet:
                narrowed = filter_context(space, context, selector, value)
                expected = Context(
                    [i for i in context.members if selector.values[i] == value]
                )
                assert narrowed == expected
                assert all(type(i) is int for i in narrowed.members)

    def test_empty_intersection_degenerate(self):
        space = four_point_space()
        v = RandomVariable("screen", ["up", "down", "up", "down"])
        with pytest.raises(DegenerateContext):
            filter_context(space, Context([0, 2]), v, "down")

    def test_zero_weight_intersection_degenerate(self):
        space = Prespace(["a", "b", "c"], [0.5, 0.5, 0.0])
        v = RandomVariable("v", ["x", "x", "y"])
        with pytest.raises(DegenerateContext):
            filter_context(space, Context.full(space), v, "y")


class TestTotalProbabilityLaw:
    """Conditioning alone always satisfies the two-step decomposition."""

    def test_on_random_spaces(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            space, selector, outcome, context = random_space(rng)
            direct = variable_distribution(space, outcome, context)
            selector_dist = variable_distribution(space, selector, context)
            for j, out_value in enumerate(outcome.alphabet):
                combined = 0.0
                for i, sel_value in enumerate(selector.alphabet):
                    weight = float(selector_dist.masses[i])
                    if weight == 0.0:
                        continue
                    narrowed = filter_context(space, context, selector, sel_value)
                    combined += weight * variable_distribution(
                        space, outcome, narrowed
                    ).mass(out_value)
                assert abs(float(direct.masses[j]) - combined) < 1e-12

    @given(
        weights=st.lists(
            st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=8,
        ),
        labels=st.lists(st.integers(0, 2), min_size=2, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_small_spaces(self, weights, labels, data):
        n = min(len(weights), len(labels))
        weights, labels = weights[:n], labels[:n]
        total = sum(weights)
        space = Prespace.from_weights([w / total for w in weights])
        v = RandomVariable("v", labels)
        members = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        )
        context = Context(members)
        direct = variable_distribution(space, v, context)
        selector_dist = variable_distribution(space, v, context)
        # decomposing through the variable itself must reproduce its own law
        for j, value in enumerate(v.alphabet):
            weight = float(selector_dist.masses[j])
            if weight == 0.0:
                continue
            narrowed = filter_context(space, context, v, value)
            inner = variable_distribution(space, v, narrowed)
            assert inner.mass(value) == pytest.approx(1.0, abs=1e-12)
            assert weight == pytest.approx(direct.masses[j], abs=1e-12)
