import copy
import dataclasses
import math
import numbers
import pickle
import re
import reprlib
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextprob import (
    Context,
    ContextualStatistics,
    DegenerateContext,
    Distribution,
    FrequencyTable,
    InvariantViolation,
    PerturbationKernel,
    Prespace,
    RandomVariable,
    TypeMismatch,
    UnknownValue,
    conditional_distribution,
    context_probability,
    expectation_and_dispersion,
    fiber,
    filter_context,
    pushforward,
    variable_distribution,
)

from contextprob.prespace import WEIGHT_TOLERANCE, _check_normalized

from synth import random_space


INTP_MAX = int(np.iinfo(np.intp).max)


def four_point_space():
    return Prespace(["w1", "w2", "w3", "w4"], [0.1, 0.2, 0.3, 0.4])


class TestTypeInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvariantViolation):
            Prespace(["a", "b"], [0.5, 0.6])

    def test_weights_must_be_non_negative(self):
        with pytest.raises(InvariantViolation):
            Prespace(["a", "b"], [1.5, -0.5])

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(lambda: Prespace([], []), "a prespace needs at least one point", id="prespace"),
            pytest.param(
                lambda: RandomVariable("v", []), "variable 'v' needs at least one value", id="variable"
            ),
        ],
    )
    def test_at_least_one_point(self, build, message):
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            build()

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
        "build",
        [
            pytest.param(Prespace.from_weights, id="from_weights"),
            pytest.param(lambda masses: Distribution(["x", "y"], masses), id="Distribution"),
        ],
    )
    @pytest.mark.parametrize(
        "weights, shape", [pytest.param(1.0, "()", id="scalar"), ([[0.5, 0.5]], "(1, 2)")]
    )
    def test_from_weights_needs_a_vector(self, build, weights, shape):
        with pytest.raises(InvariantViolation, match=re.escape(f"got shape {shape}")):
            build(weights)

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

    @pytest.mark.parametrize(
        "members", [[2**63], [0, 2**70], np.array([2**63], dtype=np.uint64)]
    )
    def test_context_beyond_intp_is_refused_at_construction(self, members):
        with pytest.raises(InvariantViolation, match="out of range"):
            Context(members)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_context_holds_sorted_unique_intp_indices(self, data):
        dtype = data.draw(
            st.sampled_from([None, np.int8, np.int64, np.uint16, np.uint64, object])
        )
        top = INTP_MAX if dtype in (None, object) else min(np.iinfo(dtype).max, INTP_MAX)
        ints = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=12))
        ints += data.draw(st.lists(st.sampled_from(ints), max_size=6))  # duplicates
        if dtype is None:
            members = data.draw(st.sampled_from([list, tuple, iter]))(ints)
        else:
            members = np.array(ints, dtype=dtype)
        context = Context(members)
        assert context.members == tuple(sorted(set(ints)))
        assert all(type(i) is int for i in context.members)
        assert context.indices.dtype == np.intp
        assert not context.indices.flags.writeable
        same = Context(sorted(set(ints)))
        assert context == same and hash(context) == hash(same)

    def test_contexts_with_other_members_differ(self):
        assert Context([0, 1]) != Context([0, 2])
        assert Context([0, 1]) != Context([0])
        assert Context([0]) != (0,)

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


def _stored_values():
    """One value of each class whose fields ``_set`` stores."""
    return [
        four_point_space(),
        pytest.param(Prespace.uniform(3), id="Prespace-auto-named"),
        RandomVariable("v", ["b", "a", "b"]),
        Context([3, 1, 2]),
        Distribution(["x", "y"], [0.25, 0.75]),
        PerturbationKernel.identity(3),
        ContextualStatistics(
            ("s1", "s2"), ("o1", "o2"), [0.5, 0.5], [0.25, 0.75], [[0.5, 0.5], [0.0, 1.0]]
        ),
        FrequencyTable("ab", [6, 1], 7, 0),
    ]


COPIES = {"pickle": lambda value: pickle.loads(pickle.dumps(value)), "deepcopy": copy.deepcopy}


class TestCopies:
    @pytest.mark.parametrize("how", sorted(COPIES))
    @pytest.mark.parametrize(
        "value", _stored_values(), ids=lambda value: type(value).__name__
    )
    def test_a_copy_holds_equal_read_only_arrays(self, value, how):
        copied = COPIES[how](value)
        assert vars(copied).keys() == vars(value).keys()
        arrays = [name for name, field in vars(value).items() if isinstance(field, np.ndarray)]
        assert arrays
        for name in arrays:
            array = getattr(copied, name)
            assert not array.flags.writeable, name
            assert array.dtype == getattr(value, name).dtype
            np.testing.assert_array_equal(array, getattr(value, name))

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_a_copied_context_equals_its_original(self, how):
        context = Context([3, 1, 2])
        copied = COPIES[how](context)
        assert copied == context and hash(copied) == hash(context)
        with pytest.raises(ValueError, match="read-only"):
            copied.indices[0] = 5

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_a_copied_auto_named_space_keeps_its_names(self, how):
        copied = COPIES[how](Prespace.uniform(3))
        assert copied.points == ("p1", "p2", "p3") and copied.size == 3
        assert type(copied.points) is type(Prespace.uniform(3).points)


def _names(n):
    return tuple(f"p{k}" for k in range(1, n + 1))


def _near_names(n):
    """Values that look like, or are, the names of ``n`` points."""
    return ["p0", "p01", "p001", "P1", "p", "", "p-1", "p+1", "p1_0", " p1", "p1 ", "p١",
            "p¹", f"p{n}", f"p0{n}", f"p{n + 1}", "p1" + "0" * 5000, 1, 1.0, None, ("p1",)]


class TestAutoNames:
    @given(st.integers(1, 300), st.data())
    @settings(max_examples=80, deadline=None)
    def test_behaves_like_the_tuple_of_names(self, n, data):
        names, expected = Prespace.uniform(n).points, _names(n)
        assert names == expected and expected == names
        assert not names != expected and not expected != names
        assert names != expected + ("x",) and names != expected[:-1] + ("x",)
        assert names != list(expected) and expected[:-1] + ("x",) != names
        assert hash(names) == hash(expected)
        assert len(names) == n and tuple(names) == expected
        assert list(reversed(names)) == list(reversed(expected))
        i = data.draw(st.integers(-n, n - 1), label="i")
        assert names[i] == expected[i]
        for outside in (n, -n - 1):
            with pytest.raises(IndexError):
                names[outside]
        bound = st.none() | st.integers(-n - 2, n + 2)
        step = st.none() | st.integers(-3, 3).filter(bool)
        cut = slice(data.draw(bound), data.draw(bound), data.draw(step))
        assert names[cut] == expected[cut]
        start, stop = data.draw(bound.filter(lambda b: b is not None)), data.draw(bound)
        stop = sys.maxsize if stop is None else stop
        drawn = data.draw(st.sampled_from(expected) | st.text("p0123456789", max_size=4))
        for value in [drawn, *_near_names(n)]:
            assert (value in names) == (value in expected)
            assert names.count(value) == expected.count(value)
            for args in ((), (start,), (start, stop)):
                try:
                    position = expected.index(value, *args)
                except ValueError:
                    with pytest.raises(ValueError):
                        names.index(value, *args)
                else:
                    assert names.index(value, *args) == position

    def test_only_explicit_points_are_stored_as_a_tuple(self):
        assert type(Prespace(["a", "b"], [0.5, 0.5]).points) is tuple
        for space in (Prespace.uniform(2), Prespace.from_weights([0.5, 0.5])):
            assert type(space.points) is not tuple and space.points == ("p1", "p2")

    def test_point_distributions_carry_the_names(self):
        space = Prespace.uniform(12)
        distribution = conditional_distribution(space, Context([6, 8]))
        assert distribution.support is space.points
        assert distribution.mass("p7") == 0.5 and distribution.mass("p1") == 0.0
        for value in ("p0", "p01", "P1", 1, "p13"):
            with pytest.raises(UnknownValue, match="is not in the support$"):
                distribution.mass(value)

    def test_from_weights_messages(self):
        with pytest.raises(InvariantViolation, match=r"^expected 1 weights, got shape \(\)$"):
            Prespace.from_weights(1.0)
        with pytest.raises(InvariantViolation, match="^a prespace needs at least one point$"):
            Prespace.from_weights([])
        with pytest.raises(InvariantViolation, match="^weights must sum to 1 within 1e-12, got 0.9$"):
            Prespace.from_weights([0.5, 0.4])


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

    def test_unhashable_value_is_unknown(self):
        space = four_point_space()
        v = RandomVariable("screen", ["up", "down", "up", "down"])
        with pytest.raises(UnknownValue):
            v.value_index([1])
        with pytest.raises(UnknownValue):
            filter_context(space, Context.full(space), v, [1])

    def test_a_value_must_compare_as_one_bool(self):
        # an array compares element-wise, so np.array([2]) == 2 is array([True])
        space = Prespace.uniform(3)
        v = RandomVariable("v", [1, 2, 1])
        assert v.value_index(np.int64(2)) == 1
        for lookup in (
            v.value_index,
            lambda value: fiber(space, v, value),
            lambda value: filter_context(space, Context.full(space), v, value),
        ):
            with pytest.raises(UnknownValue, match=r"^array\(\[2\]\) is not a value of variable 'v'$"):
                lookup(np.array([2]))
        distribution = Distribution([1, 2], [0.25, 0.75])
        assert distribution.mass(np.int64(2)) == 0.75
        with pytest.raises(UnknownValue, match=r"^array\(\[2\]\) is not in the support$"):
            distribution.mass(np.array([2]))

    def test_an_array_nested_in_a_value_is_unknown(self):
        # the tuples compare entry by entry, and 2 == np.array([2]) is truthy
        v = RandomVariable("v", [(1, 2), (3, 4)])
        assert v.value_index((3, np.int64(4))) == 1
        with pytest.raises(UnknownValue, match=r"is not a value of variable 'v'$"):
            v.value_index((1, np.array([2])))
        distribution = Distribution([(1, 2), (3, 4)], [0.25, 0.75])
        with pytest.raises(UnknownValue, match=r"is not in the support$"):
            distribution.mass((3, np.array([4])))

    def test_a_huge_unknown_value_is_shown_shortened(self):
        v = RandomVariable("v", [1, 2, 1])
        with pytest.raises(UnknownValue) as info:
            v.value_index(tuple(range(100_000)))
        assert str(info.value) == "(0, 1, 2, 3, 4, 5, ...) is not a value of variable 'v'"

    def test_fibers_partition_the_space(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            space, selector, outcome, _ = random_space(rng)
            for v in (selector, outcome):
                pieces = [fiber(space, v, x).members for x in v.alphabet]
                flat = [i for piece in pieces for i in piece]
                assert sorted(flat) == list(range(space.size))
                assert len(set(flat)) == len(flat)


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


_ODD_ENTRIES = [
    1.0 + 1e-13,
    1.0 - 1e-13,
    -0.0,
    5e-324,  # the smallest subnormal
    2.2250738585072014e-308,  # the smallest normal
    math.nan,
    math.inf,
    -math.inf,
    -5e-324,
    1e308,  # two of them overflow a sum
    sys.float_info.max,
]


@st.composite
def _vectors(draw):
    """Vectors near and far from normalized, some with odd entries."""
    entries = draw(st.lists(st.floats(0.0, 1.0), max_size=9))
    if entries and draw(st.booleans()):
        total = math.fsum(entries)
        if total > 0.0:
            entries = (np.array(entries) / total).tolist()
    for _ in range(draw(st.integers(0, 3)) if entries else 0):
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(_ODD_ENTRIES))
    return np.array(entries, dtype=float)


def _verdict(check):
    try:
        check()
    except InvariantViolation as exc:
        return exc.path, str(exc)
    return None


@settings(max_examples=1000, deadline=None)
@given(vector=_vectors(), tolerance=st.sampled_from([WEIGHT_TOLERANCE, 1e-10, 0.0, 0.5]))
def test_a_vector_is_judged_as_a_one_row_matrix(vector, tolerance):
    """The early return for a vector accepts exactly what the full check accepts.

    A one-row matrix always takes the full check, which names its row; the
    vector's refusal is the same one, naming the noun instead.
    """
    vector.setflags(write=False)
    found = _verdict(lambda: _check_normalized(vector, "weights", tolerance))
    full = _verdict(lambda: _check_normalized(vector[np.newaxis], "weights", tolerance))
    if full is None:
        assert found is None
    else:
        path, message = full
        assert path == "weights.row[0]"
        assert found == (None, message.replace("weights.row[0]: row", "weights", 1))


# Converters that write one entry of a nested row as another type of the same
# value; only the real-number types among them are taken.
_SAME_VALUE_AS = [
    float,
    np.float32,
    np.longdouble,
    Fraction,
    Decimal,
    str,
    np.array,
    np.bool_,
    bool,
    lambda value: None,
    lambda value: int(value) if type(value) is float and value.is_integer() else value,
]

_STOCHASTIC_ROWS = [
    [[0.25, 0.75], [0.5, 0.5]],
    [[1.0, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.375, 0.625]],
    [[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.125, 0.375, 0.5]],
]


def _whole_rule(rows, noun):
    """Nested rows judged by the type of every entry, as a library caller's always
    are: the float array, or the message of the refusal."""
    try:
        nested = np.array(rows, dtype=object)
        if all(
            issubclass(t, numbers.Real) and not issubclass(t, (bool, np.bool_))
            for t in set(map(type, nested.flat))
        ):
            return nested.astype(float)
    except (ValueError, OverflowError):
        pass
    return f"{noun} must be real numbers, got {reprlib.repr(rows)}"


@settings(max_examples=300, deadline=None)
@given(
    rows=st.sampled_from(_STOCHASTIC_ROWS),
    cells=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from(_SAME_VALUE_AS)),
        max_size=2,
    ),
)
def test_nested_rows_are_judged_by_the_type_of_every_entry(rows, cells):
    base, rows = rows, [list(row) for row in rows]
    for i, j, convert in cells:
        if i < len(rows) and j < len(rows):
            rows[i][j] = convert(base[i][j])
    builds = [(lambda r: PerturbationKernel(r).matrix, "kernel")]
    if len(rows) == 2:
        builds.append(
            (lambda r: ContextualStatistics("ab", "xy", [0.5, 0.5], [0.5, 0.5], r).transition, "transition")
        )
    for build, noun in builds:
        expected = _whole_rule(rows, noun)
        if isinstance(expected, str):
            with pytest.raises(InvariantViolation) as info:
                build(rows)
            assert (info.value.path, str(info.value)) == (None, expected)
        else:
            # An array is judged by its dtype, then checked for shape and sums.
            assert _outcome(lambda: build(rows)) == _outcome(lambda: build(expected))


def _outcome(build):
    try:
        matrix = build()
    except InvariantViolation as exc:
        return exc.path, str(exc)
    return matrix.dtype, matrix.tobytes()


_HUGE = 10**5000  # more digits than int-to-str conversion allows


def _zero_weight_filter():
    space = Prespace(["a", "b", "c"], [0.5, 0.5, 0.0])
    values = RandomVariable("v", [1, 2, _HUGE])
    return filter_context(space, Context([0, 1, 2]), values, _HUGE)


def _absent_filter():
    space = Prespace(["a", "b", "c"], [0.5, 0.5, 0.0])
    values = RandomVariable("v", [1, 2, _HUGE])
    return filter_context(space, Context([0, 1]), values, _HUGE)


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(
            lambda: Context([_HUGE]),
            InvariantViolation,
            "context member an integer of 16610 bits is out of range for an index",
            id="context",
        ),
        pytest.param(
            lambda: FrequencyTable(["a", "b"], [_HUGE, 1], 5, 0),
            InvariantViolation,
            "counts sum to an integer of 16610 bits, expected total 5",
            id="frequency-table",
        ),
        pytest.param(
            lambda: ContextualStatistics([_HUGE, _HUGE], "xy", [0.5, 0.5], [0.5, 0.5], [[0.5, 0.5]] * 2),
            TypeMismatch,
            "selector variable must take exactly 2 distinct values, "
            "got (an integer of 16610 bits, an integer of 16610 bits)",
            id="statistics-labels",
        ),
        pytest.param(
            _absent_filter,
            DegenerateContext,
            "no points with 'v' = an integer of 16610 bits in the context",
            id="filter-absent",
        ),
        pytest.param(
            _zero_weight_filter,
            DegenerateContext,
            "points with 'v' = an integer of 16610 bits carry zero weight in the context",
            id="filter-weightless",
        ),
        pytest.param(
            lambda: RandomVariable(_HUGE, []),
            InvariantViolation,
            "variable an integer of 16610 bits needs at least one value",
            id="variable-without-values",
        ),
        pytest.param(
            lambda: RandomVariable(_HUGE, ["a"]),
            InvariantViolation,
            "a variable name must have a text form, got an integer of 16610 bits",
            id="variable-name",
        ),
    ],
)
def test_a_huge_integer_is_shown_by_its_size_in_a_diagnostic(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
