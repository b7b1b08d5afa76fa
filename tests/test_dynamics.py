import math
import os
import re
import sys
import threading
import tracemalloc

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
    apply_kernel,
    conditional_distribution,
    contextual_statistics,
    fiber,
    filter_context,
    ingest_contingency_table,
    is_contextually_sensitive,
    measurement_distribution,
    pushforward,
    sample_frequencies,
    transition_probabilities,
    variable_distribution,
)

from contextprob.dynamics import SAMPLE_BLOCK, SAMPLE_CHUNK

from synth import random_kernel, random_space


def two_point_model():
    space = Prespace.uniform(2)
    selector = RandomVariable("path", ["left", "right"])
    outcome = RandomVariable("screen", ["up", "down"])
    kernel = PerturbationKernel([[0.9, 0.1], [0.3, 0.7]])
    return space, selector, outcome, Context.full(space), kernel


def four_point_model():
    space = Prespace.uniform(4)
    selector = RandomVariable("path", ["left", "left", "right", "right"])
    outcome = RandomVariable("screen", ["up", "down", "up", "down"])
    return space, selector, outcome, Context.full(space)


def two_valued_model():
    space = Prespace(["a", "b", "c"], [0.3, 0.45, 0.25])
    return space, RandomVariable("v", ["x", "y", "x"])


def three_valued_model():
    # "z" has zero mass and sits between the other two values
    space = Prespace(["a", "b", "c", "d"], [0.15, 0.0, 0.6, 0.25])
    return space, RandomVariable("w", ["x", "z", "y", "x"])


def twenty_valued_model():
    # many values, so each block is compared against many bounds; "v7" and
    # "v14" have zero mass
    space = Prespace.from_weights([(k % 7) / 63 for k in range(1, 21)])
    return space, RandomVariable("t", [f"v{k}" for k in range(1, 21)])


# Counts recorded from the first release of the sampler, which placed each
# draw with a binary search, and for twenty_valued_model from the release
# that sorted every chunk.  Any later counting scheme must reproduce them.
PINNED_COUNTS = [
    (two_valued_model, 0, 1, [0, 1]),
    (two_valued_model, 0, 65535, [36010, 29525]),
    (two_valued_model, 0, 65536, [36011, 29525]),
    (two_valued_model, 0, 65537, [36011, 29526]),
    (two_valued_model, 0, 200003, [110255, 89748]),
    (two_valued_model, 7, 1, [1, 0]),
    (two_valued_model, 7, 65535, [35787, 29748]),
    (two_valued_model, 7, 65536, [35788, 29748]),
    (two_valued_model, 7, 65537, [35789, 29748]),
    (two_valued_model, 7, 200003, [109718, 90285]),
    (two_valued_model, 2024, 1, [0, 1]),
    (two_valued_model, 2024, 65535, [36106, 29429]),
    (two_valued_model, 2024, 65536, [36106, 29430]),
    (two_valued_model, 2024, 65537, [36106, 29431]),
    (two_valued_model, 2024, 200003, [109908, 90095]),
    (three_valued_model, 0, 1, [0, 0, 1]),
    (three_valued_model, 0, 65535, [26285, 0, 39250]),
    (three_valued_model, 0, 65536, [26286, 0, 39250]),
    (three_valued_model, 0, 65537, [26286, 0, 39251]),
    (three_valued_model, 0, 200003, [80031, 0, 119972]),
    (three_valued_model, 7, 1, [1, 0, 0]),
    (three_valued_model, 7, 65535, [26035, 0, 39500]),
    (three_valued_model, 7, 65536, [26036, 0, 39500]),
    (three_valued_model, 7, 65537, [26037, 0, 39500]),
    (three_valued_model, 7, 200003, [79866, 0, 120137]),
    (three_valued_model, 2024, 1, [0, 0, 1]),
    (three_valued_model, 2024, 65535, [26260, 0, 39275]),
    (three_valued_model, 2024, 65536, [26260, 0, 39276]),
    (three_valued_model, 2024, 65537, [26260, 0, 39277]),
    (three_valued_model, 2024, 200003, [79766, 0, 120237]),
    (twenty_valued_model, 0, 1, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]),
    (twenty_valued_model, 0, 65537, [1056, 2053, 3075, 4147, 5230, 6274, 0, 1092, 2080, 3131,
                                     4203, 5096, 6396, 0, 1069, 2007, 3106, 4158, 5094, 6270]),
    (twenty_valued_model, 0, 200003, [3177, 6280, 9572, 12657, 15856, 19063, 0, 3224, 6422, 9559,
                                      12875, 15881, 19100, 0, 3248, 6266, 9547, 12659, 15800, 18817]),
    (twenty_valued_model, 7, 1, [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    (twenty_valued_model, 7, 65537, [1058, 2090, 3073, 4105, 5206, 6191, 0, 991, 2060, 3201,
                                     4079, 5240, 6309, 0, 1027, 2145, 3039, 4171, 5275, 6277]),
    (twenty_valued_model, 7, 200003, [3245, 6284, 9404, 12657, 15818, 19090, 0, 3140, 6401, 9676,
                                      12573, 15755, 19276, 0, 3125, 6453, 9420, 12645, 15950, 19091]),
    (twenty_valued_model, 2024, 1, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
    (twenty_valued_model, 2024, 65537, [1014, 2079, 3066, 4222, 5238, 6220, 0, 1043, 2167, 3141,
                                        4161, 5149, 6174, 0, 1030, 2018, 3176, 4147, 5324, 6168]),
    (twenty_valued_model, 2024, 200003, [3107, 6331, 9483, 12550, 15941, 19005, 0, 3166, 6407, 9548,
                                         12806, 15758, 19134, 0, 3167, 6339, 9585, 12699, 15993, 18984]),
]


def reference_counts(masses, n, seed):
    """The documented sampling scheme, one binary search per draw."""
    cumulative = np.cumsum(masses)
    cumulative[-1] = 1.0
    counts = np.zeros(len(masses), dtype=np.int64)
    n_chunks = -(-n // SAMPLE_CHUNK)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        size = min(SAMPLE_CHUNK, n - i * SAMPLE_CHUNK)
        uniforms = np.random.Generator(np.random.Philox(child)).random(size)
        drawn = np.searchsorted(cumulative, uniforms, side="right")
        counts += np.bincount(drawn, minlength=len(masses))
    return counts


def many_weights(size, seed):
    """Up to a thousand weights mixing zeros, near-ties, small integers and
    uniform floats, so many cumulative bounds repeat or nearly repeat."""
    rng = np.random.default_rng(seed)
    kinds = rng.choice(4, size, p=rng.dirichlet(np.ones(4)))
    weights = np.select(
        [kinds == 0, kinds == 1, kinds == 2],
        # a 1e-20 weight leaves the cumulative sum where it was
        [0.0, 1e-20, rng.integers(1, 4, size).astype(float)],
        rng.uniform(1e-9, 1.0, size),
    )
    weights[rng.integers(size)] = 1.0
    return weights.tolist()


def use_cpus(monkeypatch, count):
    """Make the sampler see ``count`` usable CPUs."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


class TestPerturbationKernel:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(InvariantViolation):
            PerturbationKernel([[0.9, 0.2], [0.3, 0.7]])

    def test_must_be_square(self):
        with pytest.raises(InvariantViolation):
            PerturbationKernel([[0.5, 0.5]])

    def test_entries_non_negative(self):
        with pytest.raises(InvariantViolation):
            PerturbationKernel([[1.5, -0.5], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "row, message",
        [
            pytest.param([math.nan, 1.0], "row must be finite", id="nan"),
            pytest.param([math.inf, 0.0], "row must be finite", id="inf"),
            pytest.param([-math.inf, 1.0], "row must be finite", id="-inf"),
            pytest.param([math.inf, -math.inf], "row must be finite", id="inf-pair"),
            pytest.param([1.5, -0.5], "row must be non-negative", id="negative"),
            pytest.param([0.5, 0.4], "row must sum to 1 within 1e-12, got 0.9", id="bad-sum"),
        ],
    )
    def test_first_bad_row_is_named(self, row, message):
        rows = [[1.0, 0.0, 0.0], row + [0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(InvariantViolation) as info:
            PerturbationKernel(rows)
        assert str(info.value) == f"kernel.row[1]: {message}"

    def test_empty_kernel_is_accepted(self):
        assert PerturbationKernel(np.empty((0, 0))).size == 0

    def test_identity_factory(self):
        np.testing.assert_array_equal(
            PerturbationKernel.identity(3).matrix, np.eye(3)
        )


class TestApplyKernel:
    def test_identity_is_noop(self):
        space = Prespace.uniform(3)
        dist = Distribution(space.points, [0.2, 0.3, 0.5])
        moved = apply_kernel(space, dist, PerturbationKernel.identity(3))
        np.testing.assert_allclose(moved.masses, dist.masses, atol=1e-15)

    def test_uniform_source_through_example_kernel(self):
        space, _, _, _, kernel = two_point_model()
        dist = Distribution(space.points, [0.5, 0.5])
        moved = apply_kernel(space, dist, kernel)
        # 0.5*0.9 + 0.5*0.3 and 0.5*0.1 + 0.5*0.7, summed by hand
        np.testing.assert_allclose(moved.masses, [0.6, 0.4], atol=1e-15)

    def test_absorbing_kernel_concentrates(self):
        space = Prespace.uniform(2)
        kernel = PerturbationKernel([[1.0, 0.0], [1.0, 0.0]])
        moved = apply_kernel(space, Distribution(space.points, [0.25, 0.75]), kernel)
        np.testing.assert_allclose(moved.masses, [1.0, 0.0], atol=1e-15)

    def test_size_mismatch_is_structural(self):
        space = Prespace.uniform(3)
        dist = Distribution(space.points, [0.2, 0.3, 0.5])
        with pytest.raises(InvariantViolation):
            apply_kernel(space, dist, PerturbationKernel.identity(2))

    @given(
        masses=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
        rows=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_mass_is_preserved(self, masses, rows):
        n = len(masses)
        total = sum(masses)
        space = Prespace.uniform(n)
        dist = Distribution(space.points, [m / total for m in masses])
        raw = rows.draw(
            st.lists(
                st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        matrix = np.asarray(raw)
        kernel = PerturbationKernel(matrix / matrix.sum(axis=1, keepdims=True))
        moved = apply_kernel(space, dist, kernel)
        assert abs(float(moved.masses.sum()) - 1.0) < 1e-12
        assert np.all(moved.masses >= 0.0)


class TestTransitionProbabilities:
    def test_identity_kernel_gives_plain_conditionals(self):
        space, selector, outcome, context = four_point_model()
        t = transition_probabilities(
            space, context, selector, outcome, PerturbationKernel.identity(4)
        )
        np.testing.assert_allclose(t, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_no_kernel_is_exactly_the_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            space, selector, outcome, context = random_space(rng, max_points=12)
            identity = PerturbationKernel.identity(space.size)
            np.testing.assert_array_equal(
                transition_probabilities(space, context, selector, outcome, None),
                transition_probabilities(space, context, selector, outcome, identity),
            )

    def test_none_is_an_ordinary_selector_value(self):
        space, selector, outcome, context = four_point_model()
        unnamed = RandomVariable("path", [None, None, "right", "right"])
        np.testing.assert_array_equal(
            transition_probabilities(space, context, unnamed, outcome, None),
            transition_probabilities(space, context, selector, outcome, None),
        )

    def test_two_point_kernel_rows_match_enumeration(self):
        space, selector, outcome, context, kernel = two_point_model()
        # enumeration oracle: selecting 'left' puts all mass on point 0, so
        # the row is exactly the kernel row pushed through 'screen'
        expected = []
        for source in range(2):
            row = [0.0, 0.0]
            for dest in range(2):
                j = 0 if outcome.values[dest] == "up" else 1
                row[j] += float(kernel.matrix[source, dest])
            expected.append(row)
        t = transition_probabilities(space, context, selector, outcome, kernel)
        np.testing.assert_allclose(t, expected, atol=1e-15)
        np.testing.assert_allclose(t, [[0.9, 0.1], [0.3, 0.7]], atol=1e-15)

    def test_missing_selector_branch_degenerate(self):
        space, selector, outcome, _ = four_point_model()
        with pytest.raises(DegenerateContext):
            transition_probabilities(
                space,
                Context([0, 1]),  # only 'left' points
                selector,
                outcome,
                PerturbationKernel.identity(4),
            )

    def test_rows_are_stochastic_on_random_models(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            space, selector, outcome, context = random_space(rng, max_points=12)
            kernel = random_kernel(rng, space.size)
            t = transition_probabilities(space, context, selector, outcome, kernel)
            np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(t >= 0.0)


class TestContextualStatistics:
    def test_marginals_are_kernel_free(self):
        space, selector, outcome, context, kernel = two_point_model()
        stats = contextual_statistics(space, context, selector, outcome, kernel)
        np.testing.assert_allclose(stats.outcome_marginals, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(stats.selector_marginals, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(
            stats.transition, [[0.9, 0.1], [0.3, 0.7]], atol=1e-15
        )

    def test_non_dichotomous_selector_rejected(self):
        space = Prespace.uniform(3)
        selector = RandomVariable("s", ["a", "b", "c"])
        outcome = RandomVariable("o", ["x", "y", "x"])
        with pytest.raises(TypeMismatch):
            contextual_statistics(
                space,
                Context.full(space),
                selector,
                outcome,
                PerturbationKernel.identity(3),
            )

    def test_singleton_context_cannot_cover_both_branches(self):
        space, selector, outcome, _ = four_point_model()
        with pytest.raises(DegenerateContext):
            contextual_statistics(
                space, Context([0]), selector, outcome, PerturbationKernel.identity(4)
            )

    def test_direct_construction_validates_shapes(self):
        with pytest.raises(InvariantViolation):
            ContextualStatistics(
                ("a", "b"), ("x", "y"), (0.5, 0.5), (0.6, 0.6), [[0.5, 0.5], [0.5, 0.5]]
            )

    @pytest.mark.parametrize(
        "vector, message",
        [
            pytest.param([math.nan, 1.0], "must be finite", id="nan"),
            pytest.param([math.inf, 0.0], "must be finite", id="inf"),
            pytest.param([-math.inf, 1.0], "must be finite", id="-inf"),
            pytest.param([1.2, -0.2], "must be non-negative", id="negative"),
            pytest.param(
                [0.7, 0.2], "must sum to 1 within 1e-10, got 0.8999999999999999", id="bad-sum"
            ),
            pytest.param(
                [1e308, 1e308], "must sum to 1 within 1e-10, got inf", id="overflowing-sum"
            ),
        ],
    )
    @pytest.mark.parametrize("side", ["selector", "outcome"])
    def test_marginal_checks_keep_their_messages(self, side, vector, message):
        marginals = {"selector": (0.5, 0.5), "outcome": (0.5, 0.5), side: vector}
        with pytest.raises(
            InvariantViolation, match=f"^{re.escape(f'{side} marginals {message}')}$"
        ):
            ContextualStatistics(
                ("a", "b"),
                ("x", "y"),
                marginals["selector"],
                marginals["outcome"],
                [[0.5, 0.5], [0.5, 0.5]],
            )

    @pytest.mark.parametrize(
        "row, message",
        [
            pytest.param([math.nan, 1.0], "transition.row[0]: row must be finite", id="nan"),
            pytest.param([math.inf, 0.0], "transition.row[0]: row must be finite", id="inf"),
            pytest.param([-math.inf, 1.0], "transition.row[0]: row must be finite", id="-inf"),
            pytest.param(
                [1.2, -0.2], "transition.row[0]: row must be non-negative", id="negative"
            ),
            pytest.param(
                [1.5, 0.0],
                "transition.row[0]: row must sum to 1 within 1e-10, got 1.5",
                id="above-one",
            ),
            pytest.param(
                [0.7, 0.2],
                "transition.row[0]: row must sum to 1 within 1e-10, got 0.8999999999999999",
                id="bad-sum",
            ),
        ],
    )
    def test_transition_checks_keep_their_messages(self, row, message):
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            ContextualStatistics(
                ("a", "b"), ("x", "y"), (0.5, 0.5), (0.5, 0.5), [row, [0.5, 0.5]]
            )


# Offsets from a sum of 1 on both sides of 1e-12 and of 1e-10.  Entries are
# multiples of 2**-40, so every row sum is exact and no summation order can
# move a row across its tolerance.
_SUM_OFFSETS = [0.0, 2.0**-40, 2.0**-39, 2.0**-34, 2.0**-33]
_SPECIAL_ENTRIES = [math.nan, math.inf, -math.inf, -0.25, -0.0, 0.0, 1e308]


@st.composite
def _near_stochastic_row(draw, length):
    """A row summing to 1 plus a small offset, some entries made special."""
    if length == 0:
        return []
    cuts = sorted(draw(st.lists(st.integers(0, 2**20), min_size=length - 1, max_size=length - 1)))
    bounds = [0, *cuts, 2**20]
    row = [(b - a) * 2.0**-20 for a, b in zip(bounds, bounds[1:])]
    sign = draw(st.sampled_from([1.0, -1.0]))
    row[draw(st.integers(0, length - 1))] += sign * draw(st.sampled_from(_SUM_OFFSETS))
    # Moving mass between entries keeps the sum but may make one negative.
    shift = draw(st.sampled_from([0.0, 2.0**-40, 0.5]))
    row[draw(st.integers(0, length - 1))] -= shift
    row[draw(st.integers(0, length - 1))] += shift
    swaps = st.tuples(st.integers(0, length - 1), st.sampled_from(_SPECIAL_ENTRIES))
    for i, value in draw(st.lists(swaps, max_size=2)):
        row[i] = value
    return row


def _reference_accepts(rows, tolerance):
    """The rule written out per row: finite, non-negative, sums to 1."""
    return all(
        all(math.isfinite(x) and x >= 0.0 for x in row)
        and abs(sum(row) - 1.0) <= tolerance
        for row in rows
    )


def _accepts(build):
    # Sums of 1e308 entries overflow and inf - inf is invalid; the check
    # refuses both without a numpy warning.
    try:
        build()
    except InvariantViolation:
        return False
    return True


class TestNormalizationRule:
    @given(st.integers(0, 4).flatmap(_near_stochastic_row))
    @settings(max_examples=200, deadline=None)
    def test_distribution_follows_the_rule(self, masses):
        accepted = _accepts(lambda: Distribution(range(len(masses)), masses))
        assert accepted == _reference_accepts([masses], 1e-12)

    @given(
        st.integers(0, 3).flatmap(
            lambda n: st.lists(_near_stochastic_row(n), min_size=n, max_size=n)
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_follows_the_rule(self, rows):
        matrix = np.array(rows, dtype=float).reshape(len(rows), len(rows))
        assert _accepts(lambda: PerturbationKernel(matrix)) == _reference_accepts(
            rows, 1e-12
        )

    @given(
        _near_stochastic_row(2),
        _near_stochastic_row(2),
        st.lists(_near_stochastic_row(2), min_size=2, max_size=2),
    )
    @settings(max_examples=200, deadline=None)
    def test_statistics_follow_the_rule(self, selector, outcome, transition):
        accepted = _accepts(
            lambda: ContextualStatistics(
                ("a", "b"), ("x", "y"), selector, outcome, transition
            )
        )
        assert accepted == _reference_accepts([selector, outcome, *transition], 1e-10)


class TestDerivedValues:
    """Values derived from checked input are built without a second check."""

    def test_derived_arrays_are_read_only_like_constructed_ones(self):
        space, selector, outcome, context, kernel = two_point_model()
        conditional = conditional_distribution(space, context)
        stats = contextual_statistics(space, context, selector, outcome, kernel)
        table = ingest_contingency_table(
            "experiment,outcome_a,outcome_b,count\n"
            "direct,,up,3\ndirect,,down,1\n"
            "sequential,left,up,2\nsequential,left,down,2\n"
            "sequential,right,up,1\nsequential,right,down,3\n"
        )
        arrays = {
            "constructed": Distribution(space.points, [0.5, 0.5]).masses,
            "conditional_distribution": conditional.masses,
            "pushforward": pushforward(outcome, conditional).masses,
            "apply_kernel": apply_kernel(space, conditional, kernel).masses,
            "contextual_statistics": stats.selector_marginals,
            "contextual_statistics transition": stats.transition,
            "ingest_contingency_table": table.outcome_marginals,
            "ingest_contingency_table transition": table.transition,
            "sample_frequencies": sample_frequencies(
                space, context, outcome, 100, 3, kernel
            ).counts,
            "RandomVariable.codes": outcome.codes,
        }
        for name, array in arrays.items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    @pytest.mark.parametrize(
        "build, values, field",
        [
            pytest.param(lambda a: Prespace("pq", a), [0.5, 0.5], "weights", id="Prespace"),
            pytest.param(
                lambda a: Distribution("pq", a), [0.5, 0.5], "masses", id="Distribution"
            ),
            pytest.param(
                PerturbationKernel, [[1.0, 0.0], [0.0, 1.0]], "matrix", id="PerturbationKernel"
            ),
            pytest.param(
                lambda a: ContextualStatistics("ab", "xy", [0.5, 0.5], [0.5, 0.5], a),
                [[1.0, 0.0], [0.0, 1.0]],
                "transition",
                id="ContextualStatistics",
            ),
            pytest.param(
                lambda a: FrequencyTable("ab", a, 7, 0), [6, 1], "counts", id="FrequencyTable"
            ),
        ],
    )
    def test_constructors_copy_caller_arrays(self, build, values, field):
        array = np.array(values)
        stored = getattr(build(array), field)
        assert array.flags.writeable
        assert not stored.flags.writeable
        array[0] = array[1]
        assert stored.tolist() == values

    def test_derived_contexts_equal_constructed_ones(self):
        space, selector, _, context = four_point_model()
        derived = [
            Context.full(space),
            fiber(space, selector, "right"),
            filter_context(space, context, selector, "left"),
        ]
        assert derived == [Context([0, 1, 2, 3]), Context([2, 3]), Context([0, 1])]
        for built in derived:
            assert all(type(i) is int for i in built.members)


class TestSensitivity:
    def test_identity_kernel_is_never_sensitive(self):
        space, selector, outcome, context = four_point_model()
        stats = contextual_statistics(
            space, context, selector, outcome, PerturbationKernel.identity(4)
        )
        assert not is_contextually_sensitive(stats)

    def test_example_kernel_moves_marginals(self):
        space, selector, outcome, context, kernel = two_point_model()
        stats = contextual_statistics(space, context, selector, outcome, kernel)
        # prediction through branches is 0.6 for 'up', direct marginal is 0.5
        assert is_contextually_sensitive(stats)

    def test_consistent_statistics_not_flagged(self):
        sel = np.array([0.4, 0.6])
        t = np.array([[0.7, 0.3], [0.2, 0.8]])
        stats = ContextualStatistics(("a", "b"), ("x", "y"), sel, sel @ t, t)
        assert not is_contextually_sensitive(stats)


class TestMeasurementDistribution:
    def test_kernel_free_matches_variable_distribution(self):
        space, selector, outcome, context = four_point_model()
        direct = variable_distribution(space, outcome, context)
        measured = measurement_distribution(space, context, outcome)
        np.testing.assert_allclose(measured.masses, direct.masses, atol=1e-15)

    def test_selected_and_disturbed_branch(self):
        space, selector, outcome, context, kernel = two_point_model()
        dist = measurement_distribution(
            space, context, outcome, kernel, selector, "left"
        )
        np.testing.assert_allclose(dist.masses, [0.9, 0.1], atol=1e-15)

    def test_selector_requires_value(self):
        space, selector, outcome, context = four_point_model()
        with pytest.raises(InvariantViolation):
            measurement_distribution(space, context, outcome, selector=selector)


class TestSampleFrequencies:
    def test_single_draw(self):
        space, _, outcome, context = four_point_model()
        table = sample_frequencies(space, context, outcome, 1, 5)
        assert table.total == 1
        assert sorted(table.counts.tolist()) == [0, 1]

    def test_point_mass_is_exact(self):
        space = Prespace(["a", "b"], [1.0, 0.0])
        v = RandomVariable("v", ["x", "y"])
        table = sample_frequencies(space, Context.full(space), v, 1000, 99)
        assert table.counts.tolist() == [1000, 0]

    def test_same_seed_same_counts(self):
        space, _, outcome, context = four_point_model()
        # crosses the internal chunk boundary
        first = sample_frequencies(space, context, outcome, 70_000, 42)
        second = sample_frequencies(space, context, outcome, 70_000, 42)
        np.testing.assert_array_equal(first.counts, second.counts)
        assert first.seed == 42

    def test_different_seeds_differ(self):
        space, _, outcome, context = four_point_model()
        first = sample_frequencies(space, context, outcome, 10_000, 1)
        second = sample_frequencies(space, context, outcome, 10_000, 2)
        assert not np.array_equal(first.counts, second.counts)

    def test_fair_coin_concentrates(self):
        space, _, outcome, context = four_point_model()
        table = sample_frequencies(space, context, outcome, 100_000, 17)
        assert abs(float(table.frequencies[0]) - 0.5) <= 0.01

    def test_counts_always_total_n(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            space, selector, outcome, context = random_space(rng, max_points=10)
            n = int(rng.integers(1, 5000))
            table = sample_frequencies(space, context, outcome, n, int(rng.integers(1000)))
            assert int(table.counts.sum()) == n

    def test_invalid_trial_count(self):
        space, _, outcome, context = four_point_model()
        with pytest.raises(InvariantViolation):
            sample_frequencies(space, context, outcome, 0, 1)
        # counts are int64; rejected before any chunk is drawn
        with pytest.raises(InvariantViolation, match="at most"):
            sample_frequencies(space, context, outcome, 2**63, 1)

    @pytest.mark.parametrize(
        "model, seed, n, counts",
        PINNED_COUNTS,
        ids=[f"{m.__name__}-{seed}-{n}" for m, seed, n, _ in PINNED_COUNTS],
    )
    def test_counts_are_pinned(self, model, seed, n, counts):
        space, variable = model()
        table = sample_frequencies(space, Context.full(space), variable, n, seed)
        assert table.counts.tolist() == counts

    @given(
        weights=st.one_of(
            st.lists(
                st.one_of(
                    st.just(0.0),
                    st.integers(1, 3).map(float),
                    st.floats(1e-9, 1.0),
                ),
                min_size=1,
                max_size=40,
            ).filter(lambda w: sum(w) > 0.0),
            # many-valued alphabets too, whose blocks meet many tied bounds
            st.builds(many_weights, st.integers(41, 1000), st.integers(0, 2**32)),
        ),
        n=st.one_of(
            st.integers(1, 3 * SAMPLE_CHUNK),
            st.builds(
                lambda chunks, offset: chunks * SAMPLE_CHUNK + offset,
                st.integers(1, 3),
                st.integers(-2, 2),
            ),
            st.builds(
                lambda blocks, offset: blocks * SAMPLE_BLOCK + offset,
                st.integers(1, 3 * SAMPLE_CHUNK // SAMPLE_BLOCK),
                st.integers(-2, 2),
            ),
        ),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_counts_match_the_reference_scheme(self, weights, n, seed):
        total = sum(weights)
        space = Prespace.from_weights([w / total for w in weights])
        variable = RandomVariable("v", list(range(len(weights))))
        context = Context.full(space)
        masses = measurement_distribution(space, context, variable).masses
        table = sample_frequencies(space, context, variable, n, seed)
        np.testing.assert_array_equal(
            table.counts, reference_counts(masses, n, seed)
        )

    @pytest.mark.parametrize(
        "n",
        [
            1,
            SAMPLE_CHUNK - 1,
            SAMPLE_CHUNK + 1,
            2 * SAMPLE_CHUNK,
            3 * SAMPLE_CHUNK - 1,
            3 * SAMPLE_CHUNK,
            5 * SAMPLE_CHUNK + 1,
            9 * SAMPLE_CHUNK - 1,
        ],
    )
    @pytest.mark.parametrize("model", [three_valued_model, twenty_valued_model])
    def test_worker_count_does_not_change_counts(self, monkeypatch, model, n):
        space, variable = model()
        context = Context.full(space)
        real_philox = np.random.Philox
        drawn_by = {}

        def philox(child):
            (chunk,) = child.spawn_key
            drawn_by[chunk] = threading.current_thread()
            return real_philox(child)

        monkeypatch.setattr(np.random, "Philox", philox)
        chunks = -(-n // SAMPLE_CHUNK)
        counts = []
        for cpus in (1, 2, 3, 8):
            use_cpus(monkeypatch, cpus)
            drawn_by.clear()
            counts.append(sample_frequencies(space, context, variable, n, 7).counts)
            # chunk c is drawn by worker c mod W, worker 0 being the caller
            workers = min(cpus, chunks)
            assert sorted(drawn_by) == list(range(chunks))
            assert len(set(drawn_by.values())) == workers
            for chunk, thread in drawn_by.items():
                assert thread is drawn_by[chunk % workers]
            assert drawn_by[0] is threading.current_thread()
        for other in counts[1:]:
            np.testing.assert_array_equal(other, counts[0])
        masses = measurement_distribution(space, context, variable).masses
        np.testing.assert_array_equal(counts[0], reference_counts(masses, n, 7))

    def test_counts_hold_under_frequent_thread_switches(self, monkeypatch):
        # more workers than cores, switching as often as the interpreter can,
        # so an update of shared counts lost between workers would show
        space, variable = twenty_valued_model()
        context = Context.full(space)
        n = 9 * SAMPLE_CHUNK - 1
        masses = measurement_distribution(space, context, variable).masses
        use_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            table = sample_frequencies(space, context, variable, n, 11)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(table.counts, reference_counts(masses, n, 11))

    # with two workers, chunks 1 and 3 go to the thread and chunk 2 to the caller
    @pytest.mark.parametrize("failing_chunk", [1, 3, 2])
    def test_worker_failure_reaches_the_caller(self, monkeypatch, failing_chunk):
        space, variable = three_valued_model()
        context = Context.full(space)
        real_philox = np.random.Philox

        def philox(child):
            if child.spawn_key == (failing_chunk,):
                raise RuntimeError(f"chunk {failing_chunk} failed")
            return real_philox(child)

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(np.random, "Philox", philox)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match=f"^chunk {failing_chunk} failed$"):
            sample_frequencies(space, context, variable, 4 * SAMPLE_CHUNK, 7)
        assert set(threading.enumerate()) == before

    def test_memory_does_not_grow_with_the_count(self):
        space, variable = two_valued_model()
        context = Context.full(space)

        def peak(chunks):
            tracemalloc.start()
            try:
                sample_frequencies(space, context, variable, chunks * SAMPLE_CHUNK, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # the first call also allocates numpy's one-off state
        assert peak(40) <= 1.5 * peak(3)

    @pytest.mark.parametrize(
        "model", [two_valued_model, three_valued_model, twenty_valued_model]
    )
    def test_compared_draws_take_about_one_block(self, model):
        space, variable = model()
        context = Context.full(space)
        sample_frequencies(space, context, variable, 1, 3)  # numpy's one-off state
        tracemalloc.start()
        try:
            sample_frequencies(space, context, variable, 3 * SAMPLE_CHUNK, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of float64 draws is 0.125 MB; one whole chunk would be 0.5 MB
        assert SAMPLE_BLOCK * 8 <= peak < 0.25e6
