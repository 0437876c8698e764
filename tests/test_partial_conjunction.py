"""Drop-smallest and subset-max PC rules, component extraction, curves."""

import hashlib
import math
import random
import time
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from _golden import (
    CASE_C,
    CASE_D,
    TABLE_2B_BONFERRONI,
    TABLE_2B_NEW_INCONSISTENT_R,
)
from pcmeta.combiners import CombinerSpec, combine, combine_fisher, log_fisher
from pcmeta.errors import (
    EnumerationBudgetError,
    InputValidationError,
    NonConvergenceError,
    NumericDomainError,
)
from pcmeta.io import stouffer_weights_from_records
from pcmeta.numerics import ProbValue
from pcmeta import partial_conjunction
from pcmeta.oracle import NullConfig, mc_validity
from pcmeta.partial_conjunction import (
    GroupPartition,
    PcCurve,
    PcEntry,
    _SubsetRule,
    bhpc,
    bhpc_rows,
    extract_component,
    fixed_subset_combiner,
    gbhpc_enumerate,
    pc_curve,
    select_construction,
    structured_gbhpc,
    structured_subset_combiner,
    weighted_gbhpc_rows,
    weighted_subset_combiner,
)


def pv(*values):
    return [ProbValue.from_linear(v) for v in values]


def log_pv(*values):
    return [ProbValue.from_log(math.log(v)) for v in values]


FISHER = CombinerSpec("fisher")
SIMES = CombinerSpec("simes")
BONF = CombinerSpec("bonferroni")
TPM = CombinerSpec("tpm", tpm_gamma=0.2)


class TestGroupPartition:
    def test_from_labels(self):
        part = GroupPartition.from_labels(["a", "b", "a", "c", "b"])
        assert part.blocks == ((0, 2), (1, 4), (3,))

    def test_validation(self):
        with pytest.raises(InputValidationError):
            GroupPartition(3, ((0, 1),))  # missing index 2
        with pytest.raises(InputValidationError):
            GroupPartition(3, ((0, 1), (1, 2)))  # overlap
        with pytest.raises(InputValidationError):
            GroupPartition(3, ((0, 1, 2), ()))  # empty block

    def test_numpy_integer_indices(self):
        part = GroupPartition(np.int64(3), ((np.int64(2), np.int32(0)), (np.int64(1),)))
        assert part.blocks == ((0, 2), (1,))
        assert all(type(i) is int for block in part.blocks for i in block)

    @pytest.mark.parametrize("bad", [True, False, 0.0, 1.0, np.float64(1.0), "1"])
    def test_non_integer_index_raises(self, bad):
        with pytest.raises(InputValidationError, match="is not an integer"):
            GroupPartition(2, ((0,), (bad,)))


class TestBhpc:
    def test_r1_equals_plain_combiner(self):
        ps = pv(0.02, 0.8, 0.3, 0.5)
        assert bhpc(ps, 1, FISHER).log_value == combine_fisher(ps).log_value

    def test_case_d_beats_case_c_at_r4(self):
        c = log_pv(*CASE_C)
        d = log_pv(*CASE_D)
        assert bhpc(d, 4, FISHER).log_value < bhpc(c, 4, FISHER).log_value

    def test_bundled_bonferroni_r2(self, bundled_pvalues):
        got = bhpc(bundled_pvalues, 2, BONF)
        assert math.isclose(got.linear, TABLE_2B_BONFERRONI[2], rel_tol=1e-2)
        # equals 17 * second-smallest p
        second = sorted(p.linear for p in bundled_pvalues)[1]
        assert math.isclose(got.linear, 17 * second, rel_tol=1e-12)

    def test_numpy_integer_r(self):
        ps = pv(0.02, 0.8, 0.3, 0.5, 0.01)
        log_p = np.array([[p.log_value for p in ps]])
        groups = GroupPartition.from_labels(["a", "a", "b", "b", "c"])
        constructions = {
            "bhpc": lambda r: bhpc(ps, r, FISHER),
            "gbhpc_enumerate": lambda r: gbhpc_enumerate(ps, r, fixed_subset_combiner(FISHER)),
            "structured_gbhpc": lambda r: structured_gbhpc(ps, r, groups),
        }
        for name, evaluate in constructions.items():
            for r in range(1, 6):
                got, want = evaluate(np.int64(r)), evaluate(r)
                assert (got.log_value, got.linear) == (want.log_value, want.linear), name
            with pytest.raises(InputValidationError):
                evaluate(True)
        for r in range(1, 6):
            assert np.array_equal(bhpc_rows(log_p, np.int64(r), FISHER),
                                  bhpc_rows(log_p, r, FISHER))
        with pytest.raises(InputValidationError):
            bhpc_rows(log_p, True, FISHER)

    def test_rejects_weighted_rule(self):
        spec = CombinerSpec("stouffer_weighted", weights=(1.0, 2.0, 3.0))
        with pytest.raises(InputValidationError):
            bhpc(pv(0.1, 0.2, 0.3), 2, spec)

    def test_accepts_callable_rule(self):
        ps = pv(0.1, 0.5, 0.9)
        got = bhpc(ps, 2, combine_fisher)
        assert got.log_value == combine_fisher(pv(0.5, 0.9)).log_value

    def test_r_bounds(self):
        with pytest.raises(InputValidationError):
            bhpc(pv(0.1, 0.2), 0, FISHER)
        with pytest.raises(InputValidationError):
            bhpc(pv(0.1, 0.2), 3, FISHER)

    def test_monotone_and_permutation_invariant(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, n + 1))
            lo = rng.random(n)
            hi = np.minimum(1.0, lo + rng.random(n) * (1 - lo))
            assert (
                bhpc(pv(*lo), r, FISHER).log_value
                <= bhpc(pv(*hi), r, FISHER).log_value
            )
            ps = pv(*lo)
            shuffled = [ps[i] for i in rng.permutation(n)]
            assert bhpc(ps, r, FISHER).log_value == bhpc(shuffled, r, FISHER).log_value

    def test_ties_are_harmless(self):
        # Heavily tied inputs: value depends only on the multiset.
        ps = pv(0.2, 0.2, 0.2, 0.05, 0.05, 0.8)
        for r in range(1, 7):
            base = bhpc(ps, r, SIMES).log_value
            for perm in ([5, 4, 3, 2, 1, 0], [2, 0, 1, 4, 3, 5]):
                assert bhpc([ps[i] for i in perm], r, SIMES).log_value == base

    def test_chain_rule_validity(self):
        # An inner drop-smallest rule of order s used as the combiner of
        # an outer rule of order r yields a valid test of the (r+s-1)/n
        # null; check at (n, r, s) = (6, 2, 2) on its boundary (2 studies
        # non-null) for both weak and strong signal.
        inner = lambda ps: bhpc(ps, 2, FISHER)
        rule = lambda ps: bhpc(ps, 2, inner)
        for mean in (3.0, 6.0):
            config = NullConfig(6, z_means=(mean, mean, 0.0, 0.0, 0.0, 0.0))
            (est,) = mc_validity(rule, config, [0.05], reps=10**5, seed=99)
            assert est.rate <= est.bound, est


class TestGbhpcEnumerate:
    def test_symmetric_g_equals_bhpc(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(1, n + 1))
            ps = pv(*rng.random(n))
            a = gbhpc_enumerate(ps, r, fixed_subset_combiner(FISHER))
            b = bhpc(ps, r, FISHER)
            assert math.isclose(a.log_value, b.log_value, rel_tol=1e-12, abs_tol=1e-12)

    def test_r1_single_subset(self):
        ps = pv(0.2, 0.6, 0.9)
        got = gbhpc_enumerate(ps, 1, fixed_subset_combiner(FISHER))
        assert got.log_value == combine_fisher(ps).log_value

    def test_hand_enumeration_n5_r3(self):
        rng = np.random.default_rng(47)
        vals = rng.random(5)
        ps = pv(*vals)
        got = gbhpc_enumerate(ps, 3, fixed_subset_combiner(FISHER))
        # Independent oracle: scipy Fisher on each of the C(5,3)=10 subsets.
        expected = max(
            stats.chi2.sf(-2 * sum(math.log(vals[i]) for i in u), 2 * 3)
            for u in combinations(range(5), 3)
        )
        assert math.isclose(got.linear, expected, rel_tol=1e-10)

    def test_budget(self):
        ps = pv(*np.linspace(0.01, 0.99, 30))
        with pytest.raises(EnumerationBudgetError):
            gbhpc_enumerate(ps, 15, fixed_subset_combiner(FISHER), budget=1000)

    def test_index_bound_weights(self):
        # The factory sees original indices, so index-bound weights stay
        # attached to their study regardless of subset.
        from pcmeta.combiners import combine_stouffer_weighted

        weights = (1.0, 10.0, 2.0, 5.0)
        ps = pv(0.02, 0.9, 0.4, 0.1)

        def factory(u):
            return lambda p_u: combine_stouffer_weighted(
                p_u, [weights[i] for i in u]
            )

        got = gbhpc_enumerate(ps, 2, factory)
        expected = max(
            combine_stouffer_weighted(
                [ps[i] for i in u], [weights[i] for i in u]
            ).log_value
            for u in combinations(range(4), 3)
        )
        assert got.log_value == expected


def scalar_max(ps, r, factory):
    """The full scalar loop: the reference for the array path."""
    best = None
    for u in combinations(range(len(ps)), len(ps) - r + 1):
        value = factory(u)([ps[i] for i in u])
        if best is None or value.log_value > best.log_value:
            best = value
    return best


def array_factories(weights):
    return {
        "fisher": fixed_subset_combiner(FISHER),
        "simes": fixed_subset_combiner(SIMES),
        "bonferroni": fixed_subset_combiner(BONF),
        "tpm": fixed_subset_combiner(TPM),
        "stouffer": weighted_subset_combiner(weights),
    }


def assert_array_path_exact(ps, weights, rs=None, names=None):
    """gbhpc_enumerate equals the scalar loop bit for bit, or both raise
    NumericDomainError (the weighted rule at p in {0, 1})."""
    for name, factory in array_factories(weights).items():
        if names is not None and name not in names:
            continue
        for r in rs or range(1, len(ps) + 1):
            try:
                want = scalar_max(ps, r, factory)
            except NumericDomainError:
                with pytest.raises(NumericDomainError):
                    gbhpc_enumerate(ps, r, factory)
                continue
            got = gbhpc_enumerate(ps, r, factory)
            assert got.log_value == want.log_value, (name, r)
            assert got.linear == want.linear, (name, r)


# p-values that stress the search: the {0, 1} edges, a value near the
# bottom of double range, and a few values that make ties.
EDGE_PS = (0.0, 1.0, 1e-300, 0.05, 0.5)


class TestArrayPath:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(EDGE_PS),
                st.floats(min_value=1e-300, max_value=1.0),
            ),
            min_size=1,
            max_size=10,
        ),
        st.randoms(use_true_random=False),
    )
    def test_equals_scalar_loop(self, values, rnd):
        weights = [rnd.uniform(0.1, 10.0) for _ in values]
        assert_array_path_exact(pv(*values), weights)

    @pytest.mark.parametrize(
        "values",
        [
            (0.0, 0.3, 0.7, 0.01),
            (1.0, 1.0, 1.0, 1.0, 1.0),
            (1.0, 0.2, 1.0, 0.9),
            (0.0, 0.0, 0.0),
            (1e-300, 1e-300, 0.4, 1e-300, 0.9, 0.02),
            (0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05),
            (0.2, 0.2, 0.2, 0.05, 0.05, 0.8, 1.0, 0.0, 1e-300, 0.6),
            (0.5,),
        ],
    )
    def test_edges_ties_and_repeats(self, values):
        rng = np.random.default_rng(67)
        weights = rng.uniform(0.5, 3.0, len(values))
        assert_array_path_exact(pv(*values), weights)
        assert_array_path_exact(pv(*values), [1.0] * len(values))

    def test_near_tied_subsets(self):
        # Repeated p-values with weights a few ulps apart: subsets whose
        # exact values differ in the last bits, which the array kernel may
        # rank in the other order.  The screen must keep both.
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 7))
            base_p, base_w = rng.random(), rng.uniform(0.5, 3.0)
            tied = rng.random(n) < 0.6
            values = np.where(tied, base_p, rng.random(n))
            nudge = 1.0 + rng.integers(-3, 4, n) * 2.2e-16
            weights = np.where(tied, base_w * nudge, rng.uniform(0.5, 3.0, n))
            ps = pv(*values)
            factory = weighted_subset_combiner(weights)
            for r in range(1, n + 1):
                got = gbhpc_enumerate(ps, r, factory)
                want = scalar_max(ps, r, factory)
                assert (got.log_value, got.linear) == (want.log_value, want.linear)

    def test_search_tolerates_bound_error(self):
        # Bounds off by up to 2e-10 (1 + |v|), a fifth of the search's
        # tolerance, on p-values a few ulps apart: every subset is a near
        # tie and the exact maximum is the first subset.  The result must
        # stay exact.
        ps = pv(*(0.3 * (1.0 - 1e-15 * np.arange(14))))
        fisher = fixed_subset_combiner(FISHER)
        factory = Noisy(FISHER, random.Random(79))
        for r in (2, 5, 8, 11):
            got = gbhpc_enumerate(ps, r, factory)
            want = scalar_max(ps, r, fisher)
            assert (got.log_value, got.linear) == (want.log_value, want.linear)

    def test_more_subsets_than_one_chunk(self):
        # C(14, 7) = 3432 subsets: the screen spans four chunks.
        rng = np.random.default_rng(71)
        values = rng.random(14) ** 3
        weights = rng.uniform(0.5, 3.0, 14)
        assert math.comb(14, 7) > 1024
        assert_array_path_exact(pv(*values), weights, rs=[8])

    def test_bundled_data_every_r(self, bundled_pvalue_records, bundled_pvalues):
        weights = stouffer_weights_from_records(bundled_pvalue_records)
        assert_array_path_exact(bundled_pvalues, weights,
                                names=("fisher", "simes", "bonferroni", "stouffer"))
        # The scalar TPM loop over all 2^18 - 1 subsets would take ~15 s;
        # check the r whose subsets number at most C(18, 4).
        assert_array_path_exact(bundled_pvalues, weights, names=("tpm",),
                                rs=[1, 2, 3, 4, 5, 15, 16, 17, 18])

    def test_tied_subsets_over_many_chunks(self):
        # Every p equal: C(16, 8) = 12,870 exactly tied subsets at r = 9,
        # thirteen chunks, all rescored; the first is the scalar loop's.
        ps = pv(*[0.3] * 16)
        for factory in array_factories([1.0] * 16).values():
            for r in range(1, 17):
                got = gbhpc_enumerate(ps, r, factory)
                want = scalar_max(ps, r, factory)
                assert (got.log_value, got.linear) == (want.log_value, want.linear)

    def test_weighted_near_one_equals_scalar_loop(self):
        # Within 1e-6 of 1, where exp of log p may round to 1, the search
        # takes z from the scalar rule's own quantile.
        ps = pv(0.2, 1.0 - 1e-7, 0.05, 1.0 - 1e-12, 0.6)
        weights = [1.0, 2.0, 0.5, 1.5, 3.0]
        assert_array_path_exact(ps, weights, names=("stouffer",))

    def test_stouffer_raises_at_zero_and_one(self):
        factory = weighted_subset_combiner([1.0, 2.0, 3.0, 4.0])
        for edge in (0.0, 1.0):
            ps = pv(0.1, edge, 0.3, 0.4)
            for r in range(1, 5):
                with pytest.raises(NumericDomainError):
                    gbhpc_enumerate(ps, r, factory)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_weights_rejected_when_built(self, bad):
        with pytest.raises(InputValidationError):
            weighted_subset_combiner([1.0, bad, 2.0])

    def test_plain_callable_factory(self):
        rng = np.random.default_rng(73)
        ps = pv(*rng.random(9))
        plain = lambda u: (lambda p_u: combine(FISHER, p_u))
        for r in range(1, 10):
            got = gbhpc_enumerate(ps, r, plain)
            want = gbhpc_enumerate(ps, r, fixed_subset_combiner(FISHER))
            assert got.log_value == want.log_value

    def test_budget_checked_before_any_work(self):
        class Untouched(list):
            def __getitem__(self, i):
                raise AssertionError("p-values read before the budget check")

            def __iter__(self):
                raise AssertionError("p-values read before the budget check")

        ps = Untouched(pv(*np.linspace(0.01, 0.99, 30)))
        calls = []
        plain = lambda u: calls.append(u)
        for factory in [*array_factories([1.0] * 30).values(), plain]:
            with pytest.raises(EnumerationBudgetError):
                gbhpc_enumerate(ps, 15, factory, budget=1000)
        assert calls == []


class Noisy(_SubsetRule):
    """The library rule with each bound moved by up to 2e-10 (1 + |v|), a
    fifth of the search's tolerance; -inf stays as it is."""

    def __init__(self, spec, rnd):
        super().__init__(spec)
        self.rnd = rnd

    def walk(self, p_values):
        order, keys, start, keep, bound = super().walk(p_values)

        def noisy(state, j, m):
            v = bound(state, j, m)
            return v + self.rnd.uniform(-2e-10, 2e-10) * (1.0 + abs(v)) if v > -math.inf else v

        return order, keys, start, keep, noisy


class Counting(_SubsetRule):
    """The library rule, counting the nodes (bounds) of each search and
    recording, as sorted index tuples, the subsets that it scores."""

    def walk(self, p_values):
        self.nodes, self.scored = 0, []
        order, keys, start, keep, bound = super().walk(p_values)

        def counted(state, j, m):
            self.nodes += 1
            return bound(state, j, m)

        return order, keys, start, keep, counted

    @property
    def scores(self):
        return len(self.scored)

    def __call__(self, u):
        self.scored.append(tuple(sorted(u)))
        return super().__call__(u)


def outcome(search, ps, r, factory):
    try:
        got = search(ps, r, factory)
    except NumericDomainError:
        return "NumericDomainError"
    return got.log_value, got.linear


@st.composite
def near_tie_studies(draw):
    """p-values and weights for n <= 12 studies: edges (0, 1, 1e-300, and
    within 1e-6 of 1, where exp of log p may round to 1), free draws, and
    values a few ulps from a shared base."""
    n = draw(st.integers(1, 12))
    base_p = draw(st.floats(min_value=1e-300, max_value=1.0))
    base_w = draw(st.floats(min_value=0.1, max_value=10.0))
    ulps = st.integers(-3, 3)
    p = st.one_of(st.sampled_from((0.0, 1.0, 1e-300, 1.0 - 1e-7, 1.0 - 3e-12)),
                  st.floats(min_value=1e-300, max_value=1.0),
                  ulps.map(lambda k: min(1.0, base_p * (1.0 + k * 2.2e-16))))
    w = st.one_of(st.floats(min_value=0.1, max_value=10.0),
                  ulps.map(lambda k: base_w * (1.0 + k * 2.2e-16)))
    return draw(st.lists(p, min_size=n, max_size=n)), draw(st.lists(w, min_size=n, max_size=n))


class TestSearch:
    @settings(max_examples=150, deadline=None)
    @given(near_tie_studies(), st.integers(0, 2**32 - 1))
    def test_equals_scalar_loop(self, studies, seed):
        # Each rule's search, and the same with every bound moved by up to
        # a fifth of the tolerance, give the scalar loop's bits, or both
        # raise NumericDomainError.
        values, weights = studies
        ps = pv(*values)
        for factory in array_factories(weights).values():
            noisy = Noisy(factory.spec, random.Random(seed))
            for r in range(1, len(ps) + 1):
                want = outcome(scalar_max, ps, r, factory)
                assert outcome(gbhpc_enumerate, ps, r, factory) == want
                assert outcome(gbhpc_enumerate, ps, r, noisy) == want

    @pytest.mark.parametrize("spec", [FISHER, SIMES, BONF, TPM])
    def test_all_ones_take_a_node_per_study(self, spec):
        # Every p = 1: every subset ties at 0, so the first one scored ends
        # the walk; equal keys keep it from trying other orders.
        factory = Counting(spec)
        got = gbhpc_enumerate(pv(*[1.0] * 24), 9, factory)
        assert got == ProbValue.one()
        assert factory.nodes <= 24 and factory.scores == 1

    def test_all_tied_score_the_first_subset_alone(self):
        # Every key ties, so the walk keeps the first size studies and
        # stops: the one subset scored is the first in combinations order.
        for n in range(1, 13):
            ps = pv(*[0.3] * n)
            for name, factory in array_factories([1.0] * n).items():
                counting = Counting(factory.spec)
                for r in range(1, n + 1):
                    got = gbhpc_enumerate(ps, r, counting)
                    want = scalar_max(ps, r, factory)
                    assert (got.log_value, got.linear) == (want.log_value, want.linear)
                    assert counting.scored == [tuple(range(n - r + 1))], (name, n, r)
                    assert counting.nodes <= n, (name, n, r)

    @pytest.mark.parametrize("spec", [FISHER, SIMES, BONF, TPM])
    def test_minus_inf_scores_one_subset(self, spec):
        # Every 4-subset of 6 holds a p of 0, so each value is -inf: once
        # the first subset is scored, every -inf bound is pruned.
        ps = pv(0.2, 0.5, 0.9, 0.0, 0.0, 0.0)
        counting = Counting(spec)
        got = gbhpc_enumerate(ps, 3, counting)
        assert got.log_value == scalar_max(ps, 3, fixed_subset_combiner(spec)).log_value == -math.inf
        assert counting.scored == [(0, 1, 2, 3)]

    @pytest.mark.parametrize("values, weights, error", [
        ((0.2, 0.0, 0.05, 1.0, 0.6), (1.0, 2.0, 0.5, 1.5, 3.0), NumericDomainError),
        ((0.2, 0.3, 0.05, 1.0, 0.6), (1.0, 2.0, 0.5, 1.5, 3.0), NumericDomainError),
        ((0.2, 0.3, 0.05, 0.4, 0.6), (1.0, 2.0, 0.5, 1.5), InputValidationError),
    ])
    def test_weighted_refusals_come_before_any_node(self, values, weights, error):
        # A p of 0 or 1 and a wrong weight count are refused when the walk
        # is built, whatever r, so no bound is taken and no subset scored.
        counting = Counting(CombinerSpec("stouffer_weighted", weights=weights))
        for r in range(1, len(values) + 1):
            with pytest.raises(error):
                gbhpc_enumerate(pv(*values), r, counting)
            assert counting.nodes == 0 and counting.scored == []

    def test_distinct_p_at_n_1000_score_a_handful(self):
        # C(1000, 2) = 499,500 subsets per rule; TPM's scalar rule costs
        # O(n^2) per call, so it is left to the NOAC cases.
        rnd = random.Random(89)
        ps = pv(*[rnd.random() for _ in range(1000)])
        weights = [rnd.uniform(0.5, 3.0) for _ in range(1000)]
        for name, factory in array_factories(weights).items():
            if name == "tpm":
                continue
            counting = Counting(factory.spec)
            got = gbhpc_enumerate(ps, 3, counting)
            assert counting.scores <= 12, name
            if name != "stouffer":
                assert got == bhpc(ps, 3, factory.spec), name

    def test_bundled_weighted_curve_node_count(self, bundled_pvalue_records, bundled_pvalues):
        # The node count of the bundled weighted curve, recorded when the
        # search was written: a change to the walk that visits more fails.
        factory = Counting(CombinerSpec(
            "stouffer_weighted", weights=stouffer_weights_from_records(bundled_pvalue_records)))
        nodes = 0
        for r in range(1, len(bundled_pvalues) + 1):
            gbhpc_enumerate(bundled_pvalues, r, factory)
            nodes += factory.nodes
        assert nodes <= 2298


class TestUnranker:
    @pytest.mark.parametrize("n, r", [(70, 2), (70, 3), (1000, 2)])
    def test_large_n_equals_scalar_loop(self, n, r):
        rng = np.random.default_rng(n * r)
        values = rng.random(n)
        values[: n // 4] = values[n // 4]  # ties: many subsets rescored
        ps = pv(*values)
        weights = rng.uniform(0.5, 3.0, n)
        for factory in (fixed_subset_combiner(FISHER), weighted_subset_combiner(weights)):
            got = gbhpc_enumerate(ps, r, factory)
            want = scalar_max(ps, r, factory)
            assert (got.log_value, got.linear) == (want.log_value, want.linear)


GROUPED_PS = st.one_of(
    st.sampled_from(EDGE_PS), st.floats(min_value=1e-300, max_value=1.0)
)


def profile_maxima(ps, groups):
    """{kept: grouped GBHPC log value keeping that many studies}, by brute
    force over every profile of per-block kept-counts."""
    tops = []
    for block in groups.blocks:
        desc = sorted((ps[i].log_value for i in block), reverse=True)
        tops.append([log_fisher(desc[:c]) for c in range(1, len(block) + 1)])
    best = {}
    for profile in product(*(range(len(block) + 1) for block in groups.blocks)):
        kept = sum(profile)
        if kept == 0:
            continue
        lows = [t[c - 1] for t, c in zip(tops, profile) if c > 0]
        value = min(0.0, math.log(len(lows)) + min(lows))
        if kept not in best or value > best[kept]:
            best[kept] = value
    return best


def assert_rows_close(rows, scalar):
    # 1e-12 absolute on log p is 1e-12 relative on p: near p = 1 the
    # scalar rule may round log p to 0 where the row form keeps ~-1e-21.
    for got, want in zip(rows.tolist(), scalar):
        assert math.isclose(got, want.log_value, rel_tol=1e-12, abs_tol=1e-12), (
            got, want)


class TestRowForms:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.lists(GROUPED_PS, min_size=n, max_size=n), min_size=1, max_size=4
    )))
    def test_bhpc_rows_equal_bhpc(self, rows):
        ps = [pv(*row) for row in rows]
        log_p = np.array([[p.log_value for p in row] for row in ps])
        for spec in (FISHER, SIMES, BONF, TPM):
            for r in range(1, log_p.shape[1] + 1):
                assert_rows_close(
                    bhpc_rows(log_p, r, spec), [bhpc(row, r, spec) for row in ps]
                )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
            | st.sampled_from((1e-300, 0.05, 0.5)),
            min_size=1,
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_weighted_gbhpc_rows_equal_enumeration(self, values, rnd):
        weights = [rnd.uniform(0.1, 10.0) for _ in values]
        ps = pv(*values)
        log_p = np.array([[p.log_value for p in ps]])
        factory = weighted_subset_combiner(weights)
        for r in range(1, len(ps) + 1):
            want = gbhpc_enumerate(ps, r, factory)
            assert_rows_close(weighted_gbhpc_rows(log_p, r, weights), [want])

    def test_bad_inputs_raise(self):
        log_p = np.log(np.array([[0.1, 0.2, 0.3, 0.4]]))
        for r in (0, 5):
            with pytest.raises(InputValidationError):
                bhpc_rows(log_p, r, FISHER)
            with pytest.raises(InputValidationError):
                weighted_gbhpc_rows(log_p, r, [1.0] * 4)
        with pytest.raises(InputValidationError):
            bhpc_rows(log_p, 2, CombinerSpec("stouffer_weighted", weights=(1.0,) * 4))
        for weights in ([1.0] * 3, [1.0] * 5, [1, 0, 1, 1], [1, 1, math.nan, 1]):
            with pytest.raises(InputValidationError):
                weighted_gbhpc_rows(log_p, 2, weights)
        # C(30, 14) ~ 1.5e8 subsets: refused before any work.
        with pytest.raises(EnumerationBudgetError, match=r"C\(30, 14\)"):
            weighted_gbhpc_rows(np.zeros((1, 30)), 15, [1.0] * 30)


class TestStructured:
    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            labels = [f"g{rng.integers(0, max(1, n // 2))}" for _ in range(n)]
            groups = GroupPartition.from_labels(labels)
            ps = pv(*rng.random(n))
            r = int(rng.integers(1, n + 1))
            fast = structured_gbhpc(ps, r, groups)
            slow = gbhpc_enumerate(ps, r, structured_subset_combiner(groups))
            assert math.isclose(
                fast.log_value, slow.log_value, rel_tol=1e-12, abs_tol=1e-12
            )

    def test_reused_factory_follows_new_p_values(self):
        # The factory memoises block Fisher values; a memo keyed on study
        # indices would return the first vector's values for the second.
        groups = GroupPartition.from_labels(["a", "a", "b", "b", "c"])
        factory = structured_subset_combiner(groups)
        for values in [(0.01, 0.2, 0.03, 0.5, 0.04), (0.5, 0.04, 0.2, 0.01, 0.03)]:
            ps = pv(*values)
            for r in range(1, 6):
                fast = structured_gbhpc(ps, r, groups)
                slow = gbhpc_enumerate(ps, r, factory)
                assert math.isclose(
                    fast.log_value, slow.log_value, rel_tol=1e-12, abs_tol=1e-12
                )

    def test_bundled_r16_exceeds_published_row(self, bundled_pvalues, bundled_groups):
        # Exhaustive check of the r = 16 entry: the best subset keeps the
        # top-2 chads2 p-values and the largest creatinine p-value, giving
        # 2 * Fisher(1.05e-01, 7.83e-02) ~ 9.54e-02.  The published table
        # reports 7.36e-02 here (same as its r = 15 row), which no subset
        # maximum reproduces.
        assert TABLE_2B_NEW_INCONSISTENT_R == 16
        got = structured_gbhpc(bundled_pvalues, 16, bundled_groups)
        best_hand = 2 * combine_fisher(pv(1.05e-01, 7.83e-02)).linear
        assert math.isclose(got.linear, best_hand, rel_tol=1e-12)
        assert got.linear > 7.36e-02 * 1.2

    def test_partition_size_mismatch(self):
        groups = GroupPartition.from_labels(["a", "a", "b"])
        with pytest.raises(InputValidationError):
            structured_gbhpc(pv(0.1, 0.2), 1, groups)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(GROUPED_PS, st.integers(0, 5)), min_size=1, max_size=12))
    def test_equals_enumeration_bit_exact(self, rows):
        values, labels = zip(*rows)
        groups = GroupPartition.from_labels([str(b) for b in labels])
        ps = pv(*values)
        factory = structured_subset_combiner(groups)
        for r in range(1, len(ps) + 1):
            want = gbhpc_enumerate(ps, r, factory)
            assert structured_gbhpc(ps, r, groups).log_value == want.log_value, r

    @settings(max_examples=60, deadline=None)
    @given(st.lists(GROUPED_PS, min_size=1, max_size=20))
    def test_singleton_and_one_block_partitions(self, values):
        # One study per block is Bonferroni on the kept studies; one block
        # holding every study is Fisher on them.
        ps = pv(*values)
        n = len(ps)
        singletons = GroupPartition(n, tuple((i,) for i in range(n)))
        one_block = GroupPartition(n, (tuple(range(n)),))
        for r in range(1, n + 1):
            got = structured_gbhpc(ps, r, singletons)
            assert got.log_value == bhpc(ps, r, BONF).log_value, r
            got = structured_gbhpc(ps, r, one_block)
            assert got.log_value == bhpc(ps, r, FISHER).log_value, r

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=6, max_size=8), st.data())
    def test_equals_brute_force_over_profiles(self, sizes, data):
        labels = [f"b{b}" for b, size in enumerate(sizes) for _ in range(size)]
        labels = data.draw(st.permutations(labels))
        values = data.draw(st.lists(GROUPED_PS, min_size=len(labels), max_size=len(labels)))
        groups = GroupPartition.from_labels(labels)
        ps = pv(*values)
        want = profile_maxima(ps, groups)
        for r in range(1, len(ps) + 1):
            got = structured_gbhpc(ps, r, groups)
            assert got.log_value == want[len(ps) - r + 1], r

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(GROUPED_PS, st.integers(0, 5)), min_size=1, max_size=12))
    def test_curve_equals_structured_gbhpc(self, rows):
        # One pass serves every r of the curve, bit for bit as each r alone.
        values, labels = zip(*rows)
        groups = GroupPartition.from_labels([str(b) for b in labels])
        ps = pv(*values)
        curve = pc_curve(ps, 0.05, groups=groups)
        for e in curve.entries:
            want = structured_gbhpc(ps, e.r, groups)
            assert repr((e.p.log_value, e.p.linear)) == repr((want.log_value, want.linear)), e.r

    def test_curve_scores_each_block_top_once(self, monkeypatch):
        calls = []

        def counting(logs):
            calls.append(tuple(logs))
            return log_fisher(logs)

        monkeypatch.setattr(partial_conjunction, "log_fisher", counting)
        rng = np.random.default_rng(29)
        groups = GroupPartition.from_labels([f"b{b}" for b in rng.integers(0, 4, 12)])
        pc_curve(pv(*rng.random(12)), 0.05, groups=groups)
        # Distinct p-values: each (block, c) has its own argument.
        assert len(set(calls)) == len(calls) <= 12

    def test_thirty_blocks_of_three_stay_polynomial(self):
        # Exponential in the number of blocks when profiles are enumerated;
        # the curve at n = 90 takes about a second.
        rng = np.random.default_rng(71)
        groups = GroupPartition.from_labels([f"b{i // 3}" for i in range(90)])
        ps = pv(*rng.random(90))
        start = time.perf_counter()
        curve = pc_curve(ps, 0.05, groups=groups)
        assert time.perf_counter() - start < 10.0
        assert curve.method == "gbhpc:structured" and len(curve.entries) == 90


def wide_grouped_case(name):
    """(p-values, partition) of a seeded wide grouped case.  ``Bx3`` is
    B blocks of 3 log-uniform p-values in [1e-8, 1]; ``uneven`` is 14
    interleaved blocks of 1 to 6 studies whose p-values are drawn from a
    pool holding 0, 1 and 1e-300, so that many of them tie."""
    rng = random.Random(f"wide_grouped:{name}")
    if name == "uneven":
        sizes = [rng.randint(1, 6) for _ in range(14)]
        labels = [f"b{b}" for b, size in enumerate(sizes) for _ in range(size)]
        rng.shuffle(labels)
        pool = [0.0, 1.0, 1e-300] + [10.0 ** -rng.uniform(0, 8) for _ in range(8)]
        values = [rng.choice(pool) for _ in labels]
    else:
        blocks = int(name.split("x")[0])
        labels = [f"b{i // 3}" for i in range(3 * blocks)]
        values = [10.0 ** -rng.uniform(0, 8) for _ in labels]
    return pv(*values), GroupPartition.from_labels(labels)


# sha256 of the repr of (log p, p) for every entry of the grouped curve,
# recorded at commit 0f70ac1, before the kept-count keyed block DP.
WIDE_CURVE_DIGESTS = {
    "10x3": "57b413d5fd2b7d27f19607519e44d8efbf848f6637dea2cb225fd997aab1304c",
    "30x3": "ab365c7f1ed867d4cdc5abd9dfd89be936710e0b1178341e324a96ba5549bc18",
    "uneven": "f04c21d3218626cb1ffcd16d64290409830cae0fda5092be6020b7bda78bb260",
}


class TestWideGroupedCurvePins:
    @pytest.mark.parametrize("name", sorted(WIDE_CURVE_DIGESTS))
    def test_curve_bits_unchanged(self, name):
        ps, groups = wide_grouped_case(name)
        curve = pc_curve(ps, 0.05, groups=groups)
        text = "".join(repr((e.p.log_value, e.p.linear)) for e in curve.entries)
        assert hashlib.sha256(text.encode()).hexdigest() == WIDE_CURVE_DIGESTS[name]


class TestExtractComponent:
    def test_recovers_fisher_from_bhpc(self):
        rng = np.random.default_rng(59)
        n, r = 6, 3
        ps = pv(*(rng.random(n) * 0.9 + 0.05))
        f = lambda vec: bhpc(vec, r, FISHER)
        for u in [(0, 1, 2, 3), (1, 3, 4, 5), (0, 2, 4, 5)]:
            g_u = extract_component(f, n, u)
            p_u = [ps[i] for i in u]
            assert g_u(p_u).log_value == combine_fisher(p_u).log_value

    def test_r1_returns_f_itself(self):
        ps = pv(0.2, 0.5, 0.7)
        f = lambda vec: combine_fisher(vec)
        g = extract_component(f, 3, (0, 1, 2))
        assert g(ps).log_value == combine_fisher(ps).log_value

    def test_recovers_structured_g(self, bundled_pvalues, bundled_groups):
        f = lambda vec: structured_gbhpc(vec, 16, bundled_groups)
        factory = structured_subset_combiner(bundled_groups)
        for u in [tuple(range(15, 18)), (0, 5, 11), (8, 9, 10)]:
            g_u = extract_component(f, 18, u)
            p_u = [bundled_pvalues[i] for i in u]
            expected = factory(u)(p_u)
            got = g_u(p_u)
            assert math.isclose(got.log_value, expected.log_value, rel_tol=1e-9)

    def test_non_convergence_flagged(self):
        # A global-null rule misread as an r = 2 rule: its g_u infimum is
        # 0, approached only as eps -> 0, so probing never stabilizes.
        from pcmeta.combiners import combine_bonferroni

        f = lambda vec: combine_bonferroni(vec)
        g = extract_component(f, 3, (0, 1))
        with pytest.raises(NonConvergenceError):
            g(pv(0.5, 0.6))

    def test_bad_index_set(self):
        with pytest.raises(InputValidationError):
            extract_component(lambda v: v[0], 3, (0, 5))

    def test_non_integer_n_or_index(self):
        for n, u in [(3, (True,)), (3, (0, 1.5)), (3.0, (0, 1)), (True, (0,))]:
            with pytest.raises(InputValidationError, match="is not an integer"):
                extract_component(lambda v: v[0], n, u)
        assert extract_component(lambda v: v[0], np.int64(3), (np.int64(0), 2))


def dominated_by_bhpc(vec):
    """bhpc Fisher times (1 + p_min): monotone, valid and dominated, since
    each of its limits g_u is Fisher on p_u."""
    p_min = min(vec).linear
    return ProbValue.from_log(min(0.0, bhpc(vec, 2, FISHER).log_value + math.log1p(p_min)))


class TestExtractComponentLimit:
    """The limits of a monotone rule f at n = 5, r = 2: f equals the
    largest g_u when it is admissible and exceeds it when dominated."""

    RULES = {
        "weighted_gbhpc": lambda vec: gbhpc_enumerate(
            vec, 2, weighted_subset_combiner([1.0, 2.0, 3.0, 4.0, 5.0])),
        "bhpc_fisher": lambda vec: bhpc(vec, 2, FISHER),
        "dominated": dominated_by_bhpc,
    }

    def test_weighted_gbhpc_limit_past_linear_probes(self):
        # The left-out study has the smallest weight, so subsets holding it
        # set the maximum until log eps is about -1e4.
        g = extract_component(self.RULES["weighted_gbhpc"], 5, (1, 2, 3, 4))
        got = g(pv(0.27, 0.042, 0.0175, 0.81)).linear
        assert abs(got - 0.077437) < 1e-6

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_gap_to_largest_component(self, name):
        f = self.RULES[name]
        subsets = list(combinations(range(5), 4))
        limits = [extract_component(f, 5, u) for u in subsets]
        rng = np.random.default_rng(97)
        start = time.perf_counter()
        for _ in range(50):
            ps = pv(*rng.random(5))
            best = max(g([ps[i] for i in u]).log_value for g, u in zip(limits, subsets))
            gap = f(ps).log_value - best
            if name == "dominated":
                assert gap > 0.0, ps
            else:
                assert gap == 0.0, ps
        assert time.perf_counter() - start < 2.0


class TestPcCurve:
    def test_simes_curve_nondecreasing_interval(self):
        rng = np.random.default_rng(61)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            ps = pv(*rng.random(n))
            curve = pc_curve(ps, 0.05, spec=SIMES)
            assert curve.nondecreasing
            assert curve.confidence_set == frozenset(range(1, curve.r_hat + 1))

    def test_bundled_bonferroni_curve(self, bundled_pvalues):
        curve = pc_curve(bundled_pvalues, 0.05, spec=BONF)
        assert curve.confidence_set == frozenset(range(1, 13))
        assert curve.r_hat == 12
        assert curve.dips == (17,)  # the r=17 entry dips below r=16
        assert not curve.nondecreasing
        logs = [e.p.log_value for e in curve.entries]
        assert logs[16] < logs[15]

    def test_all_ones(self):
        curve = pc_curve(pv(1.0, 1.0, 1.0, 1.0), 0.05, spec=BONF)
        assert all(e.p.is_one for e in curve.entries)
        assert curve.confidence_set == frozenset()
        assert curve.r_hat == 0

    def test_mode_selection_is_exclusive(self):
        ps = pv(0.1, 0.2)
        groups = GroupPartition.from_labels(["a", "b"])
        with pytest.raises(InputValidationError):
            pc_curve(ps, 0.05)
        with pytest.raises(InputValidationError):
            pc_curve(ps, 0.05, spec=SIMES, groups=groups)
        with pytest.raises(InputValidationError):
            pc_curve(ps, 1.5, spec=SIMES)

    def test_entries_validation(self):
        with pytest.raises(InputValidationError):
            PcCurve(
                n=2,
                method="x",
                alpha=0.05,
                entries=(PcEntry(2, ProbValue.one()), PcEntry(1, ProbValue.one())),
            )

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(InputValidationError, match="alpha must be in"):
            PcCurve(n=1, method="x", alpha=alpha, entries=(PcEntry(1, ProbValue.one()),))
        with pytest.raises(InputValidationError, match="alpha must be in"):
            pc_curve(pv(0.1, 0.2), alpha, spec=SIMES)

    def test_select_construction_matches_curve(self, bundled_pvalues):
        curve = pc_curve(bundled_pvalues, 0.05, g=fixed_subset_combiner(SIMES))
        method, evaluate = select_construction(
            bundled_pvalues, 0.05, g=fixed_subset_combiner(SIMES)
        )
        assert method == curve.method
        for r in (1, 9, 18):
            assert evaluate(r).log_value == curve.entries[r - 1].p.log_value

    def test_enumeration_budget_checked_for_every_r_first(self):
        # C(24, r - 1) first exceeds 10**6 at r = 10; no r is scored before.
        calls = []
        recording = lambda u: calls.append(u)
        message = r"C\(24, 9\) = 1307504 subsets exceeds budget 1000000"
        with pytest.raises(EnumerationBudgetError, match=message):
            pc_curve(pv(*np.linspace(0.01, 0.99, 24)), 0.05, g=recording)
        assert calls == []

    @pytest.mark.parametrize("spec", [FISHER, SIMES, BONF, TPM], ids=lambda s: s.method)
    def test_bhpc_curve_equals_bhpc_on_the_original_order(self, spec):
        # The curve sorts the p-values once; ties, p = 1, p = 0 and 1e-300
        # must keep every bit of bhpc on the unsorted input.
        ps = pv(0.3, 1.0, 1e-300, 0.02, 0.3, 0.0, 0.7, 0.02, 1.0, 0.5, 1e-300)
        curve = pc_curve(ps, 0.05, spec=spec)
        for e in curve.entries:
            want = bhpc(ps, e.r, spec)
            assert (e.p.log_value, e.p.linear) == (want.log_value, want.linear), e.r

    def test_structured_curve_matches_pointwise(self, bundled_pvalues, bundled_groups):
        curve = pc_curve(bundled_pvalues, 0.05, groups=bundled_groups)
        for e in curve.entries:
            direct = structured_gbhpc(bundled_pvalues, e.r, bundled_groups)
            assert e.p.log_value == direct.log_value


@st.composite
def one_p_lowered(draw, values=GROUPED_PS, factors=st.floats(0.0, 1.0)):
    """(ps, the same ps with the p at one index times a factor in [0, 1])."""
    ps = draw(st.lists(values, min_size=1, max_size=8))
    lowered = list(ps)
    lowered[draw(st.integers(0, len(ps) - 1))] *= draw(factors)
    return pv(*ps), pv(*lowered)


def assert_not_raised(lowered, base):
    """``lowered`` is at most ``base``, up to 1e-12 relative."""
    assert lowered.log_value <= base.log_value + 1e-12, (lowered, base)


class TestMonotoneInEachP:
    """Lowering any one p never raises a PC p-value."""

    @settings(max_examples=80, deadline=None)
    @given(one_p_lowered())
    def test_bhpc(self, case):
        ps, lowered = case
        for spec in (FISHER, SIMES, BONF, TPM):
            for r in range(1, len(ps) + 1):
                assert_not_raised(bhpc(lowered, r, spec), bhpc(ps, r, spec))

    @settings(max_examples=60, deadline=None)
    @given(
        one_p_lowered(st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
                      st.floats(1e-3, 1.0)),
        st.randoms(use_true_random=False),
    )
    def test_weighted_gbhpc_enumerate(self, case, rnd):
        ps, lowered = case
        factory = weighted_subset_combiner([rnd.uniform(0.1, 10.0) for _ in ps])
        for r in range(1, len(ps) + 1):
            assert_not_raised(gbhpc_enumerate(lowered, r, factory),
                              gbhpc_enumerate(ps, r, factory))

    @settings(max_examples=60, deadline=None)
    @given(one_p_lowered(), st.lists(st.integers(0, 3), min_size=8, max_size=8))
    def test_structured_gbhpc(self, case, labels):
        ps, lowered = case
        groups = GroupPartition.from_labels([str(b) for b in labels[:len(ps)]])
        for r in range(1, len(ps) + 1):
            assert_not_raised(structured_gbhpc(lowered, r, groups),
                              structured_gbhpc(ps, r, groups))
