"""Monte Carlo oracle behavior and the pinned calibration suite.

The pinned suite checks every closed-form rule against its empirical
null CDF: exactly-calibrated rules (continuous statistics under
independent uniforms) must match P(rule <= c) = c within 4 standard
errors at the probe level, and conservative or boundary-null rules must
stay at or below it.
"""

import math

import numpy as np
import pytest

from pcmeta import oracle
from pcmeta.combiners import CombinerSpec, combine, combine_stouffer_weighted, rows_for
from pcmeta.errors import InputValidationError
from pcmeta.numerics import ProbValue
from pcmeta.oracle import (
    BatchedRule,
    NullConfig,
    ValidityEstimate,
    mc_validity,
    tpm_mc_cdf,
)
from pcmeta.partial_conjunction import (
    GroupPartition,
    bhpc,
    bhpc_rows,
    gbhpc_enumerate,
    structured_gbhpc,
)


class TestMcValidity:
    @pytest.mark.parametrize("reps, seed", [(1e4, 1), (10**4, -1), (10**4, 1.0),
                                            (10**4, True)])
    def test_integer_reps_and_seed(self, reps, seed):
        rule = lambda ps: combine(CombinerSpec("fisher"), ps)
        with pytest.raises(InputValidationError):
            mc_validity(rule, NullConfig(2), [0.05], reps=reps, seed=seed)

    def test_integer_study_count(self):
        for bad in (True, 2.0, 0):
            with pytest.raises(InputValidationError):
                NullConfig(bad)
        assert NullConfig(np.int64(3)).n_studies == 3

    def test_uniform_fisher_is_exact_level(self):
        rule = lambda ps: combine(CombinerSpec("fisher"), ps)
        (est,) = mc_validity(rule, NullConfig(5), [0.05], reps=10**5, seed=1)
        assert abs(est.rate - 0.05) <= 3 * math.sqrt(0.05 * 0.95 / 10**5)
        assert est.valid

    def test_broken_rule_flagged(self):
        # Halving a valid p-value doubles its rejection rate.
        rule = lambda ps: ProbValue.from_log(ps[0].log_value - math.log(2.0))
        (est,) = mc_validity(rule, NullConfig(1), [0.05], reps=10**5, seed=2)
        assert abs(est.rate - 0.10) <= 4 * math.sqrt(0.10 * 0.90 / 10**5)
        assert not est.valid

    def test_boundary_structured_rule(self):
        groups = GroupPartition.from_labels(["a", "a", "b", "b", "b", "c", "c", "c"])
        rule = lambda ps: structured_gbhpc(ps, 2, groups)
        config = NullConfig(8, z_means=(6.0, 0, 0, 0, 0, 0, 0, 0))
        (est,) = mc_validity(rule, config, [0.05], reps=2 * 10**4, seed=3)
        assert est.rate <= est.bound

    def test_validation(self):
        rule = lambda ps: ps[0]
        with pytest.raises(InputValidationError):
            mc_validity(rule, NullConfig(1), [0.05], reps=100, seed=0)
        with pytest.raises(InputValidationError):
            mc_validity(rule, NullConfig(1), [1.5], reps=10**4, seed=0)
        with pytest.raises(InputValidationError):
            NullConfig(3, z_means=(1.0,))
        with pytest.raises(InputValidationError):
            mc_validity(rule, NullConfig(2), ["0.05"], 10**4, 0)
        with pytest.raises(InputValidationError):
            NullConfig(2, z_means=("a", 0.0))

    def test_alpha_list_array_list_and_tuple_agree(self):
        rule = _combine_rule(CombinerSpec("fisher"))
        alphas = [0.05, 0.01]
        estimates = [mc_validity(rule, NullConfig(2), kind, 10**4, 1)
                     for kind in (alphas, tuple(alphas), np.array(alphas))]
        assert estimates[0] == estimates[1] == estimates[2]
        assert all(type(est.alpha) is float for est in estimates[2])
        with pytest.raises(InputValidationError):
            mc_validity(rule, NullConfig(2), np.array([]), 10**4, 1)

    @pytest.mark.parametrize("n, z_means", [
        (2, (math.nan, 0.0)), (2, (math.inf, 0.0)), (3, (0.0, 1.0, -math.inf)),
        (2.0, None), (2.5, None), ("3", None),
    ])
    def test_null_config_rejects_nonfinite_means_and_non_integer_n(self, n, z_means):
        with pytest.raises(InputValidationError):
            NullConfig(n, z_means=z_means)

    @pytest.mark.parametrize("z_means", [None, (3.0, 0.0, -1.5)])
    @pytest.mark.parametrize("reps", [10**4, 10**4 + 7, 25_000])
    def test_chunked_draw_equals_one_shot(self, z_means, reps):
        # Both oracles read _null_chunks, _CHUNK_ROWS rows per pass from one
        # generator; that must be the clipped stream of one (reps, n) draw,
        # last chunk short.
        config = NullConfig(3, z_means=z_means)
        one_shot = oracle._draw_log_p(config, np.random.default_rng([4]), reps)
        chunks = list(oracle._null_chunks(config, reps, 4))
        assert reps % oracle._CHUNK_ROWS != 0
        assert [len(c) for c in chunks[:-1]] == [oracle._CHUNK_ROWS] * (len(chunks) - 1)
        assert np.array_equal(np.concatenate(chunks), np.minimum(0.0, one_shot))

    @pytest.mark.parametrize("z_means", [None, (2.0, 0.0, 0.0)])
    def test_counts_equal_one_shot_reference(self, z_means):
        spec = CombinerSpec("simes")
        config = NullConfig(3, z_means=z_means)
        alphas, reps = [0.01, 0.05, 0.3], 10**4 + 7
        log_p = np.minimum(0.0, oracle._draw_log_p(config, np.random.default_rng([6]), reps))
        values = [combine(spec, [ProbValue.from_log(v) for v in row]).log_value
                  for row in log_p.tolist()]
        estimates = mc_validity(lambda ps: combine(spec, ps), config, alphas, reps, seed=6)
        for alpha, est in zip(alphas, estimates):
            assert est.rate == sum(v <= math.log(alpha) for v in values) / reps


# The rules of ``oracle validity --method M`` at k studies.
def _cli_spec(method, k):
    if method == "tpm":
        return CombinerSpec("tpm", tpm_gamma=0.2)
    if method == "stouffer":
        return CombinerSpec("stouffer_weighted", weights=(1.0,) * k)
    return CombinerSpec(method)


def _combine_rule(spec):
    return BatchedRule(lambda ps: combine(spec, ps), rows_for(spec))


def _bhpc_rule(spec, r):
    return BatchedRule(lambda ps: bhpc(ps, r, spec),
                       lambda log_p: bhpc_rows(log_p, r, spec))


class TestBatchedRule:
    ALPHAS = [0.01, 0.05, 0.2]

    @pytest.mark.parametrize("k", [2, 5, 10])
    @pytest.mark.parametrize("method", ["fisher", "simes", "bonferroni", "tpm", "stouffer"])
    def test_equals_scalar_loop(self, method, k):
        rule = _combine_rule(_cli_spec(method, k))
        config = NullConfig(k)
        batched = mc_validity(rule, config, self.ALPHAS, 10**4, seed=k)
        assert batched == mc_validity(rule.scalar, config, self.ALPHAS, 10**4, seed=k)

    @pytest.mark.parametrize("method", ["fisher", "simes", "bonferroni", "tpm"])
    @pytest.mark.parametrize("r, z_means", [(2, (3.0,) + (0.0,) * 7), (3, (3.0, 2.0, 0, 0, 0))])
    def test_pc_rule_equals_scalar_loop(self, method, r, z_means):
        rule = _bhpc_rule(_cli_spec(method, len(z_means)), r)
        config = NullConfig(len(z_means), z_means=z_means)
        batched = mc_validity(rule, config, self.ALPHAS, 10**4, seed=r)
        assert batched == mc_validity(rule.scalar, config, self.ALPHAS, 10**4, seed=r)

    @pytest.mark.parametrize("method", ["fisher", "tpm", "stouffer"])
    def test_rows_on_the_threshold(self, method):
        # Each alpha is exp of some replicate's exact value, so those rows
        # sit on the threshold, and the row form is off by up to
        # 2e-10 (1 + |v|), a fifth of the tolerance.  Counts stay exact.
        spec = _cli_spec(method, 4)
        config = NullConfig(4)
        log_p = oracle._draw_log_p(config, np.random.default_rng([17]), 10**4)
        exact = [combine(spec, [ProbValue.from_log(v) for v in row]).log_value
                 for row in log_p[:200].tolist()]
        alphas = sorted({math.exp(v) for v in exact if -9.0 < v < -0.1})[::9]
        assert len(alphas) >= 5
        rng = np.random.default_rng(19)
        kernel = rows_for(spec)

        def noisy(rows):
            v = kernel(rows)
            return v + rng.uniform(-2e-10, 2e-10, len(v)) * (1.0 + np.abs(v))

        rule = BatchedRule(lambda ps: combine(spec, ps), noisy)
        batched = mc_validity(rule, config, alphas, 10**4, seed=17)
        scalar = mc_validity(rule.scalar, config, alphas, 10**4, seed=17)
        assert batched == scalar

    def test_nan_rows_are_rescored(self):
        # A row form that gives up on every row leaves only the scalar rule.
        calls = []

        def scalar(ps):
            calls.append(1)
            return combine(CombinerSpec("fisher"), ps)

        rule = BatchedRule(scalar, lambda rows: np.full(len(rows), np.nan))
        batched = mc_validity(rule, NullConfig(3), self.ALPHAS, 10**4, seed=23)
        assert len(calls) == 10**4
        assert batched == mc_validity(scalar, NullConfig(3), self.ALPHAS, 10**4, seed=23)

    def test_bad_r_raises_as_in_scalar_loop(self):
        for rule in (_bhpc_rule(CombinerSpec("fisher"), 9),
                     _bhpc_rule(CombinerSpec("fisher"), 9).scalar):
            with pytest.raises(InputValidationError, match="r=9"):
                mc_validity(rule, NullConfig(4), [0.05], 10**4, seed=0)


class TestTpmMcCdf:
    def test_w_one(self):
        assert tpm_mc_cdf(4, 0.3, 1.0, reps=10**6, seed=5) == (1.0, 0.0)

    def test_w_zero(self):
        assert tpm_mc_cdf(4, 0.3, 0.0, reps=10**6, seed=5) == (0.0, 0.0)

    def test_deterministic(self):
        a = tpm_mc_cdf(3, 0.2, 1e-3, reps=10**6, seed=6)
        b = tpm_mc_cdf(3, 0.2, 1e-3, reps=10**6, seed=6)
        assert a == b

    @pytest.mark.parametrize("args, want", [
        ((3, 0.2, 1e-3, 10**6, 6), (0.018299, 0.00013403039431039514)),
        ((5, 0.5, 0.01, 10**6, 5001), (0.394023, 0.0004886398218227818)),
        ((10, 1.0, 1e-6, 10**6, 5002), (0.118658, 0.00032338565063403784)),
        ((4, 0.05, 1e-4, 10**6, 7), (0.003154, 5.607184930069634e-05)),
        ((1, 0.3, 0.2, 10**6, 8), (0.199377, 0.0003995319910482764)),
    ])
    def test_pinned_estimates(self, args, want):
        # Recorded from the earlier implementation, which drew 2^18 rows
        # per pass and compared the linear uniforms with gamma: the same
        # stream and the same counts.
        assert tpm_mc_cdf(*args) == want

    def test_validation(self):
        for L, reps, seed in [(3.0, 10**6, 0), (3, 1e6, 0), (3, 10**6, -1), (0, 10**6, 0),
                              (True, 10**6, 0)]:
            with pytest.raises(InputValidationError):
                tpm_mc_cdf(L, 0.2, 0.5, reps=reps, seed=seed)
        with pytest.raises(InputValidationError):
            tpm_mc_cdf(3, 0.2, 0.5, reps=10**4, seed=0)
        with pytest.raises(InputValidationError):
            tpm_mc_cdf(3, 1.5, 0.5, reps=10**6, seed=0)
        with pytest.raises(InputValidationError):
            tpm_mc_cdf(3, "0.2", 0.5, 10**6, 0)
        with pytest.raises(InputValidationError):
            tpm_mc_cdf(3, 0.2, None, 10**6, 0)


def _spec_rule(spec):
    return lambda ps: combine(spec, ps)


def _stouffer_rule(weights):
    return lambda ps: combine_stouffer_weighted(ps, weights)


def _stouffer_gbhpc_rule(weights, r):
    def factory(u):
        return lambda p_u: combine_stouffer_weighted(p_u, [weights[i] for i in u])

    return lambda ps: gbhpc_enumerate(ps, r, factory)


GROUPS_233 = GroupPartition.from_labels(list("aabbbccc"))

# (label, rule, null config, probe level, mode); "exact" rules have a
# continuous exactly-uniform null CDF, "le" rules are conservative or
# sit on a composite-null boundary.
PINNED_CASES = [
    ("fisher_k2", _spec_rule(CombinerSpec("fisher")), NullConfig(2), 0.2, "exact"),
    ("fisher_k5", _spec_rule(CombinerSpec("fisher")), NullConfig(5), 0.2, "exact"),
    ("fisher_k10", _spec_rule(CombinerSpec("fisher")), NullConfig(10), 0.2, "exact"),
    ("simes_k2", _spec_rule(CombinerSpec("simes")), NullConfig(2), 0.2, "exact"),
    ("simes_k5", _spec_rule(CombinerSpec("simes")), NullConfig(5), 0.2, "exact"),
    ("simes_k10", _spec_rule(CombinerSpec("simes")), NullConfig(10), 0.2, "exact"),
    ("bonferroni_k2", _spec_rule(CombinerSpec("bonferroni")), NullConfig(2), 0.2, "le"),
    ("bonferroni_k5", _spec_rule(CombinerSpec("bonferroni")), NullConfig(5), 0.2, "le"),
    ("bonferroni_k10", _spec_rule(CombinerSpec("bonferroni")), NullConfig(10), 0.2, "le"),
    ("stouffer_k2", _stouffer_rule([1.0, 1.0]), NullConfig(2), 0.2, "exact"),
    ("stouffer_k5", _stouffer_rule([1.0, 2.0, 3.0, 1.5, 0.5]), NullConfig(5), 0.2, "exact"),
    ("stouffer_k8", _stouffer_rule([10.0, 10.0, 10.0, 22.4, 22.4, 22.4, 31.6, 31.6]),
     NullConfig(8), 0.2, "exact"),
    # TPM is exactly calibrated only below 1 - (1-gamma)^L (its p-value
    # has an atom at 1); probe levels sit under that threshold.
    ("tpm_L3_g005", _spec_rule(CombinerSpec("tpm", tpm_gamma=0.05)), NullConfig(3), 0.05, "exact"),
    ("tpm_L3_g05", _spec_rule(CombinerSpec("tpm", tpm_gamma=0.5)), NullConfig(3), 0.2, "exact"),
    ("tpm_L5_g02", _spec_rule(CombinerSpec("tpm", tpm_gamma=0.2)), NullConfig(5), 0.2, "exact"),
    ("tpm_L8_g1", _spec_rule(CombinerSpec("tpm", tpm_gamma=1.0)), NullConfig(8), 0.2, "exact"),
    ("tpm_L5_g005", _spec_rule(CombinerSpec("tpm", tpm_gamma=0.05)), NullConfig(5), 0.05, "exact"),
    ("bhpc_fisher_r2_n5", lambda ps: bhpc(ps, 2, CombinerSpec("fisher")),
     NullConfig(5), 0.2, "le"),
    ("bhpc_simes_r3_n6", lambda ps: bhpc(ps, 3, CombinerSpec("simes")),
     NullConfig(6), 0.2, "le"),
    ("bhpc_fisher_r2_boundary6", lambda ps: bhpc(ps, 2, CombinerSpec("fisher")),
     NullConfig(8, z_means=(6.0, 0, 0, 0, 0, 0, 0, 0)), 0.05, "le"),
    ("bhpc_bonf_r2_boundary3", lambda ps: bhpc(ps, 2, CombinerSpec("bonferroni")),
     NullConfig(8, z_means=(3.0, 0, 0, 0, 0, 0, 0, 0)), 0.05, "le"),
    ("structured_r2_boundary6", lambda ps: structured_gbhpc(ps, 2, GROUPS_233),
     NullConfig(8, z_means=(6.0, 0, 0, 0, 0, 0, 0, 0)), 0.05, "le"),
    ("structured_r4_uniform", lambda ps: structured_gbhpc(ps, 4, GROUPS_233),
     NullConfig(8), 0.2, "le"),
    ("stouffer_gbhpc_r2_boundary6",
     _stouffer_gbhpc_rule([10.0, 10.0, 10.0, 22.4, 22.4, 22.4, 31.6, 31.6], 2),
     NullConfig(8, z_means=(6.0, 0, 0, 0, 0, 0, 0, 0)), 0.05, "le"),
    ("bhpc_tpm_r2_n6", lambda ps: bhpc(ps, 2, CombinerSpec("tpm", tpm_gamma=0.2)),
     NullConfig(6), 0.2, "le"),
]


class TestPinnedCalibrationSuite:
    def test_suite_has_25_cases(self):
        assert len(PINNED_CASES) == 25
        assert len({c[0] for c in PINNED_CASES}) == 25

    @pytest.mark.parametrize(
        "label,rule,config,level,mode", PINNED_CASES, ids=[c[0] for c in PINNED_CASES]
    )
    def test_case(self, label, rule, config, level, mode):
        reps = 2 * 10**4
        (est,) = mc_validity(rule, config, [level], reps=reps, seed=hash(label) % 2**31)
        se = math.sqrt(level * (1 - level) / reps)
        if mode == "exact":
            assert abs(est.rate - level) <= 4 * se, est
        else:
            assert est.rate <= level + 4 * se, est
