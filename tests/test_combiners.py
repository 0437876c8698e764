"""Combiner behavior, invariants, and the 2x2 exact test."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special, stats

from _golden import CASE_A, CASE_B, TABLE_1A
from pcmeta.combiners import (
    CombinerSpec,
    _needs_rescore,
    _upper_z_rows,
    CountTable2x2,
    combine,
    combine_bonferroni,
    combine_fisher,
    combine_simes,
    combine_stouffer_weighted,
    combine_tpm,
    fisher_exact_2x2,
    log_bonferroni_rows,
    log_fisher,
    log_fisher_rows,
    log_simes_rows,
    log_stouffer_rows,
    log_tpm_rows,
    rows_for,
)
from pcmeta.errors import InputValidationError, NumericDomainError
from pcmeta.numerics import (
    ProbValue,
    chisq_sf,
    hypergeom_log_pmf,
    log_sum_exp,
    std_normal_quantile,
    std_normal_sf,
)
from pcmeta.oracle import tpm_mc_cdf


def pv(*values):
    return [ProbValue.from_linear(v) for v in values]


ALL_SPECS = [
    CombinerSpec("fisher"),
    CombinerSpec("simes"),
    CombinerSpec("bonferroni"),
    CombinerSpec("tpm", tpm_gamma=0.2),
]


class TestCombinerSpec:
    def test_gamma_iff_tpm(self):
        with pytest.raises(InputValidationError):
            CombinerSpec("fisher", tpm_gamma=0.5)
        with pytest.raises(InputValidationError):
            CombinerSpec("tpm")

    def test_weights_iff_stouffer(self):
        with pytest.raises(InputValidationError):
            CombinerSpec("simes", weights=(1.0,))
        with pytest.raises(InputValidationError):
            CombinerSpec("stouffer_weighted")
        with pytest.raises(InputValidationError):
            CombinerSpec("stouffer_weighted", weights=(1.0, -2.0))

    def test_unknown_method(self):
        with pytest.raises(InputValidationError):
            CombinerSpec("tippett")


class TestFisher:
    def test_single_is_identity(self):
        assert math.isclose(combine_fisher(pv(0.5)).linear, 0.5, rel_tol=1e-12)

    def test_all_ones(self):
        assert combine_fisher(pv(1.0, 1.0, 1.0)).is_one

    def test_published_age_pair(self):
        got = combine_fisher(pv(9.26e-03, 6.61e-05))
        assert math.isclose(got.linear, 9.37e-06, rel_tol=1e-2)

    def test_matches_chisq_composition(self):
        ps = pv(0.03, 0.4, 0.77)
        stat = -2 * sum(p.log_value for p in ps)
        assert combine_fisher(ps).log_value == chisq_sf(stat, 6).log_value

    def test_zero_input_gives_zero(self):
        assert combine_fisher(pv(0.0, 0.6)).is_zero

    def test_empty_rejected(self):
        with pytest.raises(InputValidationError):
            combine_fisher([])


class TestSimes:
    def test_all_equal(self):
        assert math.isclose(combine_simes(pv(0.3, 0.3, 0.3)).linear, 0.3, rel_tol=1e-12)

    def test_hand_enumeration(self):
        # terms: {2*0.04/1, 2*0.5/2} -> min is 0.08
        assert math.isclose(combine_simes(pv(0.04, 0.5)).linear, 0.08, rel_tol=1e-12)

    def test_single(self):
        assert math.isclose(combine_simes(pv(0.12)).linear, 0.12, rel_tol=1e-12)

    def test_zero_input_gives_zero(self):
        assert combine_simes(pv(0.0, 0.6)).is_zero


class TestBonferroni:
    def test_single(self):
        assert math.isclose(combine_bonferroni(pv(0.2)).linear, 0.2, rel_tol=1e-12)

    def test_three(self):
        got = combine_bonferroni(pv(0.01, 0.02, 0.03))
        assert math.isclose(got.linear, 0.03, rel_tol=1e-12)

    def test_caps_at_one(self):
        assert combine_bonferroni(pv(0.6, 0.9)).is_one

    def test_zero_input_gives_zero(self):
        assert combine_bonferroni(pv(0.0, 0.6)).is_zero

    def test_never_below_simes(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            ps = pv(*rng.random(int(rng.integers(1, 8))))
            assert combine_simes(ps).log_value <= combine_bonferroni(ps).log_value


class TestStouffer:
    def test_single_is_identity(self):
        got = combine_stouffer_weighted(pv(0.37), [2.5])
        assert math.isclose(got.linear, 0.37, rel_tol=1e-12)

    def test_halves(self):
        got = combine_stouffer_weighted(pv(0.5, 0.5), [1.0, 3.0])
        assert math.isclose(got.linear, 0.5, rel_tol=1e-12)

    def test_two_at_05(self):
        got = combine_stouffer_weighted(pv(0.05, 0.05), [1.0, 1.0])
        assert math.isclose(got.linear, 0.0100, rel_tol=1e-2)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(NumericDomainError):
            combine_stouffer_weighted(pv(0.0, 0.5), [1.0, 1.0])
        with pytest.raises(NumericDomainError):
            combine_stouffer_weighted(pv(1.0, 0.5), [1.0, 1.0])

    def test_log_domain_tiny_input(self):
        tiny = ProbValue.from_log(math.log(1e-200))
        got = combine_stouffer_weighted([tiny, ProbValue.from_linear(0.5)], [1.0, 1.0])
        # z = (30.2056 + 0) / sqrt(2)
        expect = 30.205594 / math.sqrt(2.0)
        assert math.isclose(-got.log_value, -math.log(stats.norm.sf(expect)), rel_tol=1e-5)

    def test_weight_length_mismatch(self):
        with pytest.raises(InputValidationError):
            combine_stouffer_weighted(pv(0.1, 0.2), [1.0])

    def test_numpy_weights(self):
        ps = pv(0.01, 0.3, 0.2)
        want = combine_stouffer_weighted(ps, (1.0, 2.0, 0.5))
        got = combine_stouffer_weighted(ps, np.array([1.0, 2.0, 0.5]))
        assert (got.log_value, got.linear) == (want.log_value, want.linear)
        with pytest.raises(InputValidationError):
            combine_stouffer_weighted(pv(0.1), np.array([]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_nonfinite_or_nonpositive_weight_rejected(self, bad):
        # An infinite weight would reach fsum as -inf + inf (ValueError).
        with pytest.raises(InputValidationError):
            combine_stouffer_weighted(pv(0.01, 0.99), [bad, 1.0])
        with pytest.raises(InputValidationError):
            CombinerSpec("stouffer_weighted", weights=(1.0, bad))

    @pytest.mark.parametrize("kind", [list, np.array])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_weight_error_precedes_edge_p(self, kind, bad):
        # A bad weight is reported even when a p of 0 or 1 comes first.
        for ps in (pv(0.0, 0.5), pv(1.0, 0.5), pv(0.5, 1.0)):
            with pytest.raises(InputValidationError, match="weights must be finite"):
                combine_stouffer_weighted(ps, kind([1.0, bad]))
            with pytest.raises(NumericDomainError):
                combine_stouffer_weighted(ps, kind([1.0, 2.0]))

    def test_equals_two_pass_formula(self):
        # The rule before it became one pass: fsum of w * -z over the
        # scipy ufuncs, then the normal upper tail.
        def two_pass(ps, weights):
            zs = [float(special.ndtri_exp(p.log_value)) if p.linear < 1e-15
                  else float(special.ndtri(p.linear)) for p in ps]
            num = math.fsum([w * -z for w, z in zip(weights, zs)])
            return std_normal_sf(num / math.sqrt(math.fsum([w * w for w in weights])))

        rng = np.random.default_rng(31)
        for _ in range(3000):
            k = int(rng.integers(1, 11))
            log_p = np.where(rng.random(k) < 0.3, -(10.0 ** rng.uniform(-300, 3, k)),
                             np.log(rng.random(k)))
            if rng.random() < 0.1:
                log_p[:] = log_p[0]
            ps = [ProbValue.from_log(v) for v in log_p.tolist()]
            if any(p.is_zero or p.is_one for p in ps):
                continue
            weights = rng.uniform(0.1, 5.0, k)
            weights = weights if rng.random() < 0.5 else weights.tolist()
            got, want = combine_stouffer_weighted(ps, weights), two_pass(ps, weights)
            assert (repr(got.linear), repr(got.log_value)) == (
                repr(want.linear), repr(want.log_value))


class TestTpm:
    def test_gamma_one_equals_fisher(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            ps = pv(*rng.random(int(rng.integers(1, 9))))
            tpm = combine_tpm(ps, 1.0)
            fisher = combine_fisher(ps)
            assert math.isclose(tpm.log_value, fisher.log_value, rel_tol=1e-10, abs_tol=1e-300)

    def test_nothing_truncated(self):
        assert combine_tpm(pv(0.3, 0.8, 0.6), 0.05).is_one

    def test_zero_input(self):
        assert combine_tpm(pv(0.0, 0.3), 0.05).is_zero

    def test_all_ones_gamma_one(self):
        assert combine_tpm(pv(1.0, 1.0, 1.0), 1.0).is_one

    def test_against_mc_oracle(self):
        # L=3, gamma=0.05, p = [0.01, 0.2, 0.9]: only 0.01 survives the cut.
        ps = pv(0.01, 0.2, 0.9)
        closed = combine_tpm(ps, 0.05)
        w = math.exp(sum(p.log_value for p in ps if p.linear <= 0.05))
        est, se = tpm_mc_cdf(3, 0.05, w, reps=10**7, seed=404)
        assert abs(closed.linear - est) <= 3 * max(se, 1e-9)

    def test_boundary_w_equals_gamma_power(self):
        # w == gamma exactly exercises the x == 0 branch.
        got = combine_tpm(pv(0.05, 0.5), 0.05)
        assert 0.0 < got.linear < 1.0


# p-values with the edges of the Poisson series (p = 1 gives x = 0, and
# 1e-300 the largest terms), drawn from a small pool so values repeat.
_TAIL_PS = st.lists(
    st.one_of(st.sampled_from([1.0, 1e-300]), st.floats(min_value=1e-300, max_value=1.0)),
    min_size=1,
    max_size=4,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=20))


class TestSharedPoissonTail:
    """Fisher, the chi-square tail and TPM at gamma = 1 share one series."""

    @settings(max_examples=200, deadline=None)
    @given(_TAIL_PS)
    def test_log_fisher_equals_chisq_sf(self, values):
        lp = [p.log_value for p in pv(*values)]
        want = chisq_sf(-2.0 * math.fsum(lp), 2 * len(lp)).log_value
        assert log_fisher(lp) == want

    @settings(max_examples=200, deadline=None)
    @given(_TAIL_PS)
    def test_tpm_gamma_one_equals_fisher_exactly(self, values):
        ps = pv(*values)
        assert combine_tpm(ps, 1.0) == combine_fisher(ps)


class TestSharedInvariants:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.method)
    def test_monotone_in_each_argument(self, spec):
        rng = np.random.default_rng(23)
        for _ in range(500):
            k = int(rng.integers(1, 7))
            lo = rng.random(k)
            hi = np.minimum(1.0, lo + rng.random(k) * (1 - lo))
            p_lo, p_hi = pv(*lo), pv(*hi)
            assert combine(spec, p_lo).log_value <= combine(spec, p_hi).log_value

    def test_stouffer_monotone(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            k = int(rng.integers(1, 7))
            w = list(rng.random(k) + 0.5)
            lo = rng.random(k) * 0.98 + 0.01
            hi = np.minimum(0.999, lo + rng.random(k) * 0.98 * (1 - lo))
            a = combine_stouffer_weighted(pv(*lo), w)
            b = combine_stouffer_weighted(pv(*hi), w)
            assert a.log_value <= b.log_value

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.method)
    def test_symmetric_under_permutation(self, spec):
        rng = np.random.default_rng(31)
        for _ in range(100):
            vals = rng.random(6)
            ps = pv(*vals)
            shuffled = [ps[i] for i in rng.permutation(6)]
            assert combine(spec, ps).log_value == combine(spec, shuffled).log_value

    def test_sensitivity_drives_to_zero(self):
        drivers = [1e-5, 1e-10, 1e-50]
        base = [0.3, 0.5, 0.7, 0.9]
        for idx in range(len(base)):
            for name in ("fisher", "simes", "bonferroni", "stouffer"):
                logs = []
                for d in drivers:
                    vals = list(base)
                    vals[idx] = d
                    ps = pv(*vals)
                    if name == "stouffer":
                        got = combine_stouffer_weighted(ps, [1.0] * len(ps))
                    else:
                        got = combine(CombinerSpec(name), ps)
                    logs.append(got.log_value)
                assert logs[0] > logs[1] > logs[2]

    @pytest.mark.parametrize(
        "method, rows",
        [("fisher", log_fisher_rows), ("simes", log_simes_rows),
         ("bonferroni", log_bonferroni_rows)],
    )
    def test_row_forms_match_scalar(self, method, rows):
        # Roundoff agreement, with -inf (a p of 0) and 0 (all ones) exact.
        rng = np.random.default_rng(37)
        for k in range(1, 19):
            vals = rng.random((40, k)) ** rng.choice([1, 30, 300], size=(40, 1))
            vals[0, :] = 1.0
            vals[1, 0] = 0.0
            vals[2, :] = 1e-300
            log_vals = np.full(vals.shape, -np.inf)
            got = rows(np.log(vals, where=vals > 0, out=log_vals))
            for row, value in zip(vals, got):
                want = combine(CombinerSpec(method), pv(*row)).log_value
                assert value == want or math.isclose(value, want, rel_tol=1e-12)

    def test_stouffer_row_form_matches_scalar(self):
        rng = np.random.default_rng(41)
        for k in range(1, 19):
            vals = rng.random((40, k)) ** rng.choice([1, 30, 300], size=(40, 1))
            vals = np.maximum(vals, 1e-300)  # the rule is undefined at p = 0
            w = rng.uniform(0.1, 10.0, (40, k))
            z = -np.array([[std_normal_quantile(p) for p in pv(*row)] for row in vals])
            got = log_stouffer_rows(z, w)
            for row, wts, value in zip(vals, w, got):
                want = combine_stouffer_weighted(pv(*row), list(wts)).log_value
                assert math.isclose(value, want, rel_tol=1e-12, abs_tol=1e-15)

    def test_case_a_beats_case_b(self):
        a = [ProbValue.from_log(math.log(x)) for x in CASE_A]
        b = [ProbValue.from_log(math.log(x)) for x in CASE_B]
        assert combine_fisher(a).log_value < combine_fisher(b).log_value
        w = [1.0] * 5
        assert (
            combine_stouffer_weighted(a, w).log_value
            < combine_stouffer_weighted(b, w).log_value
        )


def _log_rows(*rows):
    """A (rows, k) array of log p-values, with log 0 = -inf."""
    vals = np.array(rows, dtype=float)
    out = np.full(vals.shape, -np.inf)
    return np.log(vals, where=vals > 0, out=out)


def _assert_log_close(got, want):
    # 1e-12 absolute on log p is 1e-12 relative on p: near p = 1 the two
    # sides round log p = -half + series differently.
    assert got == want or math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (got, want)


class TestTpmRows:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12).flatmap(lambda k: st.lists(
            st.lists(
                st.sampled_from((0.0, 1.0, 1e-300, 0.2, 0.05))
                | st.floats(min_value=1e-300, max_value=1.0),
                min_size=k, max_size=k,
            ),
            min_size=1, max_size=4,
        )),
        st.sampled_from((0.05, 0.2, 0.5, 1.0)) | st.floats(min_value=1e-6, max_value=1.0),
    )
    # np.log gives log 0.9911325122119108 one ulp above math.log, so p read
    # through math.log sits at gamma (truncated) and through np.log above it.
    @example(rows=[[0.9911325122119108]], gamma=0.9911325122119108)
    def test_equals_combine_tpm(self, rows, gamma):
        # Both sides read the same log p-values, the entries of one array.
        log_p = _log_rows(*rows)
        got = log_tpm_rows(log_p, gamma)
        for row, value in zip(log_p.tolist(), got.tolist()):
            want = combine_tpm([ProbValue.from_log(v) for v in row], gamma).log_value
            _assert_log_close(value, want)

    def test_no_p_below_gamma_gives_one(self):
        got = log_tpm_rows(_log_rows((0.3, 0.8, 0.6), (1.0, 0.21, 0.5)), 0.2)
        assert got.tolist() == [0.0, 0.0]

    def test_p_of_zero_gives_zero(self):
        got = log_tpm_rows(_log_rows((0.0, 0.3), (0.5, 0.0), (0.0, 0.0)), 0.2)
        assert got.tolist() == [-math.inf] * 3

    def test_p_exactly_at_gamma(self):
        # p = gamma is truncated (<=), as in the scalar rule.
        for row in [(0.05, 0.5), (0.05, 0.05, 0.9), (0.05,)]:
            (got,) = log_tpm_rows(_log_rows(row), 0.05).tolist()
            want = combine_tpm(pv(*row), 0.05).log_value
            assert got < 0.0
            _assert_log_close(got, want)

    def test_gamma_one_equals_fisher_rows(self):
        rng = np.random.default_rng(83)
        for k in range(1, 13):
            vals = rng.random((50, k)) ** rng.choice([1, 30, 300], size=(50, 1))
            log_p = np.log(np.maximum(vals, 1e-300))
            got = log_tpm_rows(log_p, 1.0)
            want = log_fisher_rows(log_p)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_tiny_and_repeated_p_values(self):
        rows = [(1e-300,) * 4, (1e-300, 0.5, 1e-300, 0.9),
                (0.05,) * 7, (0.01, 0.01, 0.3, 0.3, 0.01)]
        for gamma in (0.05, 0.2, 1.0):
            for row in rows:
                (got,) = log_tpm_rows(_log_rows(row), gamma).tolist()
                _assert_log_close(got, combine_tpm(pv(*row), gamma).log_value)


class TestRowsFor:
    SPECS = [
        CombinerSpec("fisher"),
        CombinerSpec("simes"),
        CombinerSpec("bonferroni"),
        CombinerSpec("tpm", tpm_gamma=0.2),
        CombinerSpec("stouffer_weighted", weights=(1.0, 2.0, 0.5, 3.0, 1.0)),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.method)
    def test_matches_scalar_rule(self, spec):
        rng = np.random.default_rng(89)
        vals = rng.random((200, 5)) ** rng.choice([1, 30, 300], size=(200, 1))
        vals = np.maximum(vals, 1e-300)  # the weighted rule is undefined at p = 0
        got = rows_for(spec)(np.log(vals))
        for row, value in zip(vals, got.tolist()):
            _assert_log_close(value, combine(spec, pv(*row)).log_value)

    def test_stouffer_nan_at_zero_and_one(self):
        rows = rows_for(CombinerSpec("stouffer_weighted", weights=(1.0, 2.0, 3.0)))
        got = rows(_log_rows((0.1, 0.0, 0.3), (0.1, 1.0, 0.3),
                             (1.0 - 1e-7, 0.2, 0.3), (0.1, 0.2, 0.3)))
        assert np.isnan(got[:3]).all()
        _assert_log_close(
            float(got[3]),
            combine_stouffer_weighted(pv(0.1, 0.2, 0.3), [1.0, 2.0, 3.0]).log_value,
        )

    def test_stouffer_weight_count_checked(self):
        rows = rows_for(CombinerSpec("stouffer_weighted", weights=(1.0, 2.0)))
        with pytest.raises(InputValidationError, match="2 weights for 3 p-values"):
            rows(_log_rows((0.1, 0.2, 0.3)))


class TestUpperZRows:
    def test_matches_scalar_quantile_on_both_branches(self):
        # Both sides of the 1e-15 switch between ndtri and ndtri_exp, and
        # log p below the smallest double, where only ndtri_exp works.
        ps = [1e-300, 1e-100, 1e-16, 9.99e-16, 1e-15, 1.01e-15, 1e-14, 1e-8,
              0.01, 0.3, 0.5, 0.9, 0.999, 1.0 - 2e-6]
        log_p = np.concatenate([np.log(ps), [-1e3, -1e5]])
        got = _upper_z_rows(log_p)
        for lp, z in zip(log_p.tolist(), got.tolist()):
            want = -std_normal_quantile(ProbValue.from_log(lp))
            assert z == want or math.isclose(z, want, rel_tol=1e-12), (lp, z, want)

    def test_two_dimensional_input(self):
        log_p = np.log(np.array([[1e-20, 0.2], [0.7, 1e-5]]))
        assert np.array_equal(_upper_z_rows(log_p).ravel(), _upper_z_rows(log_p.ravel()))

    def test_nan_at_zero_one_and_near_one(self):
        log_p = np.array([-math.inf, 0.0, math.log1p(-1e-7), -1e-12, -5e-324,
                          math.log1p(-2e-6)])
        got = _upper_z_rows(log_p)
        assert np.isnan(got[:5]).all()
        assert math.isfinite(got[5])


class TestNeedsRescore:
    def test_edge_of_the_tolerance(self):
        # At target 0 the tolerance is 1e-9 exactly.
        at = -1e-9
        beyond = np.nextafter(at, -np.inf)
        got = _needs_rescore(np.array([0.0, at, beyond, 1e-9, -0.5]), [0.0])
        assert got.tolist() == [True, True, False, True, False]

    def test_nan_rows_kept(self):
        got = _needs_rescore(np.array([np.nan, -3.0, np.nan, -np.inf]), [-1.0])
        assert got.tolist() == [True, False, True, False]

    def test_several_targets(self):
        targets = [math.log(0.01), math.log(0.05)]
        values = np.array([targets[0], targets[1] * (1 + 1e-12), -2.0, -np.inf, 0.0])
        assert _needs_rescore(values, targets).tolist() == [True, True, False, False, False]

    @pytest.mark.parametrize("targets", [[0.0], [-2.5], [math.log(0.01), -1e-3]])
    def test_equals_chunked_rule(self, targets):
        # The rule before it became one pass per target: 1,024-row chunks,
        # each compared with every target at once.
        def chunked(values, targets):
            tol = 1e-9 * (1.0 + np.abs(targets))
            out = np.isnan(values)
            for start in range(0, len(values), 1024):
                part = values[start : start + 1024, None]
                out[start : start + 1024] |= (np.abs(part - targets) <= tol).any(axis=1)
            return out

        edges = [np.nan, -np.inf, 0.0]
        for t in targets:
            tol = 1e-9 * (1.0 + abs(t))
            for v in (t - tol, t + tol):
                edges += [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]
            edges.append(t)
        rng = np.random.default_rng(5)
        values = rng.choice(np.array(edges), 3000)
        values[::7] = rng.uniform(-5.0, 0.0, len(values[::7]))
        got = _needs_rescore(values, targets)
        assert got.tolist() == chunked(values, targets).tolist()
        assert got.any() and not got.all()


def per_point_exact_log_p(table, convention):
    """The exact test's log p from one ``hypergeom_log_pmf`` call per
    support point: the reference for the one-pass support loop."""
    N, K, n = table.total_a + table.total_b, table.events_a + table.events_b, table.total_a
    k = table.events_a
    pmfs = {j: hypergeom_log_pmf(j, K, n, N) for j in range(max(0, n + K - N), min(n, K) + 1)}
    if convention == "min_likelihood":
        log_p = log_sum_exp([lp for lp in pmfs.values() if lp <= pmfs[k] + math.log1p(1e-7)])
    else:
        low = log_sum_exp(lp for j, lp in pmfs.items() if j <= k)
        high = log_sum_exp(lp for j, lp in pmfs.items() if j >= k)
        log_p = math.log(2.0) + min(low, high)
    return ProbValue.from_log(min(0.0, log_p)).log_value


@st.composite
def count_tables(draw):
    """Tables with totals of 1, and events of 0 or equal to the totals."""
    totals = [draw(st.one_of(st.just(1), st.integers(1, 2000))) for _ in range(2)]
    events = [draw(st.one_of(st.just(0), st.just(t), st.integers(0, t))) for t in totals]
    return CountTable2x2(events[0], totals[0], events[1], totals[1])


class TestFisherExact:
    @settings(max_examples=300)
    @given(count_tables(), st.sampled_from(["min_likelihood", "doubling"]))
    def test_equals_per_point_reference(self, table, convention):
        got = fisher_exact_2x2(table, convention)
        assert got.p_value.log_value == per_point_exact_log_p(table, convention)

    def test_published_age_le75(self):
        orr, p = fisher_exact_2x2(CountTable2x2(496, 18073, 578, 18004))
        assert math.isclose(orr, 0.85, rel_tol=1e-2)
        assert math.isclose(p.linear, 9.26e-03, rel_tol=2e-2)

    def test_published_age_ge75(self):
        orr, p = fisher_exact_2x2(CountTable2x2(415, 11188, 532, 11095))
        assert math.isclose(orr, 0.76, rel_tol=1e-2)
        assert math.isclose(p.linear, 6.61e-05, rel_tol=2e-2)

    def test_identical_arms(self):
        orr, p = fisher_exact_2x2(CountTable2x2(5, 100, 5, 100))
        assert orr == 1.0
        assert p.is_one

    def test_all_published_rows_vs_scipy(self):
        for sid, (_, ea, ta, eb, tb, _, _) in TABLE_1A.items():
            ours = fisher_exact_2x2(CountTable2x2(ea, ta, eb, tb))
            orr, p = stats.fisher_exact([[ea, ta - ea], [eb, tb - eb]])
            assert math.isclose(ours.p_value.linear, p, rel_tol=1e-9), sid
            assert math.isclose(ours.odds_ratio, orr, rel_tol=1e-12), sid

    def test_random_tables_vs_scipy(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            ta, tb = int(rng.integers(1, 60)), int(rng.integers(1, 60))
            ea, eb = int(rng.integers(0, ta + 1)), int(rng.integers(0, tb + 1))
            ours = fisher_exact_2x2(CountTable2x2(ea, ta, eb, tb))
            _, p = stats.fisher_exact([[ea, ta - ea], [eb, tb - eb]])
            assert math.isclose(ours.p_value.linear, p, rel_tol=1e-8, abs_tol=1e-300)

    def test_doubling_convention(self):
        table = CountTable2x2(8, 20, 2, 20)
        one_sided = stats.fisher_exact([[8, 12], [2, 18]], alternative="greater")[1]
        got = fisher_exact_2x2(table, convention="doubling")
        assert math.isclose(got.p_value.linear, min(1.0, 2 * one_sided), rel_tol=1e-9)

    def test_degenerate_odds_ratios(self):
        orr, p = fisher_exact_2x2(CountTable2x2(3, 10, 0, 10))
        assert math.isinf(orr) and 0 < p.linear <= 1
        orr, _ = fisher_exact_2x2(CountTable2x2(0, 10, 3, 10))
        assert orr == 0.0
        orr, _ = fisher_exact_2x2(CountTable2x2(0, 10, 0, 10))
        assert math.isnan(orr)

    def test_odds_ratio_equals_the_per_arm_ladder(self):
        # Reference: each arm's sample odds (inf when it has no non-events,
        # nan for 0/0), then a five-way ladder over the two odds.
        def sample_odds(events, total):
            non_events = total - events
            if non_events == 0:
                return math.inf if events > 0 else math.nan
            return events / non_events

        def ladder(ea, ta, eb, tb):
            odds_a, odds_b = sample_odds(ea, ta), sample_odds(eb, tb)
            if math.isnan(odds_a) or math.isnan(odds_b):
                return math.nan
            if math.isinf(odds_a):
                return math.nan if math.isinf(odds_b) else math.inf
            if odds_b == 0.0:
                return math.inf if odds_a > 0 else math.nan
            if math.isinf(odds_b):
                return 0.0
            return odds_a / odds_b

        tables = [(ea, ta, eb, tb) for ta in range(1, 13) for tb in range(1, 13)
                  for ea in range(ta + 1) for eb in range(tb + 1)]
        assert len(tables) == 90 * 90
        for table in tables:
            got = fisher_exact_2x2(CountTable2x2(*table)).odds_ratio
            assert repr(got) == repr(ladder(*table)), table

    def test_table_validation(self):
        with pytest.raises(InputValidationError):
            CountTable2x2(5, 4, 1, 10)
        with pytest.raises(InputValidationError):
            CountTable2x2(0, 0, 1, 10)
        with pytest.raises(InputValidationError):
            fisher_exact_2x2(CountTable2x2(1, 5, 1, 5), convention="mid_p")

    def test_numpy_integer_counts(self):
        table = CountTable2x2(np.int64(8), np.int32(20), np.uint8(2), np.int64(20))
        assert table == CountTable2x2(8, 20, 2, 20)
        assert fisher_exact_2x2(table) == fisher_exact_2x2(CountTable2x2(8, 20, 2, 20))

    @pytest.mark.parametrize("bad", [True, 3.0, np.float64(3.0), -1, np.int64(-1)])
    def test_non_count_raises(self, bad):
        with pytest.raises(InputValidationError, match="events_a"):
            CountTable2x2(bad, 20, 2, 20)
