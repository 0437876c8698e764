"""Kernel accuracy tests against independent high-precision oracles."""

import copy
import math
import pickle
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special as sps

from pcmeta import numerics
from pcmeta.errors import InputValidationError, NumericDomainError
from pcmeta.numerics import (
    ProbValue,
    chisq_sf,
    hypergeom_log_pmf,
    log_comb,
    log_sum_exp,
    std_normal_quantile,
    std_normal_sf,
    two_sided_log_p,
)

mpmath.mp.dps = 60


def mp_log_normal_sf(x: float) -> float:
    """High-precision log(1 - Phi(x)) via erfc."""
    return float(mpmath.log(mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2))


class TestProbValue:
    def test_zero_one_canonical(self):
        assert ProbValue.zero().linear == 0.0
        assert ProbValue.zero().log_value == -math.inf
        assert ProbValue.one().linear == 1.0
        assert ProbValue.one().log_value == 0.0
        assert ProbValue.from_linear(0.0) == ProbValue.zero()
        assert ProbValue.from_linear(1.0) == ProbValue.one()
        assert ProbValue.from_log(0.0) == ProbValue.one()
        assert ProbValue.from_log(-math.inf) == ProbValue.zero()

    def test_linear_iff_log_at_edges(self):
        # Values indistinguishable from 1 in linear space keep linear < 1.
        near_one = ProbValue.from_log(-1e-20)
        assert near_one.linear < 1.0 and near_one.log_value < 0.0
        # Log values past the linear underflow point keep linear > 0.
        tiny = ProbValue.from_log(-800.0)
        assert tiny.linear > 0.0 and math.isfinite(tiny.log_value)

    @given(st.floats(min_value=-690.0, max_value=-1e-10))
    def test_pair_agreement(self, log_p):
        pv = ProbValue.from_log(log_p)
        if pv.linear >= 1e-300:
            assert math.isclose(math.exp(pv.log_value), pv.linear, rel_tol=1e-12)

    @given(st.floats(min_value=1e-300, max_value=1.0))
    def test_roundtrip_from_linear(self, x):
        pv = ProbValue.from_linear(x)
        assert math.isclose(pv.linear, x, rel_tol=0, abs_tol=0)
        assert math.isclose(math.exp(pv.log_value), x, rel_tol=1e-12)

    def test_ordering_uses_log(self):
        a = ProbValue.from_log(-500.0)
        b = ProbValue.from_log(-400.0)
        assert a < b and b > a and a != b
        assert sorted([b, a]) == [a, b]

    def test_validation(self):
        with pytest.raises(NumericDomainError):
            ProbValue.from_linear(1.5)
        with pytest.raises(NumericDomainError):
            ProbValue.from_linear(-0.1)
        with pytest.raises(NumericDomainError):
            ProbValue.from_log(0.5)

    def test_immutable_without_dict(self):
        pv = ProbValue.from_log(-2.0)
        for field in ("linear", "log_value"):
            with pytest.raises(AttributeError):
                setattr(pv, field, 0.5)
            with pytest.raises(AttributeError):
                delattr(pv, field)
        with pytest.raises(AttributeError):
            pv.extra = 1.0
        assert not hasattr(pv, "__dict__")
        assert (pv.linear, pv.log_value) == (math.exp(-2.0), -2.0)

    @pytest.mark.parametrize("log_p", [0.0, -1e-20, -2.0, -800.0, -math.inf])
    def test_copy_and_pickle(self, log_p):
        pv = ProbValue.from_log(log_p)
        for twin in (copy.copy(pv), copy.deepcopy(pv), pickle.loads(pickle.dumps(pv))):
            assert type(twin) is ProbValue and twin == pv
            assert (twin.linear, twin.log_value) == (pv.linear, pv.log_value)

    def test_hash_and_equality_follow_log_value(self):
        a = ProbValue(0.5, math.log(0.5))
        b = ProbValue(math.nextafter(0.5, 1.0), math.log(0.5))
        assert a == b and hash(a) == hash(b) == hash(math.log(0.5))
        assert len({a, b, ProbValue.from_log(-1.0)}) == 2
        assert ProbValue.one() != 1.0 and not (ProbValue.zero() == 0.0)

    def test_orderings(self):
        a, b = ProbValue.from_log(-3.0), ProbValue.from_log(-1.0)
        assert a < b and a <= b and b > a and b >= a
        assert a <= ProbValue.from_log(-3.0) >= a
        assert not (b < a or b <= a or a > b or a >= b)
        assert max([a, b]) is b and min([b, a]) is a

    @pytest.mark.parametrize("op", ["__lt__", "__le__", "__gt__", "__ge__"])
    def test_ordering_against_other_types_is_type_error(self, op):
        assert getattr(ProbValue.one(), op)(0.5) is NotImplemented
        with pytest.raises(TypeError):
            ProbValue.one() < 0.5
        with pytest.raises(TypeError):
            0.5 >= ProbValue.zero()

    def test_repr(self):
        assert repr(ProbValue.from_log(-1.0)) == "ProbValue(0.367879, log=-1)"
        assert repr(ProbValue.zero()) == "ProbValue(0, log=-inf)"
        assert repr(ProbValue(0.25, -1.5)) == "ProbValue(0.25, log=-1.5)"

    def test_from_log_edges(self):
        one = ProbValue.from_log(-0.0)
        assert (one.linear, one.log_value) == (1.0, 0.0)
        assert math.copysign(1.0, one.log_value) == 1.0
        zero = ProbValue.from_log(-math.inf)
        assert (zero.linear, zero.log_value) == (0.0, -math.inf)
        assert zero.is_zero and one.is_one
        tiny_log = ProbValue.from_log(-1e-300)
        assert tiny_log.linear == math.nextafter(1.0, 0.0) and not tiny_log.is_one
        for bad in (math.nan, 1e-300):
            with pytest.raises(NumericDomainError):
                ProbValue.from_log(bad)


def test_log_poisson_head_table_matches_lgamma(monkeypatch):
    # An empty table makes the calls below grow it several times.
    monkeypatch.setattr(numerics, "_LOG_FACTORIALS", [])
    for k in range(1, 301):
        for x in (0.0, 1e-300, 0.3, 7.5, float(k), 250.0, 1e6):
            reference = 0.0 if x == 0.0 else log_sum_exp(
                j * math.log(x) - math.lgamma(j + 1) for j in range(k))
            assert numerics._log_poisson_head(x, k) == reference


def _assert_rows_match_scalar(x, k, got):
    for xi, value in zip(x.tolist(), got.tolist()):
        want = numerics._log_poisson_head(xi, k)
        assert math.isclose(value, want, rel_tol=1e-12, abs_tol=1e-12), (xi, k, value, want)


class TestLogPoissonHeadRows:
    """The row form (Horner's rule, with the log-space series for overflow
    rows, x = inf and arrays of fewer rows than k) against the scalar."""

    @given(st.integers(1, 40), st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=8))
    def test_against_scalar(self, k, xs):
        # Tiled to at least k rows so that Horner's rule runs; the short
        # array takes the series.
        for x in (np.resize(np.array(xs), max(k, len(xs))), np.array(xs[: k - 1])):
            _assert_rows_match_scalar(x, k, numerics._log_poisson_head_rows(x, k))

    @pytest.mark.parametrize("k", [1000, 10_000])
    def test_long_series(self, k):
        # Most rows below the overflow point, a few past it; the scalar
        # reference runs on a sample of rows.
        x = np.concatenate([np.linspace(0.0, 700.0, k - 3), [703.5, 1000.0, 5000.0]])
        got = numerics._log_poisson_head_rows(x, k)
        sample = np.r_[0:k:max(1, k // 40), k - 4 : k]
        _assert_rows_match_scalar(x[sample], k, got[sample])
        short = x[-3:]
        _assert_rows_match_scalar(short, k, numerics._log_poisson_head_rows(short, k))

    @pytest.mark.parametrize("k", [1, 2, 9])
    @pytest.mark.parametrize("rows", [1, 12])
    def test_zero_and_inf(self, k, rows):
        # rows = 1 < k takes the series whenever k > 1; rows = 12 runs Horner.
        for zero in (0.0, -0.0):
            got = numerics._log_poisson_head_rows(np.full(rows, zero), k)
            assert got.tolist() == [0.0] * rows
        assert np.isnan(numerics._log_poisson_head_rows(np.full(rows, np.inf), k)).all()

    def test_rows_past_overflow(self):
        # x e^x overflows from x ~ 703; those rows are exact in log space.
        x = np.array([1.0, 702.0, 703.5, 709.0, 710.0, 1e4, 1e300, 0.0, 5.0, 3.0])
        for k in (2, 9, 10):
            got = numerics._log_poisson_head_rows(x, k)
            _assert_rows_match_scalar(x, k, got)
        assert np.isfinite(got).all() and got[-3] == 0.0

    def test_fallback_reads_shared_table(self, monkeypatch):
        # The overflow row grows the one list table that the scalar reads.
        monkeypatch.setattr(numerics, "_LOG_FACTORIALS", [])
        x = np.array([0.5, 800.0, 2.0])
        got = numerics._log_poisson_head_rows(x, 7)
        assert numerics._LOG_FACTORIALS == [math.lgamma(j + 1) for j in range(14)]
        _assert_rows_match_scalar(x, 7, got)


class TestStdNormalSf:
    def test_at_zero(self):
        assert std_normal_sf(0.0).linear == 0.5

    def test_deep_tail_vs_asymptotic_oracle(self):
        # phi(x)/x * (1 - 1/x^2 + 3/x^4) at x = 40; relative error of the
        # expansion is O(15/x^6) ~ 4e-9.
        x = 40.0
        log_oracle = (
            -0.5 * x * x
            - 0.5 * math.log(2 * math.pi)
            - math.log(x)
            + math.log(1 - 1 / x**2 + 3 / x**4)
        )
        got = std_normal_sf(x).log_value
        assert math.isclose(got, log_oracle, rel_tol=1e-8)

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0, 8.0, 17.0, 30.0, 37.5, 40.0])
    def test_against_mpmath(self, x):
        assert math.isclose(std_normal_sf(x).log_value, mp_log_normal_sf(x), rel_tol=1e-12)

    def test_symmetry_identity(self):
        for x in [-9.0, -2.5, -0.3, 0.0, 0.7, 1.9, 4.2, 8.8]:
            total = std_normal_sf(x).linear + std_normal_sf(-x).linear
            assert math.isclose(total, 1.0, rel_tol=1e-12)

    def test_monotone_decreasing(self):
        xs = np.linspace(-10, 42, 401)
        logs = [std_normal_sf(float(x)).log_value for x in xs]
        assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_rejects_non_finite(self):
        with pytest.raises(NumericDomainError):
            std_normal_sf(math.inf)
        with pytest.raises(NumericDomainError):
            std_normal_sf(math.nan)


# Zeros of both signs, the tiniest normals, the log_ndtr tail switch
# near 38-40, far tails, infinities and NaN.
TWO_SIDED_ZS = [0.0, -0.0, 1e-300, -1e-300, 1.5, -1.5, 38.0, -38.0, 40.0, -40.0,
                1e3, -1e3, math.inf, -math.inf, math.nan]


def old_two_sided_log_p(z):
    return numerics._LOG2 + sps.log_ndtr(-np.abs(z))


class TestTwoSidedLogP:
    def test_array_bits_equal_the_three_temporary_form(self):
        z = np.array(TWO_SIDED_ZS)
        got = two_sided_log_p(z)
        assert got.dtype == np.float64 and got.shape == z.shape
        assert got.tobytes() == old_two_sided_log_p(z).tobytes()

    @pytest.mark.parametrize("z", TWO_SIDED_ZS)
    def test_scalar_gives_a_scalar_with_the_same_bits(self, z):
        for arg in (z, np.float64(z), np.array(z)):
            got = two_sided_log_p(arg)
            assert not isinstance(got, np.ndarray)
            assert np.float64(got).tobytes() == np.float64(old_two_sided_log_p(arg)).tobytes()

    def test_argument_is_left_unchanged(self):
        z = np.array(TWO_SIDED_ZS).reshape(3, 5)
        before = z.tobytes()
        got = two_sided_log_p(z)
        assert z.tobytes() == before and not np.shares_memory(got, z)

    def test_int_and_float32_arrays_keep_their_dtype_and_bits(self):
        for z in ([-3, 0, 2], np.array([1, -2], np.int32), np.array([0.5, -4.0], np.float32)):
            got, want = two_sided_log_p(z), old_two_sided_log_p(z)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def bisect_quantile(p_log: float, lo: float = -60.0, hi: float = 60.0) -> float:
    """Independent quantile oracle: bisection on the mpmath log lower tail."""
    for _ in range(200):
        mid = (lo + hi) / 2
        if mp_log_normal_sf(-mid) <= p_log:  # log Phi(mid) <= log p
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(ProbValue.from_linear(0.5)) == 0.0

    def test_upper_quantile_975(self):
        got = std_normal_quantile(ProbValue.from_linear(0.975))
        oracle = bisect_quantile(math.log(0.975))
        assert math.isclose(got, oracle, rel_tol=1e-10)
        assert math.isclose(got, 1.959964, rel_tol=1e-6)

    def test_log_domain_input(self):
        log_p = math.log(1e-200)  # -460.517...
        got = std_normal_quantile(ProbValue.from_log(log_p))
        oracle = bisect_quantile(log_p)
        assert math.isclose(got, oracle, rel_tol=1e-9)
        assert math.isclose(got, -30.2056, rel_tol=1e-4)

    @pytest.mark.parametrize("p", [1e-12, 0.01, 0.3, 0.5, 0.7, 0.999])
    def test_roundtrip_in_probability(self, p):
        x = std_normal_quantile(ProbValue.from_linear(p))
        # sf(x) should equal 1 - p to 1e-10 relative.
        assert math.isclose(std_normal_sf(x).linear, 1.0 - p, rel_tol=1e-10)

    def test_domain_errors(self):
        with pytest.raises(NumericDomainError):
            std_normal_quantile(ProbValue.zero())
        with pytest.raises(NumericDomainError):
            std_normal_quantile(ProbValue.one())


class TestScalarKernelsMatchUfuncs:
    """The scalar normal pair runs scipy's C kernels without the ufunc
    layer; its values must be the ufuncs' bit for bit."""

    def test_quantile(self):
        rng = np.random.default_rng(2024)
        logs = np.concatenate([
            np.log(rng.random(2000)),
            -(10.0 ** rng.uniform(-300, 3, 2000)),
            math.log(1e-15) + np.linspace(-1e-12, 1e-12, 201),
        ])
        branches = set()
        for log_p in logs.tolist():
            p = ProbValue.from_log(log_p)
            if p.is_zero or p.is_one:
                continue
            got = std_normal_quantile(p)
            if p.linear < 1e-15:
                want = float(sps.ndtri_exp(p.log_value))
            else:
                want = float(sps.ndtri(p.linear))
            branches.add(p.linear < 1e-15)
            assert type(got) is float and got == want, p
        assert branches == {True, False}

    def test_sf(self):
        rng = np.random.default_rng(2025)
        xs = np.concatenate([
            rng.uniform(-40.0, 40.0, 4000),
            rng.uniform(-1e4, 1e4, 500),
            10.0 ** rng.uniform(1.6, 300, 500) * rng.choice([-1.0, 1.0], 500),
            [0.0, -0.0, 5e-324, 37.5, 38.5, 1e308, -1e308],
        ])
        for x in xs.tolist():
            got = std_normal_sf(x)
            want = numerics._canonical_pair(float(sps.ndtr(-x)), float(sps.log_ndtr(-x)))
            assert (got.linear, got.log_value) == want, x
            assert type(got.linear) is float and type(got.log_value) is float


class TestChisqSf:
    def test_at_zero(self):
        assert chisq_sf(0.0, 6) == ProbValue.one()

    @pytest.mark.parametrize("t", [0.3, 2.0, 11.5, 300.0])
    def test_dof2_closed_form(self, t):
        assert math.isclose(chisq_sf(t, 2).log_value, -t / 2, rel_tol=1e-14)

    def test_fisher_pair_value(self):
        # Fisher statistic of the published pair (9.64e-01, 6.24e-03).
        assert math.isclose(chisq_sf(10.23, 4).linear, 3.68e-02, rel_tol=1e-2)

    @pytest.mark.parametrize(
        "x,dof",
        [(0.5, 2), (3.7, 4), (25.0, 10), (80.0, 8), (500.0, 10), (900.0, 18),
         (1700.0, 34)],
    )
    def test_against_mpmath(self, x, dof):
        oracle = float(
            mpmath.log(mpmath.gammainc(dof / 2, mpmath.mpf(x) / 2, mpmath.inf,
                                       regularized=True))
        )
        assert math.isclose(chisq_sf(x, dof).log_value, oracle, rel_tol=1e-12)

    def test_monotone_in_x(self):
        xs = np.linspace(0.01, 200.0, 300)
        logs = [chisq_sf(float(x), 8).log_value for x in xs]
        assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_domain(self):
        with pytest.raises(NumericDomainError):
            chisq_sf(-1.0, 4)
        with pytest.raises(NumericDomainError):
            chisq_sf(1.0, 3)
        with pytest.raises(NumericDomainError):
            chisq_sf(1.0, 0)


class TestHypergeom:
    def test_singleton_support(self):
        # All draws marked: k is forced, pmf is 1.
        assert hypergeom_log_pmf(3, 5, 3, 5) == 0.0
        assert hypergeom_log_pmf(0, 0, 4, 9) == 0.0

    def test_exact_rational_oracle(self):
        got = hypergeom_log_pmf(5, 10, 10, 20)
        oracle = Fraction(math.comb(10, 5) * math.comb(10, 5), math.comb(20, 10))
        assert math.isclose(math.exp(got), float(oracle), rel_tol=1e-12)
        assert math.isclose(float(oracle), 0.343718, rel_tol=1e-5)

    def test_normalization_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            N = int(rng.integers(1, 400))
            K = int(rng.integers(0, N + 1))
            n = int(rng.integers(0, N + 1))
            lo, hi = max(0, n + K - N), min(n, K)
            total = math.fsum(
                math.exp(hypergeom_log_pmf(k, K, n, N)) for k in range(lo, hi + 1)
            )
            assert math.isclose(total, 1.0, rel_tol=1e-10)

    def test_outside_support(self):
        with pytest.raises(NumericDomainError):
            hypergeom_log_pmf(6, 5, 10, 20)
        with pytest.raises(NumericDomainError):
            hypergeom_log_pmf(0, 10, 10, 15)  # lower bound is 5
        with pytest.raises(NumericDomainError, match="k must be a nonnegative integer"):
            hypergeom_log_pmf(-1, 10, 10, 15)

    @given(st.integers(1, 3000).flatmap(
        lambda N: st.tuples(st.integers(0, N), st.integers(0, N), st.just(N))))
    def test_support_equals_per_point_formula(self, triple):
        K, n, N = triple
        lo, values = numerics._hypergeom_log_pmfs(K, n, N)
        assert lo == max(0, n + K - N) and len(values) == min(n, K) - lo + 1
        for k, value in enumerate(values, lo):
            per_point = log_comb(K, k) + log_comb(N - K, n - k) - log_comb(N, n)
            assert value == per_point == hypergeom_log_pmf(k, K, n, N)

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("bad", [True, False, 2.0, np.float64(2.0), "2"])
    def test_integer_rule(self, position, bad):
        args = [1, 3, 2, 5]
        args[position] = bad
        with pytest.raises(InputValidationError, match="is not an integer"):
            hypergeom_log_pmf(*args)

    def test_numpy_integers(self):
        got = hypergeom_log_pmf(np.int64(1), np.int32(3), np.uint8(2), np.int16(5))
        assert type(got) is float and got == hypergeom_log_pmf(1, 3, 2, 5)
        # uint8 arithmetic would wrap at n + K - N < 0.
        assert hypergeom_log_pmf(np.uint8(0), np.uint8(1), np.uint8(1), np.uint8(5)) == (
            hypergeom_log_pmf(0, 1, 1, 5))


class TestLogSumExp:
    def test_basic(self):
        vals = [math.log(0.2), math.log(0.3)]
        assert math.isclose(log_sum_exp(vals), math.log(0.5), rel_tol=1e-14)

    def test_neg_inf_entries(self):
        assert log_sum_exp([-math.inf, math.log(0.4)]) == pytest.approx(math.log(0.4))
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf
        assert log_sum_exp([]) == -math.inf

    @given(st.lists(st.floats(min_value=-700, max_value=0), min_size=1, max_size=40))
    def test_against_scipy(self, vals):
        assert math.isclose(
            log_sum_exp(vals), float(sps.logsumexp(vals)), rel_tol=1e-12, abs_tol=1e-12
        )

    @given(st.lists(st.floats(min_value=-1000, max_value=0) | st.just(-math.inf), max_size=200)
           .flatmap(lambda vals: st.tuples(st.just(vals), st.permutations(vals))))
    def test_order_free(self, pair):
        # fsum is correctly rounded, so any order of the terms gives the same bits.
        vals, shuffled = pair
        assert repr(log_sum_exp(shuffled)) == repr(log_sum_exp(vals))

    @given(st.lists(st.lists(st.floats(min_value=-700, max_value=0) | st.just(-math.inf),
                             min_size=3, max_size=3), min_size=1, max_size=6))
    def test_rows_against_scalar(self, rows):
        # The row form agrees with log_sum_exp on every row that holds a
        # finite term; -inf terms add nothing.
        got = numerics._log_sum_exp_rows(np.array(rows))
        for row, value in zip(rows, got.tolist()):
            want = log_sum_exp(row)
            if want == -math.inf:
                continue
            assert math.isclose(value, want, rel_tol=1e-12, abs_tol=1e-12)

    def test_rows_tied_top_and_nan(self):
        got = numerics._log_sum_exp_rows(
            np.array([[-1.0, -1.0, -1.0], [0.0, -math.inf, 0.0], [math.nan, 0.0, -1.0],
                      [-math.inf] * 3])
        )
        assert got[0] == pytest.approx(-1.0 + math.log(3.0), rel=1e-15)
        assert got[1] == pytest.approx(math.log(2.0), rel=1e-15)
        assert np.isnan(got[2:]).all()
