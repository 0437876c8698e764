"""Power-study draws, vector/scalar agreement, and reproducibility."""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from pcmeta.combiners import ROW_KERNELS, CombinerSpec, combine_stouffer_weighted
from pcmeta.errors import InputValidationError
from pcmeta.numerics import ProbValue
from pcmeta.partial_conjunction import bhpc, gbhpc_enumerate
from pcmeta.simulation import (
    METHOD_NAMES,
    SimConfig,
    _draw_log_pvalues,
    _reject_bhpc,
    _reject_stouffer_gbhpc,
    draw_study_pvalues,
    run_power_map,
)


def make_cfg(**kw):
    base = dict(r0=2, mu0=0.1, sigma0=0.05, reps=2000, seed=7)
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    def test_gamma_parameterization(self):
        cfg = make_cfg(mu0=0.3, sigma0=0.1)
        # mean = shape * scale, sd = sqrt(shape) * scale
        assert math.isclose(cfg.gamma_shape * cfg.gamma_scale, 0.3)
        assert math.isclose(math.sqrt(cfg.gamma_shape) * cfg.gamma_scale, 0.1)

    def test_validation(self):
        with pytest.raises(InputValidationError):
            make_cfg(r0=9)
        with pytest.raises(InputValidationError):
            make_cfg(mu0=-1.0)
        with pytest.raises(InputValidationError):
            make_cfg(reps=10)
        with pytest.raises(InputValidationError):
            make_cfg(methods=("median",))
        with pytest.raises(InputValidationError):
            make_cfg(nonnull_indices=(0, 0))


class TestDraws:
    def test_all_null_pvalues_are_uniform(self):
        cfg = make_cfg(r0=0, reps=1000)
        rng = np.random.default_rng(3)
        log_p = _draw_log_pvalues(cfg, rng, 10**5)
        stat = stats.kstest(np.exp(log_p.ravel()), "uniform")
        assert stat.pvalue > 0.01

    def test_strong_signal_collapses_pvalues(self):
        cfg = make_cfg(r0=8, mu0=5.0, sigma0=0.01, reps=1000)
        rng = np.random.default_rng(4)
        log_p = _draw_log_pvalues(cfg, rng, 2000)
        assert float(np.max(log_p)) < math.log(1e-10)

    def test_gamma_marginal_mean(self):
        cfg = make_cfg(r0=8, mu0=0.25, sigma0=0.1)
        rng = np.random.default_rng(5)
        draws = rng.gamma(cfg.gamma_shape, cfg.gamma_scale, size=10**5)
        se = cfg.sigma0 / math.sqrt(draws.size)
        assert abs(float(draws.mean()) - cfg.mu0) <= 3 * se

    def test_scalar_draw_shape(self):
        cfg = make_cfg()
        ps = draw_study_pvalues(cfg, np.random.default_rng(2))
        assert len(ps) == 8
        assert all(isinstance(p, ProbValue) for p in ps)

    def test_fixed_nonnull_assignment(self):
        cfg = make_cfg(r0=2, mu0=5.0, sigma0=0.01, nonnull_indices=(6, 7))
        rng = np.random.default_rng(6)
        log_p = _draw_log_pvalues(cfg, rng, 500)
        # The two designated large-N studies are always tiny.
        assert float(log_p[:, 6:].max()) < math.log(1e-6)
        # And with prob ~1 some null study is not tiny in every replicate.
        assert float(np.median(log_p[:, :6])) > math.log(0.05)


class TestVectorScalarAgreement:
    def test_rejections_match_module_rules(self):
        cfg = make_cfg(reps=1000)
        rng = np.random.default_rng(11)
        log_p = _draw_log_pvalues(cfg, rng, 300)
        log_alpha = math.log(cfg.alpha)
        weights = np.sqrt(np.array(cfg.sample_sizes, dtype=float))

        vec_fisher = _reject_bhpc(log_p, cfg.r, ROW_KERNELS["fisher"], log_alpha)
        vec_simes = _reject_bhpc(log_p, cfg.r, ROW_KERNELS["simes"], log_alpha)
        vec_stouffer = _reject_stouffer_gbhpc(log_p, cfg.r, weights, cfg.alpha)

        fisher, simes = CombinerSpec("fisher"), CombinerSpec("simes")

        def stouffer_factory(u):
            return lambda p_u: combine_stouffer_weighted(
                p_u, [weights[i] for i in u]
            )

        for i, row in enumerate(log_p):
            ps = [ProbValue.from_log(min(0.0, v)) for v in row]
            assert vec_fisher[i] == (
                bhpc(ps, cfg.r, fisher).log_value <= log_alpha
            )
            assert vec_simes[i] == (
                bhpc(ps, cfg.r, simes).log_value <= log_alpha
            )
            assert vec_stouffer[i] == (
                gbhpc_enumerate(ps, cfg.r, stouffer_factory).log_value <= log_alpha
            )

    def test_stouffer_subset_count(self):
        # r = 2 on n = 8 enumerates the 8 leave-one-out subsets.
        assert len(list(combinations(range(8), 7))) == 8


class TestRunPowerMap:
    def test_boundary_null_validity(self):
        cfg = make_cfg(r0=1, reps=2 * 10**4, seed=17, mu0=0.2, sigma0=0.1)
        grid = run_power_map(cfg, [0.05, 0.3], [0.05])
        bound = cfg.alpha + 3 * math.sqrt(cfg.alpha * (1 - cfg.alpha) / cfg.reps)
        for cell in grid.cells:
            assert cell.power <= bound, cell

    def test_bit_identical_reruns(self):
        cfg = make_cfg(reps=2000, seed=23)
        a = run_power_map(cfg, [0.1, 0.2], [0.05, 0.1])
        b = run_power_map(cfg, [0.1, 0.2], [0.05, 0.1])
        assert a == b

    def test_rows_cover_grid_and_methods(self):
        cfg = make_cfg(reps=1000)
        grid = run_power_map(cfg, [0.1, 0.2], [0.05])
        assert len(grid.cells) == 2 * 1 * len(METHOD_NAMES)
        assert {c.method for c in grid.cells} == set(METHOD_NAMES)
        for c in grid.cells:
            assert 0.0 <= c.power <= 1.0
            assert c.se == math.sqrt(c.power * (1 - c.power) / cfg.reps)

    def test_power_nondecreasing_in_mu0_heuristic(self):
        # Sanity, not a contract: along a fixed sigma0 row, power should
        # rise with mu0 up to Monte Carlo noise.
        cfg = make_cfg(r0=2, reps=2 * 10**4, seed=31)
        grid = run_power_map(cfg, [0.05, 0.15, 0.3], [0.05])
        for method in METHOD_NAMES:
            series = [c for c in grid.cells if c.method == method]
            series.sort(key=lambda c: c.mu0)
            for lo, hi in zip(series, series[1:]):
                slack = 3 * math.sqrt(lo.se**2 + hi.se**2)
                assert hi.power >= lo.power - slack
