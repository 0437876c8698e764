"""Power-study draws, vector/scalar agreement, and reproducibility."""

import json
import math
import os
import subprocess
import sys
import threading
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from pcmeta import simulation
from pcmeta.combiners import CombinerSpec, combine_stouffer_weighted
from pcmeta.errors import EnumerationBudgetError, InputValidationError
from pcmeta.numerics import ProbValue, two_sided_log_p
from pcmeta.partial_conjunction import (
    bhpc,
    bhpc_rows,
    gbhpc_enumerate,
    weighted_gbhpc_rows,
)
from pcmeta.simulation import (
    METHOD_NAMES,
    SimConfig,
    _draw_log_pvalues,
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
            make_cfg(reps="2000")
        with pytest.raises(InputValidationError):
            make_cfg(n=8.0)
        with pytest.raises(InputValidationError):
            make_cfg(seed=-1)
        with pytest.raises(InputValidationError):
            make_cfg(methods="fisher_bhpc")
        with pytest.raises(InputValidationError):
            make_cfg(sample_sizes=(100,) * 7 + (True,))
        with pytest.raises(InputValidationError):
            make_cfg(mu0=math.inf)
        with pytest.raises(InputValidationError):  # a NaN sigma0 in the grid
            run_power_map(make_cfg(), [0.1, 0.2], [0.05, math.nan])
        with pytest.raises(InputValidationError):  # an empty grid computes nothing
            run_power_map(make_cfg(), [], [0.05])
        with pytest.raises(InputValidationError):
            run_power_map(make_cfg(), [0.1], [])

    def test_stouffer_subset_budget(self):
        # C(22, 10) = 646,646 subsets fit the 1e6 budget; C(23, 10) = 1,144,066 do not.
        make_cfg(n=22, r=11, sample_sizes=(100,) * 22)
        with pytest.raises(EnumerationBudgetError, match=r"C\(23, 10\)"):
            make_cfg(n=23, r=11, sample_sizes=(100,) * 23)
        # Without the weighted rule nothing is enumerated.
        make_cfg(n=23, r=11, sample_sizes=(100,) * 23, methods=("fisher_bhpc",))


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

    @pytest.mark.parametrize("r0", [0, 2, 4, 8])
    def test_mask_equals_double_argsort_reference(self, r0):
        # The non-null mask takes one argsort; inverting it with a second
        # argsort and comparing ranks with r0 must give the same matrix.
        cfg = make_cfg(r0=r0, mu0=0.3, sigma0=0.2)
        reps = 5000
        rng = np.random.default_rng([11, r0])
        ranks = rng.random((reps, cfg.n)).argsort(axis=1).argsort(axis=1)
        effects = rng.gamma(cfg.gamma_shape, cfg.gamma_scale, size=(reps, cfg.n))
        mu = np.where(ranks < r0, effects, 0.0)
        z = rng.standard_normal((reps, cfg.n)) + np.sqrt(np.array(cfg.sample_sizes)) * mu
        expected = two_sided_log_p(z)
        got = _draw_log_pvalues(cfg, np.random.default_rng([11, r0]), reps)
        assert np.array_equal(got, expected)


class TestVectorScalarAgreement:
    def test_rejections_match_module_rules(self):
        cfg = make_cfg(reps=1000)
        rng = np.random.default_rng(11)
        log_p = _draw_log_pvalues(cfg, rng, 300)
        log_alpha = math.log(cfg.alpha)
        weights = np.sqrt(np.array(cfg.sample_sizes, dtype=float))

        vec_fisher = bhpc_rows(log_p, cfg.r, CombinerSpec("fisher")) <= log_alpha
        vec_simes = bhpc_rows(log_p, cfg.r, CombinerSpec("simes")) <= log_alpha
        vec_stouffer = weighted_gbhpc_rows(log_p, cfg.r, weights) <= log_alpha

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

    def test_numpy_integer_r(self):
        # SimConfig takes any integer; the PC rules are handed a plain int.
        a = run_power_map(make_cfg(r=np.int64(3)), [0.1], [0.05])
        assert a == run_power_map(make_cfg(r=3), [0.1], [0.05])

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

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_same_grid_in_cell_order_for_any_cpu_count(self, cpus, monkeypatch):
        cfg = make_cfg(reps=1000, seed=41)
        mu0s, sigma0s = [0.1, 0.2, 0.3], [0.05, 0.1]
        expected = run_power_map(cfg, mu0s, sigma0s)
        threads = set()
        draw = simulation._draw_log_pvalues
        monkeypatch.setattr(simulation, "_draw_log_pvalues",
                            lambda *a: threads.add(threading.get_ident()) or draw(*a))
        monkeypatch.setattr(simulation.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        assert simulation._usable_cpus() == cpus
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            got = run_power_map(cfg, mu0s, sigma0s)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert [(c.mu0, c.sigma0, c.method) for c in got.cells] == [
            (m, s, method) for m in mu0s for s in sigma0s for method in METHOD_NAMES]
        assert 1 <= len(threads) <= cpus and threading.get_ident() not in threads

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("kind", [RuntimeError, KeyboardInterrupt])
    def test_failing_cell_raises_and_no_queued_cell_draws(self, cpus, kind, monkeypatch):
        # Cell 2 of a 3x3 grid raises.  Cells 0 and 1 come before it, and
        # only cells already in flight on the other workers may draw after.
        mu0s, sigma0s = [0.1, 0.2, 0.3], [0.05, 0.1, 0.15]
        error = kind("cell 2")
        drawn = []
        draw = simulation._draw_log_pvalues

        def failing(cfg, rng, reps):
            drawn.append((cfg.mu0, cfg.sigma0))
            if (cfg.mu0, cfg.sigma0) == (mu0s[0], sigma0s[2]):
                raise error
            return draw(cfg, rng, reps)

        monkeypatch.setattr(simulation, "_draw_log_pvalues", failing)
        monkeypatch.setattr(simulation.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        with pytest.raises(kind) as raised:
            run_power_map(make_cfg(reps=1000), mu0s, sigma0s)
        assert raised.value is error
        assert (mu0s[0], sigma0s[2]) in drawn and len(drawn) <= 2 + cpus, drawn

    def test_first_reads_in_pool_threads_of_a_fresh_process(self, tmp_path):
        # A fresh process binds each module's lazy numpy and scipy names on
        # their first reads, which four pool threads make at once here.
        code = """
import json, os, sys
from pcmeta import simulation
os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
sys.setswitchinterval(1e-6)
cfg = simulation.SimConfig(r0=2, mu0=0.1, sigma0=0.05, reps=1000, seed=43)
grid = simulation.run_power_map(cfg, [0.1, 0.2], [0.05, 0.1])
print(json.dumps([[c.mu0, c.sigma0, c.method, c.power.hex()] for c in grid.cells]))
"""
        src = Path(simulation.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        grid = run_power_map(make_cfg(reps=1000, seed=43), [0.1, 0.2], [0.05, 0.1])
        assert json.loads(proc.stdout) == [[c.mu0, c.sigma0, c.method, c.power.hex()]
                                           for c in grid.cells]
