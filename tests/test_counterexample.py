"""Non-monotone 2-study tests: regions, slice bounds, power grids."""

import dataclasses
import math

import numpy as np
import pytest

from pcmeta import counterexample
from pcmeta.counterexample import (
    TEST_NAMES,
    phi,
    phi_prime,
    phi_tilde,
    power_grid_2d,
    power_grids_2d,
    region_phi,
    region_phi_prime,
    region_phi_tilde,
    slice_validity,
)
from pcmeta.errors import InputValidationError


class TestIndicators:
    def test_phi_examples(self):
        assert phi(0.05, 0.05, 0.1) == 1
        assert phi(0.05, 0.5, 0.1) == 0
        assert phi(0.1, 0.1, 0.1) == 1  # closed boundary

    def test_phi_prime_examples(self):
        assert phi_prime(0.95, 0.96, 0.1) == 1  # corner: both >= 0.9
        assert phi_prime(0.95, 0.5, 0.1) == 0
        # large alpha switches the corner to min(p) >= alpha
        assert phi_prime(0.65, 0.7, 0.6) == 1
        assert phi_prime(0.65, 0.55, 0.6) == 0
        # the corner's lower edge is open where it meets the base's edge
        assert phi_prime(0.6, 0.9, 0.6) == 0

    def test_phi_tilde_examples(self):
        assert phi_tilde(0.3, 0.35, 0.2) == 1  # inside the (0.2, 0.4) square
        assert phi_tilde(0.3, 0.5, 0.2) == 0  # off-diagonal
        assert phi_tilde(0.85, 0.9, 0.2) == 1  # corner

    def test_phi_tilde_alpha_domain(self):
        with pytest.raises(InputValidationError):
            phi_tilde(0.1, 0.1, 0.6)

    def test_input_domain(self):
        with pytest.raises(InputValidationError):
            phi(1.1, 0.5, 0.1)

    def test_pointwise_ordering_on_dense_grid(self):
        # phi <= phi_prime <= phi_tilde on a 1000x1000 grid.
        for alpha in (0.1, 0.2):
            g = np.linspace(0.0, 1.0, 1000)
            p1, p2 = np.meshgrid(g, g)
            base = region_phi(alpha).contains(p1, p2)
            prime = region_phi_prime(alpha).contains(p1, p2)
            tilde = region_phi_tilde(alpha).contains(p1, p2)
            assert not np.any(base & ~prime)
            assert not np.any(prime & ~tilde)
            assert np.any(prime & ~base)
            assert np.any(tilde & ~prime)


class TestRegions:
    def test_tilde_squares_alpha_02(self):
        region = region_phi_tilde(0.2)
        assert len(region.diagonal_squares) == 3
        lows = [lo for lo, _ in region.diagonal_squares]
        assert np.allclose(lows, [0.2, 0.4, 0.6])
        assert region.corner_lo == 0.8

    def test_components_pairwise_disjoint(self):
        for alpha in (0.05, 0.1, 0.2, 0.33):
            rects = region_phi_tilde(alpha).rectangles()
            probes = sorted(
                {v for r in rects for v in (r.x0, r.x1)}
                | {(r.x0 + r.x1) / 2 for r in rects}
            )
            for x in probes:
                for y in probes:
                    hits = sum(bool(r.contains(x, y)) for r in rects)
                    assert hits <= 1, (alpha, x, y)

    def test_corner_branch_large_alpha(self):
        region = region_phi_prime(0.6)
        assert region.corner_lo == 0.6


class TestSliceValidity:
    def test_phi_slice_is_alpha(self):
        for alpha in (0.05, 0.1, 0.2, 0.7, 0.01, 0.03, 0.3, 0.33, 0.45):
            assert slice_validity(region_phi(alpha)) == alpha

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2, 0.01, 0.03, 0.3, 0.33, 0.45])
    def test_phi_tilde_slice_exactly_alpha(self, alpha):
        assert slice_validity(region_phi_tilde(alpha)) == alpha

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2, 0.5, 0.6, 0.7, 0.9])
    def test_phi_prime_slice_exactly_alpha(self, alpha):
        assert slice_validity(region_phi_prime(alpha)) == alpha

    def test_constructed_violation_detected(self):
        alpha = 0.2
        region = region_phi_tilde(alpha)
        # An extra square straddling the base makes some slices too heavy.
        bad = dataclasses.replace(
            region,
            diagonal_squares=region.diagonal_squares + ((alpha / 2, 3 * alpha / 2),),
        )
        assert slice_validity(bad) > alpha

    def test_boundary_slices_checked(self):
        # A duplicate of the base shifted to share its closed edge: the
        # shared-line slice carries both components.
        region = region_phi(0.2)
        bad = dataclasses.replace(region, diagonal_squares=((0.0, 0.2),))
        # The open square sits inside the closed base; union is the base.
        assert slice_validity(bad) == 0.2


class TestNullValidity:
    @pytest.mark.parametrize("alpha", [0.1, 0.2])
    def test_uniform_null_rejection_rates(self, alpha):
        rng = np.random.default_rng(71)
        reps = 10**5
        p1, p2 = rng.random(reps), rng.random(reps)
        bound = alpha + 3 * math.sqrt(alpha * (1 - alpha) / reps)
        for builder in (region_phi, region_phi_prime, region_phi_tilde):
            rate = float(np.mean(builder(alpha).contains(p1, p2)))
            assert rate <= bound, builder.__name__


class TestPowerGrid:
    def test_null_point_and_ordering(self):
        mu = [0.0, 1.0, 2.5, 5.0]
        alpha, reps, seed = 0.2, 2 * 10**4, 313
        grids = {
            name: power_grid_2d(name, mu, alpha, reps, seed)
            for name in ("phi", "phi_prime", "phi_tilde")
        }
        by_name = {
            name: {(p.mu1, p.mu2): p for p in grid.points}
            for name, grid in grids.items()
        }
        # Null point: all three at or below alpha + 3 SE.
        se_bound = alpha + 3 * math.sqrt(alpha * (1 - alpha) / reps)
        for name in grids:
            assert by_name[name][(0.0, 0.0)].power <= se_bound
        # Shared draws make the pointwise ordering exact.
        strict = 0
        for key in by_name["phi"]:
            p_phi = by_name["phi"][key].power
            p_tilde = by_name["phi_tilde"][key].power
            assert p_tilde >= p_phi
            strict += p_tilde > p_phi
        assert strict >= 1
        # Large signal: both near 1 and within 3 joint SE of each other.
        hi_phi = by_name["phi"][(5.0, 5.0)]
        hi_tilde = by_name["phi_tilde"][(5.0, 5.0)]
        joint = math.sqrt(hi_phi.se**2 + hi_tilde.se**2)
        assert hi_phi.power > 0.99 and hi_tilde.power > 0.99
        assert abs(hi_phi.power - hi_tilde.power) <= 3 * max(joint, 1e-4)

    def test_deterministic(self):
        a = power_grid_2d("phi", [0.0, 1.0], 0.1, 10**4, 5)
        b = power_grid_2d("phi", [0.0, 1.0], 0.1, 10**4, 5)
        assert a == b

    def test_input_validation(self):
        with pytest.raises(InputValidationError):
            power_grid_2d("phi", [0.0], 0.1, 100, 5)
        with pytest.raises(InputValidationError):
            power_grid_2d("nope", [0.0], 0.1, 10**4, 5)
        for reps, seed in [(1e4, 5), (10**4, -1), (10**4, 5.0)]:
            with pytest.raises(InputValidationError):
                power_grid_2d("phi", [0.0], 0.1, reps, seed)


class TestTwoSidedP:
    def test_bits_of_the_three_temporary_form_and_argument_unchanged(self):
        from scipy import special

        z = np.array([0.0, -0.0, 1e-300, -1.5, 1.5, -38.0, 40.0, -1e3, np.inf, -np.inf, np.nan])
        before = z.tobytes()
        got = counterexample._two_sided_p(z)
        assert got.tobytes() == (2.0 * special.ndtr(-np.abs(z))).tobytes()
        assert z.tobytes() == before and not np.shares_memory(got, z)


class TestPowerGrids:
    MU = [0.0, 1.5, 3.0]

    @pytest.mark.parametrize("seed", [3, 2024])
    @pytest.mark.parametrize("alpha", [0.1, 0.2])
    def test_shared_draw_equals_one_test_path(self, seed, alpha):
        grids = power_grids_2d(TEST_NAMES, self.MU, alpha, 10**4, seed)
        assert len(grids) == len(TEST_NAMES)
        for k, name in enumerate(TEST_NAMES):
            assert grids[k] == power_grid_2d(name, self.MU, alpha, 10**4, seed)

    @pytest.mark.parametrize("tests", [("phi_tilde",), ("phi_tilde", "phi"),
                                       ("phi_prime", "phi_tilde", "phi")])
    def test_subset_and_order(self, tests):
        grids = power_grids_2d(tests, self.MU, 0.2, 10**4, 9)
        assert grids == [power_grid_2d(name, self.MU, 0.2, 10**4, 9) for name in tests]
        assert [grid.points[0].test for grid in grids] == list(tests)

    @pytest.mark.parametrize("position", range(len(TEST_NAMES) + 1))
    def test_unknown_name_anywhere_raises(self, position):
        tests = list(TEST_NAMES)
        tests.insert(position, "nope")
        with pytest.raises(InputValidationError, match="unknown test 'nope'"):
            power_grids_2d(tuple(tests), self.MU, 0.1, 10**4, 0)

    @pytest.mark.parametrize("tests", [(), [], "phi", ("phi", 1)])
    def test_bad_test_lists_raise(self, tests):
        with pytest.raises(InputValidationError):
            power_grids_2d(tests, self.MU, 0.1, 10**4, 0)

    @pytest.mark.parametrize("mu_grid, alpha, name", [
        (["a"], 0.1, "mu_grid"), ([0.0, None], 0.1, "mu_grid"), ("0.0", 0.1, "mu_grid"),
        ([True], 0.1, "mu_grid"), ([0.0], "0.1", "alpha"), ([0.0], None, "alpha"),
        ([0.0], True, "alpha"),
    ])
    def test_non_numeric_means_and_alpha_raise(self, monkeypatch, mu_grid, alpha, name):
        # Checked before any region is built or any draw is made.
        def no_regions(*_):
            raise AssertionError("built a region before validating")

        for test in TEST_NAMES:
            monkeypatch.setitem(counterexample._REGIONS, test, no_regions)
        monkeypatch.setattr(np.random, "default_rng", no_regions)
        with pytest.raises(InputValidationError, match=name):
            power_grid_2d("phi", mu_grid, alpha, 10**4, 0)

    def test_numpy_means_and_alpha_pass(self):
        grid = power_grid_2d("phi", np.array([0.0, 1.5]), np.float64(0.1), 10**4, 4)
        assert grid == power_grid_2d("phi", [0.0, 1.5], 0.1, 10**4, 4)

    def test_every_region_is_built_before_the_first_draw(self, monkeypatch):
        def no_draws(*_):
            raise AssertionError("drew before validating")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(InputValidationError, match="phi_tilde needs alpha"):
            power_grids_2d(TEST_NAMES, self.MU, 0.6, 10**4, 0)
