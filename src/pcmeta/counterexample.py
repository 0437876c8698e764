"""Non-monotone level-alpha tests for the n = r = 2 conjunction null.

``phi`` rejects when both p-values are at most alpha (the monotone
max-p test).  ``phi_prime`` additionally rejects in a square at the
top-right corner of the unit square, and ``phi_tilde`` adds a chain of
squares along the diagonal.  Both additions keep every one-dimensional
conditional slice of the rejection region at measure <= alpha, which is
what makes the tests level alpha under arbitrary fixed conditioning,
yet they dominate ``phi`` pointwise: monotonicity is the only thing
ruling such tests out.

Every component is a square on the diagonal.  The base [0, alpha]^2
and the corner [corner_lo, 1]^2 are closed, except that the corner's
lower edge is open when it lies on the base (alpha >= 1/2).  The
diagonal squares are open boxes (k*alpha, (k+1)*alpha)^2 with the
largest k such that (k+1)*alpha <= 1 - alpha.  These edges keep the
components disjoint and the worst slice measure exactly alpha, boundary
lines included, for every alpha; the boundary itself carries no
probability under continuous draws.

``slice_validity`` verifies the slice bound analytically from the
square decomposition, and ``power_grids_2d`` estimates power maps of
several tests for two-sided normal statistics.  Each grid point gets one
draw, from a stream seeded by (seed, i, j), and every test scores that
same draw, so powers of different tests at a grid point differ only by
their regions; ``power_grid_2d`` is the one-test case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, Sequence

from .errors import InputValidationError, _check_alpha, _check_kind, _LazyNumpy

np = _LazyNumpy(globals())

__all__ = [
    "Rect",
    "RejectionRegion2D",
    "region_phi",
    "region_phi_prime",
    "region_phi_tilde",
    "phi",
    "phi_prime",
    "phi_tilde",
    "slice_validity",
    "PowerPoint",
    "CounterexamplePowerGrid",
    "power_grid_2d",
    "power_grids_2d",
    "TEST_NAMES",
]


@dataclass(frozen=True)
class Rect:
    """The square [x0, x1]^2 on the diagonal.

    ``closed`` marks the (lower, upper) edges as included, on both axes
    alike; interiors are always included.
    """

    x0: float
    x1: float
    closed: tuple[bool, bool] = (True, True)

    def covers(self, x):
        above = self.x0 <= x if self.closed[0] else self.x0 < x
        below = x <= self.x1 if self.closed[1] else x < self.x1
        return above & below

    def contains(self, x, y):
        return self.covers(x) & self.covers(y)


@dataclass(frozen=True)
class RejectionRegion2D:
    """Union of the base square, an optional corner set, and diagonal squares.

    * base: {max(p1, p2) <= alpha}, closed;
    * corner: {min(p1, p2) >= corner_lo}, closed but for a lower edge on
      the base (None = absent);
    * diagonal_squares: open boxes (lo, hi)^2.
    """

    alpha: float
    corner_lo: float | None = None
    diagonal_squares: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)

    def rectangles(self) -> list[Rect]:
        rects = [Rect(0.0, self.alpha)]
        if self.corner_lo is not None:
            rects.append(Rect(self.corner_lo, 1.0, (self.corner_lo > self.alpha, True)))
        rects.extend(Rect(lo, hi, (False, False)) for lo, hi in self.diagonal_squares)
        return rects

    def contains(self, p1, p2):
        """Indicator of membership; works on scalars and numpy arrays."""
        result = np.zeros(np.broadcast(p1, p2).shape, dtype=bool)
        for rect in self.rectangles():
            result |= rect.contains(p1, p2)
        return result


def _shrink_hi(lo: float, hi: float, cap: float) -> float:
    """Largest hi' <= hi with hi' - lo <= cap in floating point.

    Rounded endpoints like 3 * alpha can overshoot the exact multiple by
    an ulp, pushing a component's slice measure a hair past alpha; this
    trims at most a couple of ulps so the per-slice bound holds bitwise.
    """
    while hi - lo > cap and hi > lo:
        hi = math.nextafter(hi, lo)
    return hi


def _corner_threshold(alpha: float) -> float:
    _check_alpha(alpha)  # the loop below would not end for a tiny negative alpha
    lo = 1.0 - alpha if alpha < 0.5 else alpha
    while 1.0 - lo > alpha:  # keep the corner's slice measure <= alpha
        lo = math.nextafter(lo, 1.0)
    return lo


def region_phi(alpha: float) -> RejectionRegion2D:
    return RejectionRegion2D(alpha=alpha)


def region_phi_prime(alpha: float) -> RejectionRegion2D:
    return RejectionRegion2D(alpha=alpha, corner_lo=_corner_threshold(alpha))


def region_phi_tilde(alpha: float) -> RejectionRegion2D:
    _check_alpha(alpha)
    if not (0.0 < alpha < 0.5):
        raise InputValidationError(f"phi_tilde needs alpha in (0, 1/2), got {alpha!r}")
    k_max = math.floor((1.0 - alpha) / alpha) - 1
    squares = tuple(
        (k * alpha, _shrink_hi(k * alpha, (k + 1) * alpha, alpha))
        for k in range(1, k_max + 1)
        if (k + 1) * alpha <= 1.0 - alpha
    )
    return RejectionRegion2D(
        alpha=alpha, corner_lo=_corner_threshold(alpha), diagonal_squares=squares
    )


_REGIONS = {"phi": region_phi, "phi_prime": region_phi_prime, "phi_tilde": region_phi_tilde}
TEST_NAMES = tuple(_REGIONS)


def _decide(region: Callable[[float], RejectionRegion2D], p1, p2, alpha) -> int:
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise InputValidationError(f"p-values outside [0, 1]: {(p1, p2)!r}")
    return int(bool(region(alpha).contains(p1, p2)))


def phi(p1: float, p2: float, alpha: float) -> int:
    """1 iff max(p1, p2) <= alpha (boundary included)."""
    return _decide(region_phi, p1, p2, alpha)


def phi_prime(p1: float, p2: float, alpha: float) -> int:
    """phi plus the corner square {min(p1, p2) >= 1-alpha} (or > alpha
    when alpha >= 1/2)."""
    return _decide(region_phi_prime, p1, p2, alpha)


def phi_tilde(p1: float, p2: float, alpha: float) -> int:
    """phi_prime plus the open diagonal squares; alpha must be < 1/2."""
    return _decide(region_phi_tilde, p1, p2, alpha)


def _merged_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of a union of intervals (endpoint overlap ignored)."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return total + (cur_hi - cur_lo)


def slice_validity(region: RejectionRegion2D) -> float:
    """Exact supremum over 1-D slices (both axes) of the slice measure.

    Every component is a square on the diagonal with the same edges on
    both axes, so the slices p1 = x and p2 = x have the same measure and
    one sweep covers both axes.  That measure is piecewise constant in x
    with breakpoints at the square edges, so probing every edge and
    every midpoint between edges gives the exact supremum.  A level-alpha
    region built from per-slice bounds must return at most alpha here;
    anything larger pinpoints a validity violation.
    """
    rects = region.rectangles()
    edges = sorted({0.0, 1.0, *(r.x0 for r in rects), *(r.x1 for r in rects)})
    probes = edges + [(a + b) / 2.0 for a, b in zip(edges, edges[1:])]
    return max(
        _merged_length([(r.x0, r.x1) for r in rects if r.covers(x)]) for x in probes
    )


@dataclass(frozen=True)
class PowerPoint:
    mu1: float
    mu2: float
    test: str
    power: float
    se: float


@dataclass(frozen=True)
class CounterexamplePowerGrid:
    alpha: float
    reps: int
    seed: int
    points: tuple[PowerPoint, ...]


def _two_sided_p(z: np.ndarray) -> np.ndarray:
    """Linear, not ``exp(two_sided_log_p(z))``: the last bit decides region
    edges.  One new array, worked in place: the bits of ``2 * ndtr(-abs(z))``."""
    from scipy import special

    out = np.abs(z)
    np.negative(out, out=out)
    special.ndtr(out, out=out)
    out *= 2.0
    return out


def power_grids_2d(
    tests: Sequence[str],
    mu_grid: Sequence[float],
    alpha: float,
    reps: int,
    seed: int,
) -> list[CounterexamplePowerGrid]:
    """Monte Carlo power of several tests over the (mu1, mu2) product grid.

    Z_i ~ N(mu_i, 1) with two-sided p-values.  Grid point (i, j) gets one
    draw of ``reps`` pairs from the stream seeded by (seed, i, j), and
    every test scores that draw, so pointwise power comparisons are free
    of Monte Carlo sign noise.  Returns one grid per test, in the order
    of ``tests``.  Every input is validated, and every region built,
    before the first draw.
    """
    _check_kind("tests", tests, str, listed=True)
    for test in tests:
        if test not in TEST_NAMES:
            raise InputValidationError(f"unknown test {test!r}; pick one of {TEST_NAMES}")
    _check_kind("reps", reps, Integral, low=10**4)
    _check_kind("seed", seed, Integral, low=0)
    _check_kind("mu_grid", mu_grid, Real, listed=True)
    if not all(math.isfinite(mu) for mu in mu_grid):
        raise InputValidationError("mu_grid must hold only finite means")
    _check_alpha(alpha)
    regions = [_REGIONS[test](alpha) for test in tests]
    points: list[list[PowerPoint]] = [[] for _ in tests]
    for i, mu1 in enumerate(mu_grid):
        for j, mu2 in enumerate(mu_grid):
            noise = np.random.default_rng([seed, i, j]).standard_normal((reps, 2))
            p1 = _two_sided_p(mu1 + noise[:, 0])
            p2 = _two_sided_p(mu2 + noise[:, 1])
            for test, region, out in zip(tests, regions, points):
                power = float(np.mean(region.contains(p1, p2)))
                se = math.sqrt(power * (1.0 - power) / reps)
                out.append(PowerPoint(float(mu1), float(mu2), test, power, se))
    return [
        CounterexamplePowerGrid(alpha=alpha, reps=reps, seed=seed, points=tuple(pts))
        for pts in points
    ]


def power_grid_2d(
    test: str,
    mu_grid: Sequence[float],
    alpha: float,
    reps: int,
    seed: int,
) -> CounterexamplePowerGrid:
    """Monte Carlo power of one test over the (mu1, mu2) product grid.

    The one-test case of ``power_grids_2d``: the grid equals that test's
    entry there, since every test scores the same draw per grid point.
    """
    return power_grids_2d((test,), mu_grid, alpha, reps, seed)[0]
