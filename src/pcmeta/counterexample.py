"""Non-monotone level-alpha tests for the n = r = 2 conjunction null.

``phi`` rejects when both p-values are at most alpha (the monotone
max-p test).  ``phi_prime`` additionally rejects in a square at the
top-right corner of the unit square, and ``phi_tilde`` adds a chain of
squares along the diagonal.  Both additions keep every one-dimensional
conditional slice of the rejection region at measure <= alpha, which is
what makes the tests level alpha under arbitrary fixed conditioning,
yet they dominate ``phi`` pointwise: monotonicity is the only thing
ruling such tests out.

The diagonal squares are open boxes (k*alpha, (k+1)*alpha)^2 with the
largest k such that (k+1)*alpha <= 1 - alpha.  Open edges keep every
component disjoint from the closed base square and the corner set and
keep the worst slice measure exactly alpha, boundary lines included;
the boundary itself carries no probability under continuous draws.

``slice_validity`` verifies the slice bound analytically from the
rectangle decomposition, and ``power_grid_2d`` estimates power maps for
two-sided normal tests with per-grid-point seeded streams, so powers of
different tests at the same (seed, grid) share draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import special

from .errors import InputValidationError

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
    "TEST_NAMES",
]

TEST_NAMES = ("phi", "phi_prime", "phi_tilde")


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x0,x1] x [y0,y1] with edge-inclusion flags.

    ``closed`` marks (x0, x1, y0, y1) edges as included; interiors are
    always included.
    """

    x0: float
    x1: float
    y0: float
    y1: float
    closed: tuple[bool, bool, bool, bool] = (True, True, True, True)

    def covers_x(self, x: float) -> bool:
        lo = self.x0 <= x if self.closed[0] else self.x0 < x
        hi = x <= self.x1 if self.closed[1] else x < self.x1
        return lo and hi

    def contains(self, x, y):
        cx0, cx1, cy0, cy1 = self.closed
        in_x = (self.x0 <= x if cx0 else self.x0 < x) & (
            x <= self.x1 if cx1 else x < self.x1
        )
        in_y = (self.y0 <= y if cy0 else self.y0 < y) & (
            y <= self.y1 if cy1 else y < self.y1
        )
        return in_x & in_y

    def transpose(self) -> "Rect":
        cx0, cx1, cy0, cy1 = self.closed
        return Rect(self.y0, self.y1, self.x0, self.x1, (cy0, cy1, cx0, cx1))


@dataclass(frozen=True)
class RejectionRegion2D:
    """Union of the base square, an optional corner set, and diagonal squares.

    * base: {max(p1, p2) <= alpha}, closed;
    * corner: {min(p1, p2) >= corner_lo}, closed (None = absent);
    * diagonal_squares: open boxes (lo, hi)^2.
    """

    alpha: float
    base: bool = True
    corner_lo: float | None = None
    diagonal_squares: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise InputValidationError(f"alpha must be in (0, 1), got {self.alpha!r}")

    def rectangles(self) -> list[Rect]:
        rects: list[Rect] = []
        if self.base:
            rects.append(Rect(0.0, self.alpha, 0.0, self.alpha))
        if self.corner_lo is not None:
            rects.append(Rect(self.corner_lo, 1.0, self.corner_lo, 1.0))
        rects.extend(
            Rect(lo, hi, lo, hi, (False, False, False, False))
            for lo, hi in self.diagonal_squares
        )
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
    lo = 1.0 - alpha if alpha < 0.5 else alpha
    while 1.0 - lo > alpha:  # keep the corner's slice measure <= alpha
        lo = math.nextafter(lo, 1.0)
    return lo


def region_phi(alpha: float) -> RejectionRegion2D:
    return RejectionRegion2D(alpha=alpha)


def region_phi_prime(alpha: float) -> RejectionRegion2D:
    return RejectionRegion2D(alpha=alpha, corner_lo=_corner_threshold(alpha))


def region_phi_tilde(alpha: float) -> RejectionRegion2D:
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


def _check_unit(p1: float, p2: float) -> None:
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise InputValidationError(f"p-values outside [0, 1]: {(p1, p2)!r}")


def phi(p1: float, p2: float, alpha: float) -> int:
    """1 iff max(p1, p2) <= alpha (boundary included)."""
    _check_unit(p1, p2)
    return int(max(p1, p2) <= alpha)


def phi_prime(p1: float, p2: float, alpha: float) -> int:
    """phi plus the corner square {min(p1, p2) >= 1-alpha} (or >= alpha
    when alpha >= 1/2)."""
    _check_unit(p1, p2)
    return int(bool(region_phi_prime(alpha).contains(p1, p2)))


def phi_tilde(p1: float, p2: float, alpha: float) -> int:
    """phi_prime plus the open diagonal squares; alpha must be < 1/2."""
    _check_unit(p1, p2)
    return int(bool(region_phi_tilde(alpha).contains(p1, p2)))


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


def _max_slice(rects: Sequence[Rect], extra_probes: Iterable[float]) -> float:
    """sup over x of the y-measure of the slice through a rect union.

    The slice measure is piecewise constant in x with breakpoints at the
    rectangles' x-edges, so probing every breakpoint and every interval
    midpoint gives the exact supremum.  ``extra_probes`` adds defensive
    sample positions; they cannot change the result.
    """
    edges = sorted({0.0, 1.0, *(r.x0 for r in rects), *(r.x1 for r in rects)})
    probes = list(edges)
    probes.extend((a + b) / 2.0 for a, b in zip(edges, edges[1:]))
    probes.extend(extra_probes)
    worst = 0.0
    for x in probes:
        intervals = [(r.y0, r.y1) for r in rects if r.covers_x(x)]
        worst = max(worst, _merged_length(intervals))
    return worst


def slice_validity(region: RejectionRegion2D, n_grid: int = 256) -> float:
    """Exact supremum over 1-D slices (both axes) of the slice measure.

    A level-alpha region built from per-slice bounds must return at most
    alpha here; anything larger pinpoints a validity violation.
    """
    rects = region.rectangles()
    grid = [i / n_grid for i in range(n_grid + 1)] if n_grid > 0 else []
    sup_x = _max_slice(rects, grid)
    sup_y = _max_slice([r.transpose() for r in rects], grid)
    return max(sup_x, sup_y)


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
    """Linear, not ``exp(two_sided_log_p(z))``: the last bit decides region edges."""
    return 2.0 * special.ndtr(-np.abs(z))


def power_grid_2d(
    test: str,
    mu_grid: Sequence[float],
    alpha: float,
    reps: int,
    seed: int,
) -> CounterexamplePowerGrid:
    """Monte Carlo power of one test over the (mu1, mu2) product grid.

    Z_i ~ N(mu_i, 1) with two-sided p-values.  The noise stream at grid
    point (i, j) is seeded by (seed, i, j) only, so calls for different
    tests at the same seed/grid share draws and pointwise power
    comparisons are free of Monte Carlo sign noise.
    """
    if test not in TEST_NAMES:
        raise InputValidationError(f"unknown test {test!r}; pick one of {TEST_NAMES}")
    if reps < 10**4:
        raise InputValidationError(f"reps must be at least 1e4, got {reps}")
    region = {
        "phi": region_phi,
        "phi_prime": region_phi_prime,
        "phi_tilde": region_phi_tilde,
    }[test](alpha)
    points: list[PowerPoint] = []
    for i, mu1 in enumerate(mu_grid):
        for j, mu2 in enumerate(mu_grid):
            rng = np.random.default_rng([seed, i, j])
            noise = rng.standard_normal((reps, 2))
            p1 = _two_sided_p(mu1 + noise[:, 0])
            p2 = _two_sided_p(mu2 + noise[:, 1])
            hits = region.contains(p1, p2)
            power = float(np.mean(hits))
            se = math.sqrt(power * (1.0 - power) / reps)
            points.append(PowerPoint(float(mu1), float(mu2), test, power, se))
    return CounterexamplePowerGrid(
        alpha=alpha, reps=reps, seed=seed, points=tuple(points)
    )
