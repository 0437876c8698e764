"""Power study for replicability testing across n = 8 unequal studies.

Per replicate, a random subset of r0 studies is non-null; their effects
are drawn i.i.d. from a Gamma distribution parameterized by mean mu0
and standard deviation sigma0 (shape (mu0/sigma0)^2, rate mu0/sigma0^2),
and study i reports the two-sided p-value of Z_i ~ N(sqrt(N_i) mu_i, 1).
Three PC rules at r = 2 are compared on power maps over (mu0, sigma0):
Fisher and Simes drop-smallest rules, and a weighted z-rule generalized
over the leave-one-out subsets with weights sqrt(N_i).  That rule scans
every subset of size n-r+1, so a config selecting it with C(n, r-1)
above ``DEFAULT_ENUMERATION_BUDGET`` raises ``EnumerationBudgetError``
before any draw, as ``gbhpc_enumerate`` does.

This module holds the study design; ``partial_conjunction.bhpc_rows``
and ``weighted_gbhpc_rows`` score each cell's (reps, n) log p-values.
The per-cell RNG stream is keyed by (seed, r0, cell index), so results
are bit-identical across runs regardless of evaluation order.  Cells run
on up to one thread per usable CPU (numpy's generators and ufuncs
release the GIL); the bits are the same for any thread count, and memory
grows by about one cell's arrays per thread (about 4 MB at reps = 20,000
and n = 8).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from typing import Sequence

from .combiners import CombinerSpec
from .errors import InputValidationError, _check_alpha, _check_kind, _LazyNumpy
from .numerics import ProbValue, two_sided_log_p
from .partial_conjunction import _check_budget, _check_r, bhpc_rows, weighted_gbhpc_rows

np = _LazyNumpy(globals())

__all__ = [
    "SimConfig",
    "PowerCell",
    "PowerGrid",
    "METHOD_NAMES",
    "draw_study_pvalues",
    "run_power_map",
]

# Each method's PC rule at cfg.r: one log p per row of a (reps, n) array.
_RULES = {
    "fisher_bhpc": lambda log_p, cfg: bhpc_rows(log_p, cfg.r, CombinerSpec("fisher")),
    "simes_bhpc": lambda log_p, cfg: bhpc_rows(log_p, cfg.r, CombinerSpec("simes")),
    "stouffer_gbhpc": lambda log_p, cfg: weighted_gbhpc_rows(
        log_p, cfg.r, np.sqrt(cfg.sample_sizes)
    ),
}
METHOD_NAMES = tuple(_RULES)


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one power-map run (a single true non-null count)."""

    r0: int
    mu0: float
    sigma0: float
    reps: int
    seed: int
    n: int = 8
    r: int = 2
    sample_sizes: tuple[int, ...] = (100, 100, 100, 500, 500, 500, 1000, 1000)
    alpha: float = 0.05
    methods: tuple[str, ...] = METHOD_NAMES

    def __post_init__(self) -> None:
        for name in ("r0", "n", "r"):
            _check_kind(name, getattr(self, name), Integral)
        _check_kind("reps", self.reps, Integral, low=10**3)
        _check_kind("seed", self.seed, Integral, low=0)
        for name in ("mu0", "sigma0"):
            _check_kind(name, getattr(self, name), Real)
        _check_kind("sample_sizes", self.sample_sizes, Integral, listed=True)
        _check_kind("methods", self.methods, str, listed=True)
        if self.n < 1 or len(self.sample_sizes) != self.n:
            raise InputValidationError("sample_sizes must have length n")
        if any(s <= 0 for s in self.sample_sizes):
            raise InputValidationError("sample sizes must be positive")
        if not (0 <= self.r0 <= self.n):
            raise InputValidationError(f"r0 must be in 0..{self.n}, got {self.r0}")
        _check_r(self.n, self.r)
        if not (0 < self.mu0 < math.inf and 0 < self.sigma0 < math.inf):
            raise InputValidationError("mu0 and sigma0 must be positive and finite")
        _check_alpha(self.alpha)
        unknown = set(self.methods) - set(METHOD_NAMES)
        if unknown:
            raise InputValidationError(f"unknown methods: {sorted(unknown)}")
        if "stouffer_gbhpc" in self.methods:
            _check_budget(self.n, self.r)  # one z-compare per subset and replicate

    @property
    def gamma_shape(self) -> float:
        return (self.mu0 / self.sigma0) ** 2

    @property
    def gamma_scale(self) -> float:
        # numpy parameterizes Gamma by shape and scale = 1/rate.
        return self.sigma0**2 / self.mu0


@dataclass(frozen=True)
class PowerCell:
    mu0: float
    sigma0: float
    method: str
    r0: int
    power: float
    se: float


@dataclass(frozen=True)
class PowerGrid:
    mu0_values: tuple[float, ...]
    sigma0_values: tuple[float, ...]
    cells: tuple[PowerCell, ...] = field(default_factory=tuple)


def _draw_log_pvalues(cfg: SimConfig, rng: np.random.Generator, reps: int) -> np.ndarray:
    """(reps, n) matrix of log two-sided p-values under cfg.

    Each step works in place and frees what it no longer needs, so at
    most two (reps, n) float arrays are alive at once.
    """
    # The r0 studies with the smallest uniform keys are non-null, drawn
    # afresh each replicate so power marginalizes over the assignment.
    mask = np.zeros((reps, cfg.n), dtype=bool)
    order = rng.random((reps, cfg.n)).argsort(axis=1)
    np.put_along_axis(mask, order[:, : cfg.r0], True, axis=1)
    del order
    mu = rng.gamma(cfg.gamma_shape, cfg.gamma_scale, size=(reps, cfg.n))
    mu[~mask] = 0.0
    mu *= np.sqrt(np.array(cfg.sample_sizes))
    z = rng.standard_normal((reps, cfg.n))
    z += mu
    del mu
    return two_sided_log_p(z)


def draw_study_pvalues(cfg: SimConfig, rng: np.random.Generator) -> list[ProbValue]:
    """One replicate of per-study p-values (log-domain)."""
    row = _draw_log_pvalues(cfg, rng, 1)[0]
    return [ProbValue.from_log(min(0.0, v)) for v in row]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _score_cell(cell_index: int, cfg: SimConfig) -> list[PowerCell]:
    """One row per method for the grid point of cfg, from its own stream."""
    rng = np.random.default_rng([cfg.seed, cfg.r0, cell_index])
    log_p = _draw_log_pvalues(cfg, rng, cfg.reps)
    rows = []
    for method in cfg.methods:
        p = float(np.mean(_RULES[method](log_p, cfg) <= math.log(cfg.alpha)))
        rows.append(
            PowerCell(
                mu0=cfg.mu0,
                sigma0=cfg.sigma0,
                method=method,
                r0=cfg.r0,
                power=p,
                se=math.sqrt(p * (1.0 - p) / cfg.reps),
            )
        )
    return rows


def run_power_map(
    cfg: SimConfig,
    mu0_values: Sequence[float],
    sigma0_values: Sequence[float],
) -> PowerGrid:
    """Power of each configured method over the (mu0, sigma0) grid.

    cfg.mu0/cfg.sigma0 are overridden cell by cell; everything else is
    taken from cfg.  Every cell is validated before the first draw.
    Deterministic given (cfg.seed, grid).

    The cells are scored on a pool of up to one thread per usable CPU,
    and the rows come back in grid order.  Each cell draws from its own
    stream, so the bits are the same for any thread count.  Each thread
    holds one cell's arrays, about 4 MB at reps = 20,000 and n = 8.  When
    a cell raises, or on KeyboardInterrupt, no queued cell starts and the
    error propagates once the cells in flight end.
    """
    from concurrent.futures import ThreadPoolExecutor
    from threading import Event

    _check_kind("mu0_values", mu0_values, Real, listed=True)
    _check_kind("sigma0_values", sigma0_values, Real, listed=True)
    cell_cfgs = [
        replace(cfg, mu0=float(mu0), sigma0=float(sigma0))
        for mu0 in mu0_values
        for sigma0 in sigma0_values
    ]
    failed = Event()

    def score(indexed: tuple[int, SimConfig]) -> list[PowerCell]:
        if failed.is_set():  # another cell raised, so pool.map will too
            return []
        try:
            return _score_cell(*indexed)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(min(len(cell_cfgs), _usable_cpus())) as pool:
        try:
            scored = list(pool.map(score, enumerate(cell_cfgs)))
        except BaseException:  # a cell's error or KeyboardInterrupt
            pool.shutdown(cancel_futures=True)
            raise
    return PowerGrid(
        mu0_values=tuple(float(v) for v in mu0_values),
        sigma0_values=tuple(float(v) for v in sigma0_values),
        cells=tuple(cell for rows in scored for cell in rows),
    )
