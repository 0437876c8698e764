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

Cells are evaluated with numpy-vectorized replicates; the per-cell RNG
stream is keyed by (seed, r0, cell index), so results are bit-identical
across runs regardless of evaluation order.  The drop-smallest rules
use ``combiners.ROW_KERNELS``; the scalar path (combiners and PC
modules) is equivalent and is cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations
from numbers import Integral, Real
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .combiners import ROW_KERNELS
from .errors import InputValidationError
from .numerics import ProbValue, two_sided_log_p
from .partial_conjunction import _check_budget

__all__ = [
    "SimConfig",
    "PowerCell",
    "PowerGrid",
    "METHOD_NAMES",
    "draw_study_pvalues",
    "run_power_map",
]

METHOD_NAMES = ("fisher_bhpc", "simes_bhpc", "stouffer_gbhpc")


_KINDS = {Integral: "an integer", Real: "a number", str: "a string"}


def _check_kind(name: str, value, kind: type, *, listed: bool = False) -> None:
    """Raise unless ``value`` is a ``kind`` (a bool is not a number) or,
    when ``listed``, a list, tuple or array of them."""
    if listed and not isinstance(value, (list, tuple, np.ndarray)):
        raise InputValidationError(f"{name} must be a list, got {value!r}")
    for v in value if listed else [value]:
        if isinstance(v, bool) or not isinstance(v, kind):
            raise InputValidationError(f"{name}: {v!r} is not {_KINDS[kind]}")


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
    # Optional fixed identity of the non-null studies; by default the
    # subset is re-randomized each replicate so power marginalizes over
    # the assignment.
    nonnull_indices: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("r0", "reps", "seed", "n", "r"):
            _check_kind(name, getattr(self, name), Integral)
        for name in ("mu0", "sigma0", "alpha"):
            _check_kind(name, getattr(self, name), Real)
        _check_kind("sample_sizes", self.sample_sizes, Integral, listed=True)
        _check_kind("methods", self.methods, str, listed=True)
        if self.seed < 0:
            raise InputValidationError(f"seed must be non-negative, got {self.seed}")
        if self.n < 1 or len(self.sample_sizes) != self.n:
            raise InputValidationError("sample_sizes must have length n")
        if any(s <= 0 for s in self.sample_sizes):
            raise InputValidationError("sample sizes must be positive")
        if not (0 <= self.r0 <= self.n):
            raise InputValidationError(f"r0 must be in 0..{self.n}, got {self.r0}")
        if not (1 <= self.r <= self.n):
            raise InputValidationError(f"r must be in 1..{self.n}, got {self.r}")
        if not (0 < self.mu0 < math.inf and 0 < self.sigma0 < math.inf):
            raise InputValidationError("mu0 and sigma0 must be positive and finite")
        if self.reps < 10**3:
            raise InputValidationError(f"reps must be at least 1e3, got {self.reps}")
        if not (0.0 < self.alpha < 1.0):
            raise InputValidationError(f"alpha must be in (0, 1), got {self.alpha}")
        unknown = set(self.methods) - set(METHOD_NAMES)
        if unknown:
            raise InputValidationError(f"unknown methods: {sorted(unknown)}")
        if "stouffer_gbhpc" in self.methods:
            _check_budget(self.n, self.r)  # one z-compare per subset and replicate
        if self.nonnull_indices is not None:
            idx = tuple(self.nonnull_indices)
            if len(idx) != self.r0 or len(set(idx)) != len(idx):
                raise InputValidationError("nonnull_indices must be r0 distinct indices")
            if any(i < 0 or i >= self.n for i in idx):
                raise InputValidationError("nonnull_indices out of range")

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
    """(reps, n) matrix of log two-sided p-values under cfg."""
    if cfg.nonnull_indices is not None:
        mask = np.zeros((reps, cfg.n), dtype=bool)
        mask[:, list(cfg.nonnull_indices)] = True
    else:
        ranks = rng.random((reps, cfg.n)).argsort(axis=1).argsort(axis=1)
        mask = ranks < cfg.r0
    effects = rng.gamma(cfg.gamma_shape, cfg.gamma_scale, size=(reps, cfg.n))
    mu = np.where(mask, effects, 0.0)
    z = rng.standard_normal((reps, cfg.n)) + np.sqrt(np.array(cfg.sample_sizes)) * mu
    return two_sided_log_p(z)


def draw_study_pvalues(cfg: SimConfig, rng: np.random.Generator) -> list[ProbValue]:
    """One replicate of per-study p-values (log-domain)."""
    row = _draw_log_pvalues(cfg, rng, 1)[0]
    return [ProbValue.from_log(min(0.0, v)) for v in row]


def _reject_bhpc(
    log_p: np.ndarray, r: int, rows: Callable[[np.ndarray], np.ndarray], log_alpha: float
) -> np.ndarray:
    """Reject iff the row rule on the n-r+1 largest p-values is <= alpha."""
    kept = np.sort(log_p, axis=1)[:, r - 1 :]
    return rows(kept) <= log_alpha


def _reject_stouffer_gbhpc(
    log_p: np.ndarray, r: int, weights: np.ndarray, alpha: float
) -> np.ndarray:
    """Reject iff max over subsets u (|u| = n-r+1) of the weighted
    z-rule p-value is <= alpha, i.e. min over u of z_u >= z_alpha.

    Kept in z-space: one ``ndtri_exp`` per study and a compare per subset
    took 2.8 s on the default 300-cell ``simulate`` config (6e6 rows, 2-core
    Xeon VM), ``log_stouffer_rows`` per subset 5.3 s, 0 decisions differing.
    """
    n = log_p.shape[1]
    z = -special.ndtri_exp(log_p)
    z_alpha = -special.ndtri(alpha)
    ok = np.ones(log_p.shape[0], dtype=bool)
    for u in combinations(range(n), n - r + 1):
        w = weights[list(u)]
        z_u = z[:, list(u)] @ w / math.sqrt(float(w @ w))
        ok &= z_u >= z_alpha
    return ok


def _cell_powers(cfg: SimConfig, rng: np.random.Generator) -> dict[str, float]:
    log_p = _draw_log_pvalues(cfg, rng, cfg.reps)
    log_alpha = math.log(cfg.alpha)
    out: dict[str, float] = {}
    for method in cfg.methods:
        if method == "stouffer_gbhpc":
            weights = np.sqrt(np.array(cfg.sample_sizes, dtype=float))
            hits = _reject_stouffer_gbhpc(log_p, cfg.r, weights, cfg.alpha)
        else:
            rows = ROW_KERNELS[method.removesuffix("_bhpc")]
            hits = _reject_bhpc(log_p, cfg.r, rows, log_alpha)
        out[method] = float(np.mean(hits))
    return out


def run_power_map(
    cfg: SimConfig,
    mu0_values: Sequence[float],
    sigma0_values: Sequence[float],
) -> PowerGrid:
    """Power of each configured method over the (mu0, sigma0) grid.

    cfg.mu0/cfg.sigma0 are overridden cell by cell; everything else is
    taken from cfg.  Every cell is validated before the first draw.
    Deterministic given (cfg.seed, grid).
    """
    _check_kind("mu0_values", mu0_values, Real, listed=True)
    _check_kind("sigma0_values", sigma0_values, Real, listed=True)
    cell_cfgs = [
        replace(cfg, mu0=float(mu0), sigma0=float(sigma0))
        for mu0 in mu0_values
        for sigma0 in sigma0_values
    ]
    cells: list[PowerCell] = []
    for cell_index, cell_cfg in enumerate(cell_cfgs):
        rng = np.random.default_rng([cfg.seed, cfg.r0, cell_index])
        powers = _cell_powers(cell_cfg, rng)
        for method in cfg.methods:
            p = powers[method]
            cells.append(
                PowerCell(
                    mu0=cell_cfg.mu0,
                    sigma0=cell_cfg.sigma0,
                    method=method,
                    r0=cfg.r0,
                    power=p,
                    se=math.sqrt(p * (1.0 - p) / cfg.reps),
                )
            )
    return PowerGrid(
        mu0_values=tuple(float(v) for v in mu0_values),
        sigma0_values=tuple(float(v) for v in sigma0_values),
        cells=tuple(cells),
    )
