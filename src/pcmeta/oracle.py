"""Monte Carlo verification backends.

These are shipped (not test-only) so that user-supplied combining rules
can be validity-checked with the same machinery the built-in rules are
held to: a rule is valid when its null rejection rate stays at or below
alpha, and the truncated-product closed form can be cross-checked
against the empirical null CDF.  Normal-model draws share the
two-sided log p-value map ``numerics.two_sided_log_p`` with the power
simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputValidationError
from .numerics import ProbValue, two_sided_log_p

__all__ = [
    "NullConfig",
    "ValidityEstimate",
    "mc_validity",
    "tpm_mc_cdf",
]


@dataclass(frozen=True)
class NullConfig:
    """Null sampling model for per-study p-values.

    With ``z_means`` unset, p-values are i.i.d. uniform.  Otherwise
    study i reports the two-sided p-value of Z ~ N(z_means[i], 1);
    zero-mean entries are exact nulls and nonzero entries place the
    configuration on the boundary of a partial-conjunction null.
    """

    n_studies: int
    z_means: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_studies < 1:
            raise InputValidationError("need at least one study")
        if self.z_means is not None and len(self.z_means) != self.n_studies:
            raise InputValidationError("z_means must have one entry per study")


@dataclass(frozen=True)
class ValidityEstimate:
    alpha: float
    rate: float
    se: float
    bound: float  # alpha + 3 * sqrt(alpha (1 - alpha) / reps)
    valid: bool  # rate <= bound


def _draw_log_p(config: NullConfig, rng: np.random.Generator, reps: int) -> np.ndarray:
    if config.z_means is None:
        u = rng.random((reps, config.n_studies))
        return np.log(u)
    z = rng.standard_normal((reps, config.n_studies)) + np.array(config.z_means)
    return two_sided_log_p(z)


def mc_validity(
    rule: Callable[[Sequence[ProbValue]], ProbValue],
    null_config: NullConfig,
    alpha_list: Sequence[float],
    reps: int,
    seed: int,
) -> list[ValidityEstimate]:
    """Empirical rejection rates of ``rule`` under the supplied null.

    Returns one estimate per alpha, each carrying the 3-standard-error
    acceptance bound and a validity flag.
    """
    if reps < 10**4:
        raise InputValidationError(f"reps must be at least 1e4, got {reps}")
    if not alpha_list or any(not (0.0 < a < 1.0) for a in alpha_list):
        raise InputValidationError("alphas must lie in (0, 1)")
    rng = np.random.default_rng([seed])
    log_p = _draw_log_p(null_config, rng, reps)
    log_alphas = [math.log(a) for a in alpha_list]
    counts = [0] * len(log_alphas)
    for row in log_p:
        value = rule([ProbValue.from_log(min(0.0, v)) for v in row]).log_value
        for i, la in enumerate(log_alphas):
            if value <= la:
                counts[i] += 1
    out = []
    for alpha, c in zip(alpha_list, counts):
        rate = c / reps
        se = math.sqrt(rate * (1.0 - rate) / reps)
        bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / reps)
        out.append(ValidityEstimate(alpha, rate, se, bound, rate <= bound))
    return out


def tpm_mc_cdf(
    L: int, gamma: float, w: float, reps: int, seed: int
) -> tuple[float, float]:
    """Empirical P(W <= w) for the truncated product of L uniforms.

    W multiplies the uniforms that land at or below gamma (empty
    product = 1).  Returns (estimate, standard error).
    """
    if L < 1:
        raise InputValidationError("L must be at least 1")
    if not (0.0 < gamma <= 1.0):
        raise InputValidationError(f"gamma must be in (0, 1], got {gamma!r}")
    if not (0.0 <= w <= 1.0):
        raise InputValidationError(f"w must be in [0, 1], got {w!r}")
    if reps < 10**6:
        raise InputValidationError(f"reps must be at least 1e6, got {reps}")
    if w == 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng([seed])
    log_w = math.log(w)
    hits = 0
    chunk = 1 << 18
    remaining = reps
    while remaining > 0:
        m = min(chunk, remaining)
        u = rng.random((m, L))
        logs = np.where(u <= gamma, np.log(u), 0.0)
        log_W = logs.sum(axis=1)
        hits += int(np.count_nonzero(log_W <= log_w))
        remaining -= m
    rate = hits / reps
    return rate, math.sqrt(rate * (1.0 - rate) / reps)
