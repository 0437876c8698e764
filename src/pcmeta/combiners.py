"""Meta-analysis p-value combiners and the 2x2 exact test.

Five combining rules are provided: Fisher, Simes, Bonferroni, a weighted
z-score (Stouffer) rule, and the truncated product method (TPM).  All of
them are valid, monotone and sensitive for the global null under
independent (or positively dependent, where applicable) inputs, and all
arithmetic is done on log p-values.

Fisher, Simes, Bonferroni and the weighted z-rule also have row-wise
array forms (``log_*_rows``) that take a (rows, k) array of log
p-values and agree with the scalar rules to roundoff, not bit for bit;
subset enumeration uses them to screen subsets before rescoring the
best with the scalar rules, which stay exact (``combine_fisher`` equals
``chisq_sf`` bit for bit).  ``ROW_KERNELS`` maps rule names to row forms.

``fisher_exact_2x2`` produces the per-subgroup two-sided p-values used
by the replicability pipeline when the input data are event counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy import special

from .errors import InputValidationError, NumericDomainError
from .numerics import (
    ProbValue,
    _log_poisson_head,
    hypergeom_log_pmf,
    log_comb,
    log_sum_exp,
    std_normal_quantile,
    std_normal_sf,
)

__all__ = [
    "CombinerSpec",
    "CountTable2x2",
    "FisherExactResult",
    "SYMMETRIC_METHODS",
    "ROW_KERNELS",
    "combine",
    "log_fisher",
    "log_fisher_rows",
    "log_simes_rows",
    "log_bonferroni_rows",
    "log_stouffer_rows",
    "combine_fisher",
    "combine_simes",
    "combine_bonferroni",
    "combine_stouffer_weighted",
    "combine_tpm",
    "fisher_exact_2x2",
]

METHODS = ("fisher", "simes", "bonferroni", "stouffer_weighted", "tpm")
# Rules whose value depends only on the multiset of inputs.
SYMMETRIC_METHODS = frozenset({"fisher", "simes", "bonferroni", "tpm"})

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class CombinerSpec:
    """Declarative description of a combining rule.

    ``tpm_gamma`` is required iff ``method == "tpm"``; ``weights`` (one
    positive weight per study, semantically sqrt(n_i)/sigma_i) is
    required iff ``method == "stouffer_weighted"``.
    """

    method: str
    tpm_gamma: float | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InputValidationError(f"unknown combiner method {self.method!r}")
        if (self.method == "tpm") != (self.tpm_gamma is not None):
            raise InputValidationError("tpm_gamma must be given iff method == 'tpm'")
        if self.tpm_gamma is not None and not (0.0 < self.tpm_gamma <= 1.0):
            raise InputValidationError(f"tpm_gamma must be in (0, 1], got {self.tpm_gamma}")
        if (self.method == "stouffer_weighted") != (self.weights is not None):
            raise InputValidationError(
                "weights must be given iff method == 'stouffer_weighted'"
            )
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
            _check_weights(self.weights)

    @property
    def is_symmetric(self) -> bool:
        return self.method in SYMMETRIC_METHODS


def combine(spec: CombinerSpec, ps: Sequence[ProbValue]) -> ProbValue:
    """Apply the rule described by ``spec`` to ``ps``."""
    if spec.method == "fisher":
        return combine_fisher(ps)
    if spec.method == "simes":
        return combine_simes(ps)
    if spec.method == "bonferroni":
        return combine_bonferroni(ps)
    if spec.method == "stouffer_weighted":
        return combine_stouffer_weighted(ps, spec.weights)
    return combine_tpm(ps, spec.tpm_gamma)


def _require_nonempty(ps: Sequence[ProbValue]) -> None:
    if len(ps) == 0:
        raise InputValidationError("cannot combine an empty p-value vector")


def _check_weights(weights: Sequence[float]) -> None:
    """Raise unless the weights are non-empty, finite and positive."""
    if not weights or not all(0.0 < w < math.inf for w in weights):
        raise InputValidationError("weights must be finite and strictly positive")


def log_fisher(log_ps: Sequence[float]) -> float:
    """log of the Fisher combination, straight from log p-values.

    Hot path for subset enumeration; ``combine_fisher`` is the
    ProbValue wrapper.
    """
    if any(lp == _NEG_INF for lp in log_ps):
        return _NEG_INF
    half = -math.fsum(log_ps)  # chi-square statistic / 2
    return min(0.0, -half + _log_poisson_head(half, len(log_ps)))


def log_fisher_rows(log_p: np.ndarray) -> np.ndarray:
    """``log_fisher`` of each row of a (rows, k) array of log p-values.

    The log-sum-exp over the k Poisson terms is plain numpy, in the same
    arithmetic as ``scipy.special.logsumexp`` (log1p of the terms below
    the largest) without its temporaries.  Rows with a p of 0 give -inf
    and rows of all ones give 0, as in ``log_fisher``.
    """
    js = np.arange(log_p.shape[1])
    half = -log_p.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = js * np.log(half)[:, None] - special.gammaln(js + 1)
        top = terms.max(axis=1, keepdims=True)
        at_top = terms == top
        count = at_top.sum(axis=1, keepdims=True)
        below = np.exp(np.where(at_top, _NEG_INF, terms) - top)
        rest = below.sum(axis=1, keepdims=True)
        series = np.log1p(rest / count) + np.log(count) + top
        out = np.minimum(0.0, -half + series[:, 0])
    out[half == 0.0] = 0.0
    out[half == np.inf] = _NEG_INF
    return out


def log_simes_rows(log_p: np.ndarray) -> np.ndarray:
    """Row-wise Simes combination of a (rows, k) array of log p-values."""
    k = log_p.shape[1]
    scale = math.log(k) - np.log(np.arange(1, k + 1))
    return np.minimum(0.0, (np.sort(log_p, axis=1) + scale).min(axis=1))


def log_bonferroni_rows(log_p: np.ndarray) -> np.ndarray:
    """Row-wise Bonferroni combination of a (rows, k) array of log p-values."""
    return np.minimum(0.0, math.log(log_p.shape[1]) + log_p.min(axis=1))


def log_stouffer_rows(z: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise weighted z-rule from (rows, k) arrays of z_i = Phi^{-1}(1 - p_i)
    and of their weights: log(1 - Phi(sum w_i z_i / sqrt(sum w_i^2)))."""
    stat = (weights * z).sum(axis=1) / np.sqrt((weights * weights).sum(axis=1))
    return special.log_ndtr(-stat)


# Row forms of the symmetric rules, by ``CombinerSpec.method``; TPM has none.
ROW_KERNELS = {
    "fisher": log_fisher_rows,
    "simes": log_simes_rows,
    "bonferroni": log_bonferroni_rows,
}


def combine_fisher(ps: Sequence[ProbValue]) -> ProbValue:
    """Fisher's method: chi-square tail of -2 * sum(log p) on 2k dof.

    Equals ``chisq_sf(-2 * sum(log p_i), 2k)`` bit for bit; a p of
    exactly 0 yields exactly 0.
    """
    _require_nonempty(ps)
    return ProbValue.from_log(log_fisher([p.log_value for p in ps]))


def combine_simes(ps: Sequence[ProbValue]) -> ProbValue:
    """Simes' method: min over i of k * p_(i) / i, capped at 1."""
    _require_nonempty(ps)
    k = len(ps)
    logs = sorted(p.log_value for p in ps)
    log_k = math.log(k)
    best = min((log_k - math.log(i)) + lp for i, lp in enumerate(logs, start=1))
    return ProbValue.from_log(min(0.0, best))


def combine_bonferroni(ps: Sequence[ProbValue]) -> ProbValue:
    """Bonferroni: min(1, k * min p)."""
    _require_nonempty(ps)
    best = math.log(len(ps)) + min(p.log_value for p in ps)
    return ProbValue.from_log(min(0.0, best))


def combine_stouffer_weighted(
    ps: Sequence[ProbValue], weights: Sequence[float]
) -> ProbValue:
    """Weighted z-score rule: 1 - Phi(sum w_i z_i / sqrt(sum w_i^2)).

    ``z_i = Phi^{-1}(1 - p_i)``, evaluated through the log form for tiny
    p, so inputs like 1e-200 keep their full weight.  Raises on p_i of
    exactly 0 or 1, where the quantile is undefined.
    """
    _require_nonempty(ps)
    if len(weights) != len(ps):
        raise InputValidationError(f"{len(weights)} weights for {len(ps)} p-values")
    _check_weights(weights)
    if any(p.is_zero or p.is_one for p in ps):
        raise NumericDomainError("stouffer combination undefined at p in {0, 1}")
    num = math.fsum(w * -std_normal_quantile(p) for w, p in zip(weights, ps))
    denom = math.sqrt(math.fsum(w * w for w in weights))
    return std_normal_sf(num / denom)


def combine_tpm(ps: Sequence[ProbValue], gamma: float) -> ProbValue:
    """Truncated product method, independent null.

    The statistic is ``w = prod of the p_i that are <= gamma`` (empty
    product = 1).  The null CDF P(W <= w) has the closed form

        sum_{k=1..L} C(L,k) (1-gamma)^(L-k) *
            [ w * sum_{s<k} (k ln gamma - ln w)^s / s!   if w <= gamma^k
              gamma^k                                    otherwise ]

    plus the k = 0 term (1-gamma)^L, which only enters at w = 1.  With
    gamma = 1 this reduces exactly to Fisher's method.
    """
    _require_nonempty(ps)
    if not (0.0 < gamma <= 1.0):
        raise InputValidationError(f"gamma must be in (0, 1], got {gamma!r}")
    L = len(ps)
    log_gamma = math.log(gamma)
    truncated = [p.log_value for p in ps if p.log_value <= log_gamma]
    if not truncated:
        return ProbValue.one()
    log_w = math.fsum(truncated)
    if log_w == _NEG_INF:
        return ProbValue.zero()
    # log(1 - gamma); the (L-k) multiplier is 0 whenever this is -inf.
    log_1mg = math.log1p(-gamma) if gamma < 1.0 else _NEG_INF
    terms: list[float] = []
    for k in range(1, L + 1):
        if k < L and log_1mg == _NEG_INF:
            continue
        base = log_comb(L, k) + (0.0 if k == L else (L - k) * log_1mg)
        if log_w <= k * log_gamma:
            inner = _log_poisson_head(k * log_gamma - log_w, k)
            terms.append(base + log_w + inner)
        else:
            terms.append(base + k * log_gamma)
    if log_w == 0.0 and log_1mg != _NEG_INF:
        terms.append(L * log_1mg)
    return ProbValue.from_log(min(0.0, log_sum_exp(terms)))


@dataclass(frozen=True)
class CountTable2x2:
    """Event counts for two arms: ``events_x`` of ``total_x`` had events."""

    events_a: int
    total_a: int
    events_b: int
    total_b: int

    def __post_init__(self) -> None:
        for name in ("events_a", "total_a", "events_b", "total_b"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise InputValidationError(f"{name} must be a nonnegative integer, got {v!r}")
        if self.total_a <= 0 or self.total_b <= 0:
            raise InputValidationError("totals must be positive")
        if self.events_a > self.total_a or self.events_b > self.total_b:
            raise InputValidationError("events cannot exceed totals")


class FisherExactResult(NamedTuple):
    odds_ratio: float
    p_value: ProbValue


def _sample_odds(events: int, total: int) -> float:
    non_events = total - events
    if non_events == 0:
        return math.inf if events > 0 else math.nan
    return events / non_events


def fisher_exact_2x2(
    table: CountTable2x2, convention: str = "min_likelihood"
) -> FisherExactResult:
    """Two-sided Fisher exact test on a 2x2 table of counts.

    ``convention`` selects the two-sided definition:

    * ``"min_likelihood"`` (default): sum the hypergeometric
      probabilities of all tables with fixed margins that are no more
      probable than the observed one (with a 1e-7 relative slack for
      floating-point ties);
    * ``"doubling"``: twice the smaller one-sided tail, capped at 1.

    The odds ratio is the sample OR; a zero denominator is reported as
    +inf (or nan for the degenerate 0/0 case) with the p-value still
    computed.
    """
    if convention not in ("min_likelihood", "doubling"):
        raise InputValidationError(f"unknown convention {convention!r}")
    n_total = table.total_a + table.total_b
    marked = table.events_a + table.events_b
    draws = table.total_a
    k_obs = table.events_a
    lo = max(0, draws + marked - n_total)
    hi = min(draws, marked)
    log_pmfs = {j: hypergeom_log_pmf(j, marked, draws, n_total) for j in range(lo, hi + 1)}
    log_obs = log_pmfs[k_obs]
    if convention == "min_likelihood":
        slack = math.log1p(1e-7)
        included = [lp for lp in log_pmfs.values() if lp <= log_obs + slack]
        log_p = log_sum_exp(included)
    else:
        low = log_sum_exp(lp for j, lp in log_pmfs.items() if j <= k_obs)
        high = log_sum_exp(lp for j, lp in log_pmfs.items() if j >= k_obs)
        log_p = math.log(2.0) + min(low, high)
    p = ProbValue.from_log(min(0.0, log_p))
    odds_a = _sample_odds(table.events_a, table.total_a)
    odds_b = _sample_odds(table.events_b, table.total_b)
    if math.isnan(odds_a) or math.isnan(odds_b):
        odds_ratio = math.nan
    elif math.isinf(odds_a):
        odds_ratio = math.nan if math.isinf(odds_b) else math.inf
    elif odds_b == 0.0:
        odds_ratio = math.inf if odds_a > 0 else math.nan
    elif math.isinf(odds_b):
        odds_ratio = 0.0
    else:
        odds_ratio = odds_a / odds_b
    return FisherExactResult(odds_ratio, p)
