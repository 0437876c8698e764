"""Log-domain numeric kernels.

Everything downstream (combiners, partial-conjunction rules, simulations)
does its probability arithmetic on natural logs and only derives linear
values at the end.  That is what lets a p-value of 1e-200 compare
correctly against one of 1e-10 instead of both collapsing in double
precision.

The normal CDF/quantile pair is backed by scipy's ``log_ndtr`` /
``ndtri_exp``, which stay accurate far into the tail (|log p| ~ 1e3 and
beyond).  The chi-square upper tail for even degrees of freedom and the
hypergeometric log-PMF are computed here directly: both reduce to finite
sums of positive terms, which log-sum-exp evaluates without cancellation;
the chi-square tail's Poisson series also serves the Fisher and TPM rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterable

import numpy as np
from scipy import special

from .errors import NumericDomainError

__all__ = [
    "ProbValue",
    "log_sum_exp",
    "std_normal_sf",
    "std_normal_quantile",
    "chisq_sf",
    "two_sided_log_p",
    "hypergeom_log_pmf",
    "log_comb",
]

_NEG_INF = float("-inf")
_LOG2 = math.log(2.0)
# Smallest positive double: used so that a nonzero log never pairs with a
# linear value of exactly 0 (and vice versa for 1).
_TINY_LINEAR = 5e-324
_BELOW_ONE = math.nextafter(1.0, 0.0)


@total_ordering
@dataclass(frozen=True)
class ProbValue:
    """A probability carried in paired linear/log form.

    ``log_value`` is the natural log and is the authoritative field; the
    linear field is derived from it (or supplied alongside by a kernel
    that computes both to full precision).  Invariants:

    * ``exp(log_value)`` and ``linear`` agree to 1e-12 relative whenever
      ``linear >= 1e-300``;
    * ``linear == 0.0`` exactly when ``log_value == -inf``;
    * ``linear == 1.0`` exactly when ``log_value == 0.0``.

    Ordering and equality compare ``log_value`` only.
    """

    linear: float
    log_value: float

    @staticmethod
    def from_linear(x: float) -> "ProbValue":
        if math.isnan(x) or x < 0.0 or x > 1.0:
            raise NumericDomainError(f"probability out of [0, 1]: {x!r}")
        if x == 0.0:
            return ProbValue(0.0, _NEG_INF)
        return ProbValue(x, math.log(x))

    @staticmethod
    def from_log(log_p: float) -> "ProbValue":
        if math.isnan(log_p) or log_p > 0.0:
            raise NumericDomainError(f"log-probability above 0: {log_p!r}")
        return ProbValue(*_canonical_pair(math.exp(log_p), log_p))

    @staticmethod
    def zero() -> "ProbValue":
        return ProbValue(0.0, _NEG_INF)

    @staticmethod
    def one() -> "ProbValue":
        return ProbValue(1.0, 0.0)

    @property
    def is_zero(self) -> bool:
        return self.log_value == _NEG_INF

    @property
    def is_one(self) -> bool:
        return self.log_value == 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbValue):
            return NotImplemented
        return self.log_value == other.log_value

    def __lt__(self, other: "ProbValue") -> bool:
        return self.log_value < other.log_value

    def __hash__(self) -> int:
        return hash(self.log_value)

    def __repr__(self) -> str:
        return f"ProbValue({self.linear:.6g}, log={self.log_value:.6g})"


def _canonical_pair(linear: float, log_p: float) -> tuple[float, float]:
    """Reconcile a (linear, log) pair with the ProbValue invariants.

    At the representable edges exp() rounds to exactly 0.0 or 1.0 for
    nonzero logs; nudge the linear value one step inward so the
    iff-invariants stay exact.  The nudge is ~1 ulp, far inside the
    1e-12 agreement contract.
    """
    log_p = log_p + 0.0  # collapse -0.0 to +0.0
    if log_p == 0.0:
        return 1.0, 0.0
    if log_p == _NEG_INF:
        return 0.0, _NEG_INF
    if linear >= 1.0:
        linear = _BELOW_ONE
    elif linear <= 0.0:
        linear = _TINY_LINEAR
    return linear, log_p


def log_sum_exp(values: Iterable[float]) -> float:
    """log(sum(exp(v))) for a small iterable, tolerating -inf entries."""
    vals = [v for v in values if v != _NEG_INF]
    if not vals:
        return _NEG_INF
    m = max(vals)
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


def std_normal_sf(x: float) -> ProbValue:
    """Upper tail 1 - Phi(x) of the standard normal.

    The log form stays accurate for x well past 40 (log sf(40) is about
    -804.6), which is what the weighted-z combiner needs when fed
    extremely small p-values.
    """
    if math.isnan(x) or math.isinf(x):
        raise NumericDomainError(f"requires finite x, got {x!r}")
    log_sf = float(special.log_ndtr(-x))
    return ProbValue(*_canonical_pair(float(special.ndtr(-x)), log_sf))


def std_normal_quantile(p: ProbValue) -> float:
    """Lower-tail standard normal quantile Phi^{-1}(p).

    Accepts the log form for extreme inputs, so e.g. p = 1e-200 maps to
    about -30.2 instead of failing.  The upper quantile Phi^{-1}(1 - p)
    is just the negation.
    """
    if p.is_zero or p.is_one:
        raise NumericDomainError("quantile undefined at p in {0, 1}")
    if p.linear < 1e-15:
        return float(special.ndtri_exp(p.log_value))
    return float(special.ndtri(p.linear))


def chisq_sf(x: float, dof: int) -> ProbValue:
    """Chi-square upper tail P(chi2_dof >= x) for even dof.

    Uses the closed-form Poisson sum
    ``exp(-x/2) * sum_{j < dof/2} (x/2)^j / j!`` evaluated in log space.
    All terms are positive, so the log form is exact to roundoff at any
    x; there is no tail truncation.
    """
    if not isinstance(dof, int) or dof <= 0 or dof % 2 != 0:
        raise NumericDomainError(f"dof must be a positive even integer, got {dof!r}")
    if math.isnan(x) or x < 0.0:
        raise NumericDomainError(f"requires x >= 0, got {x!r}")
    if x == 0.0:
        return ProbValue.one()
    if math.isinf(x):
        return ProbValue.zero()
    half = x / 2.0
    return ProbValue.from_log(min(0.0, -half + _log_poisson_head(half, dof // 2)))


def _log_poisson_head(x: float, k: int) -> float:
    """log of sum_{j < k} x^j / j! for x >= 0 (0 at x = 0); the one
    Poisson series of ``chisq_sf``, ``log_fisher`` and ``combine_tpm``."""
    if x == 0.0:
        return 0.0
    log_x = math.log(x)
    return log_sum_exp(j * log_x - math.lgamma(j + 1) for j in range(k))


def two_sided_log_p(z):
    """log of the two-sided normal p-value 2 * Phi(-|z|), elementwise."""
    return _LOG2 + special.log_ndtr(-np.abs(z))


def log_comb(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k), via log-gamma."""
    if k < 0 or k > n:
        return _NEG_INF
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hypergeom_log_pmf(k: int, K: int, n: int, N: int) -> float:
    """log PMF of drawing k marked items in n draws from N with K marked.

    ``log C(K, k) + log C(N-K, n-k) - log C(N, n)`` with the usual
    support ``max(0, n+K-N) <= k <= min(n, K)``.
    """
    for name, v in (("k", k), ("K", K), ("n", n), ("N", N)):
        if not isinstance(v, int) or v < 0:
            raise NumericDomainError(f"{name} must be a nonnegative integer, got {v!r}")
    if K > N or n > N:
        raise NumericDomainError(f"need K <= N and n <= N, got K={K}, n={n}, N={N}")
    if k < max(0, n + K - N) or k > min(n, K):
        raise NumericDomainError(f"k={k} outside support for K={K}, n={n}, N={N}")
    return log_comb(K, k) + log_comb(N - K, n - k) - log_comb(N, n)
