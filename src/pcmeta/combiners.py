"""Meta-analysis p-value combiners and the 2x2 exact test.

Five combining rules are provided: Fisher, Simes, Bonferroni, a weighted
z-score (Stouffer) rule, and the truncated product method (TPM).  All of
them are valid, monotone and sensitive for the global null under
independent (or positively dependent, where applicable) inputs, and all
arithmetic is done on log p-values.

Every rule also has a row-wise array form (``log_*_rows``) that takes a
(rows, k) array of log p-values and agrees with the scalar rule to
roundoff, not bit for bit, or gives NaN where it cannot score a row;
``combine`` and ``rows_for`` read one table of (scalar, row) forms.  The
Monte Carlo validity oracle scores with them, and leaves to the scalar
rules, which stay exact (``combine_fisher`` equals ``chisq_sf`` bit for
bit), the rows that ``_needs_rescore`` selects: NaN rows and rows near a
decision value.  Subset enumeration calls only the scalar rules.

``fisher_exact_2x2`` produces the per-subgroup two-sided p-values used
by the replicability pipeline when the input data are event counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import InputValidationError, NumericDomainError, _check_kind, _LazyNumpy
from .numerics import (
    ProbValue,
    _hypergeom_log_pmfs,
    _log_poisson_head,
    _log_poisson_head_rows,
    _log_sum_exp_rows,
    _log_sum_within,
    log_comb,
    log_sum_exp,
    std_normal_quantile,
    std_normal_sf,
)

np = _LazyNumpy(globals())

__all__ = [
    "CombinerSpec",
    "CountTable2x2",
    "FisherExactResult",
    "SYMMETRIC_METHODS",
    "combine",
    "log_fisher",
    "log_fisher_rows",
    "log_simes_rows",
    "log_bonferroni_rows",
    "log_stouffer_rows",
    "log_tpm_rows",
    "rows_for",
    "combine_fisher",
    "combine_simes",
    "combine_bonferroni",
    "combine_stouffer_weighted",
    "combine_tpm",
    "fisher_exact_2x2",
]

# Rules whose value depends only on the multiset of inputs.
SYMMETRIC_METHODS = frozenset({"fisher", "simes", "bonferroni", "tpm"})

_NEG_INF = float("-inf")
_INF = float("inf")
_RESCORE_RTOL = 1e-9  # the row forms agree to ~1e-13 relative, far inside


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
        if self.tpm_gamma is not None:
            _check_gamma("tpm_gamma", self.tpm_gamma)
        if (self.method == "stouffer_weighted") != (self.weights is not None):
            raise InputValidationError(
                "weights must be given iff method == 'stouffer_weighted'"
            )
        if self.weights is not None:
            object.__setattr__(self, "weights", _check_weights(self.weights))

    @property
    def is_symmetric(self) -> bool:
        return self.method in SYMMETRIC_METHODS


def _require_nonempty(ps: Sequence[ProbValue]) -> None:
    if len(ps) == 0:
        raise InputValidationError("cannot combine an empty p-value vector")


_BAD_WEIGHTS = "weights must be finite and strictly positive, with squares and sum in (0, inf)"


def _check_weights(weights: Iterable[float]) -> tuple[float, ...]:
    """The weights as floats; raise unless they are a non-empty run of numbers
    (not bools), positive with squares, and a sum of squares, in (0, inf)."""
    weights = tuple(weights)
    _check_kind("weights", weights, Real, listed=True)
    if not all(w > 0.0 and 0.0 < w * w < _INF for w in weights):
        raise InputValidationError(_BAD_WEIGHTS)
    _sum_of_squares([w * w for w in weights])
    return tuple(map(float, weights))


def _sum_of_squares(squares: list[float]) -> float:
    """``math.fsum(squares)``, raising ``InputValidationError`` where it overflows."""
    try:
        return math.fsum(squares)
    except OverflowError:
        raise InputValidationError(_BAD_WEIGHTS) from None


def _check_gamma(name: str, gamma: float) -> None:
    """Raise unless ``gamma``, a TPM truncation point, is a number in (0, 1]."""
    _check_kind(name, gamma, Real)
    if not 0.0 < gamma <= 1.0:
        raise InputValidationError(f"{name} must be in (0, 1], got {gamma!r}")


def log_fisher(log_ps: Sequence[float]) -> float:
    """log of the Fisher combination, straight from log p-values.

    Hot path for subset enumeration; ``combine_fisher`` is the
    ProbValue wrapper.
    """
    if _NEG_INF in log_ps:
        return _NEG_INF
    half = -math.fsum(log_ps)  # chi-square statistic / 2
    return min(0.0, -half + _log_poisson_head(half, len(log_ps)))


def log_fisher_rows(log_p: np.ndarray) -> np.ndarray:
    """``log_fisher`` of each row of a (rows, k) array of log p-values.

    Rows with a p of 0 give -inf and rows of all ones give 0, as in
    ``log_fisher``.
    """
    half = -log_p.sum(axis=1)  # chi-square statistic / 2
    out = np.minimum(0.0, -half + _log_poisson_head_rows(half, log_p.shape[1]))
    out[half == np.inf] = _NEG_INF
    return out


def log_simes_rows(log_p: np.ndarray) -> np.ndarray:
    """Row-wise Simes combination of a (rows, k) array of log p-values."""
    return _log_simes_sorted_rows(np.sort(log_p, axis=1))


def _log_simes_sorted_rows(log_p: np.ndarray) -> np.ndarray:
    """``log_simes_rows`` of rows already sorted in ascending order."""
    k = log_p.shape[1]
    scale = math.log(k) - np.log(np.arange(1, k + 1))
    return np.minimum(0.0, (log_p + scale).min(axis=1))


def log_bonferroni_rows(log_p: np.ndarray) -> np.ndarray:
    """Row-wise Bonferroni combination of a (rows, k) array of log p-values."""
    return np.minimum(0.0, math.log(log_p.shape[1]) + log_p.min(axis=1))


def log_stouffer_rows(z: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise weighted z-rule from (rows, k) arrays of z_i = Phi^{-1}(1 - p_i)
    and of their weights: log(1 - Phi(sum w_i z_i / sqrt(sum w_i^2)))."""
    from scipy import special

    wz, ww = (weights * z).sum(axis=1), (weights * weights).sum(axis=1)
    return special.log_ndtr(-(wz / np.sqrt(ww)))


def log_tpm_rows(log_p: np.ndarray, gamma: float) -> np.ndarray:
    """Row-wise ``combine_tpm`` of a (rows, L) array of log p-values.

    The same closed form, one k = 1..L term at a time over all rows:
    log w is the row sum of the log p-values at or below log gamma.
    Rows with no p <= gamma give 0 and rows with a p of 0 give -inf.
    """
    rows, L = log_p.shape
    log_gamma = math.log(gamma)
    below = log_p <= log_gamma
    log_w = np.where(below, log_p, 0.0).sum(axis=1)
    terms = np.full((rows, L), _NEG_INF)
    for k, base in _tpm_bases(L, gamma):
        inside = log_w <= k * log_gamma
        x = np.where(inside, k * log_gamma - log_w, 0.0)
        head = _log_poisson_head_rows(x, k)
        terms[:, k - 1] = base + np.where(inside, log_w + head, k * log_gamma)
    out = np.minimum(0.0, _log_sum_exp_rows(terms))
    out[~below.any(axis=1)] = 0.0
    out[log_w == _NEG_INF] = _NEG_INF
    return out


def _upper_z_rows(log_p: np.ndarray) -> np.ndarray:
    """z = Phi^{-1}(1 - p) of each entry of an array of log p-values, by
    ``std_normal_quantile``'s branch: ``ndtri`` of the linear p at or
    above 1e-15, ``ndtri_exp`` below.  NaN at p = 0, and within 1e-6 of
    1, where exp of a tiny log p may round to 1 but ``ProbValue`` nudges
    the linear value below it: the scalar rule scores those.
    """
    from scipy import special

    linear = np.exp(log_p)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = -np.where(linear < 1e-15, special.ndtri_exp(log_p), special.ndtri(linear))
    z[(log_p == _NEG_INF) | (linear > 1.0 - 1e-6)] = math.nan
    return z


def _log_stouffer_p_rows(log_p: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Row-wise ``combine_stouffer_weighted`` from log p-values; NaN for
    the rows holding a p that ``_upper_z_rows`` maps to NaN."""
    if len(weights) != log_p.shape[1]:
        raise InputValidationError(f"{len(weights)} weights for {log_p.shape[1]} p-values")
    z = _upper_z_rows(log_p)
    return log_stouffer_rows(z, np.broadcast_to(weights, z.shape))


def _needs_rescore(values: np.ndarray, targets: Sequence[float]) -> np.ndarray:
    """Which row-form values the scalar rule must settle: NaN ones and
    those within tol = 1e-9 * (1 + |t|) of any target t.  For every
    other value the scalar value lies on the same side of each target.
    """
    out, gap = np.isnan(values), np.empty_like(values)
    for t, tol in zip(targets, _RESCORE_RTOL * (1.0 + np.abs(targets))):
        out |= np.abs(np.subtract(values, t, out=gap), out=gap) <= tol
    return out


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
    logs = sorted([p.log_value for p in ps])
    log_k = math.log(k)
    best = min([(log_k - math.log(i)) + lp for i, lp in enumerate(logs, start=1)])
    return ProbValue.from_log(min(0.0, best))


def combine_bonferroni(ps: Sequence[ProbValue]) -> ProbValue:
    """Bonferroni: min(1, k * min p)."""
    _require_nonempty(ps)
    best = math.log(len(ps)) + min([p.log_value for p in ps])
    return ProbValue.from_log(min(0.0, best))


def combine_stouffer_weighted(
    ps: Sequence[ProbValue], weights: Sequence[float]
) -> ProbValue:
    """Weighted z-score rule: 1 - Phi(sum w_i z_i / sqrt(sum w_i^2)).

    ``z_i = Phi^{-1}(1 - p_i)``, evaluated through the log form for tiny
    p, so inputs like 1e-200 keep their full weight.  One pass over the
    (w_i, p_i) pairs checks each weight, notes a p_i of exactly 0 or 1
    (where the quantile is undefined) and collects w_i z_i and w_i^2.  A
    bad weight (``_check_weights``' rule) raises ``InputValidationError``
    when seen, or for its sum of squares after the pass, before a p_i in
    {0, 1} raises ``NumericDomainError``.
    """
    _require_nonempty(ps)
    if len(weights) != len(ps):
        raise InputValidationError(f"{len(weights)} weights for {len(ps)} p-values")
    terms: list[float] = []
    squares: list[float] = []
    at_edge = False
    for w, p in zip(weights, ps):
        if w.__class__ is not float:
            _check_kind("weights", w, Real)
        if not (w > 0.0 and 0.0 < w * w < _INF):  # _check_weights' rule
            raise InputValidationError(_BAD_WEIGHTS)
        log_p = p.log_value
        if log_p == _NEG_INF or log_p == 0.0:
            at_edge = True
        else:
            terms.append(w * -std_normal_quantile(p))
        squares.append(w * w)
    total = _sum_of_squares(squares)
    if at_edge:
        raise NumericDomainError("stouffer combination undefined at p in {0, 1}")
    return std_normal_sf(math.fsum(terms) / math.sqrt(total))


def combine_tpm(ps: Sequence[ProbValue], gamma: float) -> ProbValue:
    """Truncated product method, independent null.

    The statistic is ``w = prod of the p_i that are <= gamma`` (empty
    product = 1).  The null CDF P(W <= w) has the closed form

        sum_{k=1..L} C(L,k) (1-gamma)^(L-k) *
            [ w * sum_{s<k} (k ln gamma - ln w)^s / s!   if w <= gamma^k
              gamma^k                                    otherwise ]

    plus the k = 0 term (1-gamma)^L.  No p <= gamma returns 1 before the
    sum, and otherwise w = 1 needs gamma = 1, where that term is 0, so the
    sum leaves it out.  With gamma = 1 this reduces exactly to Fisher's method.
    """
    _require_nonempty(ps)
    _check_gamma("gamma", gamma)
    L = len(ps)
    log_gamma = math.log(gamma)
    truncated = [p.log_value for p in ps if p.log_value <= log_gamma]
    if not truncated:
        return ProbValue.one()
    log_w = math.fsum(truncated)
    if log_w == _NEG_INF:
        return ProbValue.zero()
    terms: list[float] = []
    for k, base in _tpm_bases(L, gamma):
        if log_w <= k * log_gamma:
            inner = _log_poisson_head(k * log_gamma - log_w, k)
            terms.append(base + log_w + inner)
        else:
            terms.append(base + k * log_gamma)
    return ProbValue.from_log(min(0.0, log_sum_exp(terms)))


def _tpm_bases(L: int, gamma: float) -> list[tuple[int, float]]:
    """(k, log C(L, k) + (L-k) log(1 - gamma)) for the terms of the TPM sum,
    k = 1..L, or only k = L at gamma = 1, where (1 - gamma)^(L-k) is 0."""
    log_1mg = math.log1p(-gamma) if gamma < 1.0 else _NEG_INF
    return [(k, log_comb(L, k) + (0.0 if k == L else (L - k) * log_1mg))
            for k in range(1 if gamma < 1.0 else L, L + 1)]


# method -> (scalar rule, row form, the CombinerSpec field both also take)
_RULES = {
    "fisher": (combine_fisher, log_fisher_rows, None),
    "simes": (combine_simes, log_simes_rows, None),
    "bonferroni": (combine_bonferroni, log_bonferroni_rows, None),
    "stouffer_weighted": (combine_stouffer_weighted, _log_stouffer_p_rows, "weights"),
    "tpm": (combine_tpm, log_tpm_rows, "tpm_gamma"),
}
METHODS = tuple(_RULES)


def combine(spec: CombinerSpec, ps: Sequence[ProbValue]) -> ProbValue:
    """Apply the rule described by ``spec`` to ``ps``."""
    scalar, _, field = _RULES[spec.method]
    return scalar(ps) if field is None else scalar(ps, getattr(spec, field))


def rows_for(spec: CombinerSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The row form of ``spec``'s rule: a (rows, k) array of log p-values
    to the approximate log combined p of each row."""
    _, rows, field = _RULES[spec.method]
    return rows if field is None else lambda log_p: rows(log_p, getattr(spec, field))


@dataclass(frozen=True)
class CountTable2x2:
    """Event counts for two arms: ``events_x`` of ``total_x`` had events."""

    events_a: int
    total_a: int
    events_b: int
    total_b: int

    def __post_init__(self) -> None:
        for name, low in (("events_a", 0), ("total_a", 1), ("events_b", 0), ("total_b", 1)):
            v = getattr(self, name)
            _check_kind(name, v, Integral, low=low, high=2**53)  # each count exact as a double
            object.__setattr__(self, name, int(v))
        if self.events_a > self.total_a or self.events_b > self.total_b:
            raise InputValidationError("events cannot exceed totals")


class FisherExactResult(NamedTuple):
    odds_ratio: float
    p_value: ProbValue


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

    Each sum equals ``log_sum_exp`` over the whole support bit for bit but
    runs over a window of it, first about 9.5 sd beyond the mode and k.
    The PMF is log-concave (f(j+1)/f(j) = (K-j)(n-j)/((j+1)(N-K-n+j+1))
    falls in j), so past an edge of log-PMF v and outward ratio q the terms
    sum to at most exp(v + e - log f(k)) q/(1 - q) times the observed one,
    e = 1e-10 (lgamma(N+1) + 1) bounding rounding.  An edge whose bound
    exceeds exp(-gap) moves out as far as q says it must.  ``fsum`` rounds
    correctly, so the window's sum S is the support's when its rounded
    residual plus the bounds is under half an ulp of S; else gap doubles,
    up to the whole support, where nothing is left out.

    The odds ratio is the sample OR; a zero denominator is reported as
    +inf (or nan for the degenerate 0/0 case) with the p-value still
    computed.
    """
    if convention not in ("min_likelihood", "doubling"):
        raise InputValidationError(f"unknown convention {convention!r}")
    N, K = table.total_a + table.total_b, table.events_a + table.events_b
    n, k = table.total_a, table.events_a
    lo, hi, mode = max(0, n + K - N), min(n, K), (n + 1) * (K + 1) // (N + 2)
    half = math.ceil(9.5 * math.sqrt(n * K * (N - K) * (N - n) / (N * N * (N - 1)))) + 8
    far = math.isqrt((k - mode) ** 2 + half * half) + 1  # past the mirror of k
    a, b = max(lo, min(k - half, mode - far)), min(hi, max(k + half, mode + far))
    slop, gap, log_p = 1e-10 * (math.lgamma(N + 1) + 1.0), 40.0, None
    while log_p is None:
        log_pmfs = _hypergeom_log_pmfs(K, n, N, a, b)
        log_obs, moves, tail = log_pmfs[k - a], [0, 0], 0.0
        for side, (v, q) in enumerate((
                (log_pmfs[0], a * (N - K - n + a) / ((K - a + 1) * (n - a + 1))),
                (log_pmfs[-1], (K - b) * (n - b) / ((b + 1) * (N - K - n + b + 1))))):
            q *= 1.0 + 1e-12  # under 1: the edges start 9.5 sd or more past the mode
            if q:
                x = v - log_obs + slop + math.log(q / (1.0 - q))
                moves[side] = math.ceil((x + gap) / -math.log(q)) + 1 if x + gap > 0.0 else 0
                tail += math.exp(min(x, 0.0)) + 1e-300
        if any(moves):
            a, b = max(lo, a - moves[0]), min(hi, b + moves[1])
            continue
        if convention == "min_likelihood":
            slack = log_obs + math.log1p(1e-7)
            log_p = _log_sum_within([lp for lp in log_pmfs if lp <= slack], tail)
        else:
            low, high = (_log_sum_within(part, tail)
                         for part in (log_pmfs[: k - a + 1], log_pmfs[k - a:]))
            log_p = None if low is None or high is None else math.log(2.0) + min(low, high)
        gap *= 2.0
    p = ProbValue.from_log(min(0.0, log_p))
    ea, eb = table.events_a, table.events_b
    na, nb = table.total_a - ea, table.total_b - eb
    if na * eb == 0:
        odds_ratio = math.inf if ea * nb else math.nan
    else:
        odds_ratio = (ea / na) / (eb / nb) if nb else 0.0
    return FisherExactResult(odds_ratio, p)
