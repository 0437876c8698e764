"""Log-domain numeric kernels.

Everything downstream (combiners, partial-conjunction rules, simulations)
does its probability arithmetic on natural logs and only derives linear
values at the end.  That is what lets a p-value of 1e-200 compare
correctly against one of 1e-10 instead of both collapsing in double
precision.

The normal CDF/quantile pair is backed by scipy's ``log_ndtr`` /
``ndtri_exp``, which stay accurate far into the tail (|log p| ~ 1e3 and
beyond).  The scalar pair calls them (and ``ndtr`` / ``ndtri``) through
``cython_special``: the same C kernels as the ``scipy.special`` ufuncs,
returning Python floats without the ufunc dispatch.  Importing this
module loads neither numpy (``np`` is a stand-in until first read) nor
scipy: the scalar pair's four kernels start as stubs that bind them to
``cython_special`` on first use, and each normal array kernel imports
``scipy.special`` when it runs.

The chi-square upper tail for even degrees of freedom and the
hypergeometric log-PMF are computed here directly: both reduce to
finite sums of positive terms, which log-sum-exp evaluates without
cancellation.  The chi-square tail's Poisson series also serves the
Fisher and TPM rules, and its row form (Horner's rule) their row forms.
"""

from __future__ import annotations

import math
from functools import total_ordering
from numbers import Integral
from typing import Iterable

from .errors import NumericDomainError, _check_kind, _LazyNumpy

np = _LazyNumpy(globals())

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
# math.lgamma(j + 1) for j < len; see _log_factorials.
_LOG_FACTORIALS: list[float] = []


def _first_use(name: str):
    """A stub for the scalar normal kernel ``name``.  Its first call binds
    all four kernels to ``cython_special`` in place of the stubs (the
    double specialisations of ``ndtr`` and ``log_ndtr``, which are fused
    over double and complex, then ``ndtri`` and ``ndtri_exp``) and
    forwards the call; later calls never reach a stub."""

    def stub(x: float) -> float:
        from scipy.special import cython_special

        global _ndtr, _log_ndtr, _ndtri, _ndtri_exp
        _ndtr = cython_special.ndtr["double"]
        _log_ndtr = cython_special.log_ndtr["double"]
        _ndtri = cython_special.ndtri
        _ndtri_exp = cython_special.ndtri_exp
        return globals()[name](x)

    return stub


_ndtr = _first_use("_ndtr")
_log_ndtr = _first_use("_log_ndtr")
_ndtri = _first_use("_ndtri")
_ndtri_exp = _first_use("_ndtri_exp")


@total_ordering
class ProbValue:
    """A probability carried in paired linear/log form.

    ``log_value`` is the natural log and is the authoritative field; the
    linear field is derived from it (or supplied alongside by a kernel
    that computes both to full precision).  Invariants:

    * ``exp(log_value)`` and ``linear`` agree to 1e-12 relative whenever
      ``linear >= 1e-300``;
    * ``linear == 0.0`` exactly when ``log_value == -inf``;
    * ``linear == 1.0`` exactly when ``log_value == 0.0``.

    Ordering and equality compare ``log_value`` only.  Instances are
    immutable: assigning or deleting a field raises ``AttributeError``.
    The class has ``__slots__`` and no ``__dict__``, because the Monte
    Carlo oracle builds one per study per replicate.
    """

    __slots__ = ("linear", "log_value")
    __match_args__ = ("linear", "log_value")

    def __init__(self, linear: float, log_value: float) -> None:
        _set_linear(self, linear)
        _set_log_value(self, log_value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__, since
        # __setattr__ refuses the default slot-state restore.
        return type(self), (self.linear, self.log_value)

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

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, ProbValue):
            return NotImplemented
        return self.log_value < other.log_value

    def __hash__(self) -> int:
        return hash(self.log_value)

    def __repr__(self) -> str:
        return f"ProbValue({self.linear:.6g}, log={self.log_value:.6g})"


# The slot setters, which bypass ProbValue.__setattr__.
_set_linear = ProbValue.linear.__set__
_set_log_value = ProbValue.log_value.__set__


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
    """log(sum(exp(v))), tolerating -inf entries.  Terms go to fsum largest-first:
    fsum is correctly rounded, so that keeps the bits, and is far faster on a wide span."""
    vals = [v for v in values if v != _NEG_INF]
    return _log_sum_within(vals, 0.0) if vals else _NEG_INF


def _log_sum_within(values: list[float], tail: float) -> float | None:
    """``log_sum_exp`` of finite ``values``, or None unless adding positive terms
    of sum at most ``tail`` times the largest term provably keeps its bits."""
    m = max(values)
    terms = sorted([math.exp(v - m) for v in values], reverse=True)
    s = math.fsum(terms)
    if tail:
        d = math.fsum([*terms, -s])
        if not d + abs(d) * 2.0**-50 + tail < math.ulp(s) / 2.0:
            return None
    return m + math.log(s)


def std_normal_sf(x: float) -> ProbValue:
    """Upper tail 1 - Phi(x) of the standard normal.

    The log form stays accurate for x well past 40 (log sf(40) is about
    -804.6), which is what the weighted-z combiner needs when fed
    extremely small p-values.
    """
    if math.isnan(x) or math.isinf(x):
        raise NumericDomainError(f"requires finite x, got {x!r}")
    return ProbValue(*_canonical_pair(_ndtr(-x), _log_ndtr(-x)))


def std_normal_quantile(p: ProbValue) -> float:
    """Lower-tail standard normal quantile Phi^{-1}(p).

    Accepts the log form for extreme inputs, so e.g. p = 1e-200 maps to
    about -30.2 instead of failing.  The upper quantile Phi^{-1}(1 - p)
    is just the negation.
    """
    log_p = p.log_value
    if log_p == _NEG_INF or log_p == 0.0:
        raise NumericDomainError("quantile undefined at p in {0, 1}")
    if p.linear < 1e-15:
        return _ndtri_exp(log_p)
    return _ndtri(p.linear)


def chisq_sf(x: float, dof: int) -> ProbValue:
    """Chi-square upper tail P(chi2_dof >= x) for even dof.

    Uses the closed-form Poisson sum
    ``exp(-x/2) * sum_{j < dof/2} (x/2)^j / j!`` evaluated in log space.
    All terms are positive, so the log form is exact to roundoff at any
    x; there is no tail truncation.
    """
    _check_kind("dof", dof, Integral)
    if dof <= 0 or dof % 2 != 0:
        raise NumericDomainError(f"dof must be a positive even integer, got {dof!r}")
    if math.isnan(x) or x < 0.0:
        raise NumericDomainError(f"requires x >= 0, got {x!r}")
    if x == 0.0:
        return ProbValue.one()
    if math.isinf(x):
        return ProbValue.zero()
    half = x / 2.0
    return ProbValue.from_log(min(0.0, -half + _log_poisson_head(half, int(dof) // 2)))


def _log_poisson_head(x: float, k: int) -> float:
    """log of sum_{j < k} x^j / j! for finite x >= 0 and k >= 1 (0 at x = 0
    or k = 1); the one Poisson series of ``chisq_sf``, ``log_fisher`` and ``combine_tpm``."""
    if x == 0.0 or k == 1:
        return 0.0
    table = _LOG_FACTORIALS if len(_LOG_FACTORIALS) >= k else _log_factorials(k)
    log_x = math.log(x)
    # log_sum_exp inline: every term is finite for finite x > 0, so its
    # -inf filter would never fire.  The terms peak at j0 = floor(x); fed to
    # fsum outward from there they fall, far faster than rising, same bits.
    terms = [j * log_x - table[j] for j in range(k)]
    top, j0 = max(terms), int(x)
    return top + math.log(math.fsum([math.exp(t - top) for t in terms[j0::-1] + terms[j0 + 1:]]))


def _log_factorials(k: int) -> list[float]:
    """The log factorial table, regrown to 2k entries if under k: rebound,
    never extended in place, so no reader sees a partial one."""
    global _LOG_FACTORIALS
    if len(_LOG_FACTORIALS) < k:
        _LOG_FACTORIALS = [math.lgamma(j + 1) for j in range(2 * k)]
    return _LOG_FACTORIALS


def _log_sum_exp_rows(terms: np.ndarray) -> np.ndarray:
    """log(sum(exp(t))) of each row of a (rows, k) array, the row
    log-sum-exp under ``log_tpm_rows`` and ``_log_poisson_head_rows``.

    Plain numpy, in the same arithmetic as ``scipy.special.logsumexp``
    (log1p of the terms below the largest) without its temporaries.
    -inf terms add nothing; a row of only -inf terms, or holding a NaN,
    gives NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        top = terms.max(axis=1, keepdims=True)
        at_top = terms == top
        count = at_top.sum(axis=1, keepdims=True)
        below = np.exp(np.where(at_top, _NEG_INF, terms) - top)
        rest = below.sum(axis=1, keepdims=True)
        return (np.log1p(rest / count) + np.log(count) + top)[:, 0]


def _log_poisson_head_rows(x: np.ndarray, k: int) -> np.ndarray:
    """``_log_poisson_head(x, k)`` for each x >= 0 of a 1-D array (NaN at
    x = inf), the row form under ``log_fisher_rows`` and ``log_tpm_rows``:
    Horner's rule in linear space, 1 + x (1 + x/2 (... (1 + x/(k-1)))).
    No intermediate exceeds x e^x, so rows overflow only past x ~ 703;
    they, x = inf (NaN from the x * 0 start) and arrays of fewer rows than
    k (where k numpy passes cost more) take the log-space series.
    """
    out = np.full(len(x), np.inf)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if len(x) >= k:
            acc = x * 0.0 + 1.0
            for j in range(k - 1, 0, -1):
                acc *= x
                acc *= 1.0 / j
                acc += 1.0
            out = np.log(acc)
        bad = ~np.isfinite(out)
        if bad.any():
            x = x[bad]
            terms = np.arange(k) * np.log(x)[:, None] - np.array(_log_factorials(k)[:k])
            out[bad] = np.where(x == 0.0, 0.0, _log_sum_exp_rows(terms))
    return out


def two_sided_log_p(z):
    """log of the two-sided normal p-value 2 * Phi(-|z|), elementwise.

    A float array gets one new array, worked in place: the bits of
    ``_LOG2 + log_ndtr(-abs(z))`` without its three temporaries.  ``z``
    is never written; a scalar gives a scalar.
    """
    from scipy import special

    out = np.abs(z)
    if not isinstance(out, np.ndarray) or out.dtype.kind != "f":
        return _LOG2 + special.log_ndtr(-out)
    np.negative(out, out=out)
    special.log_ndtr(out, out=out)
    out += _LOG2
    return out


def log_comb(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k), via log-gamma."""
    if k < 0 or k > n:
        return _NEG_INF
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hypergeom_log_pmf(k: int, K: int, n: int, N: int) -> float:
    """log PMF of drawing k marked items in n draws from N with K marked.

    ``log C(K, k) + log C(N-K, n-k) - log C(N, n)`` with the usual
    support ``max(0, n+K-N) <= k <= min(n, K)``; the one-point case of
    ``_hypergeom_log_pmfs``.
    """
    return _hypergeom_log_pmfs(K, n, N, k, k)[1][0]


def _hypergeom_log_pmfs(
    K: int, n: int, N: int, k: int | None = None, last: int | None = None
) -> tuple[int, list[float]]:
    """The first k and the log PMF of ``hypergeom_log_pmf`` at each k of
    the support in turn, or at ``k``..``last`` when they are given.

    The arguments are checked once (integers by ``_check_kind``, then
    ``NumericDomainError`` outside the domain).  Each distinct lgamma
    argument is computed once (``_lgamma_runs``), in ``log_comb``'s order
    of operations, so each value equals the per-point formula bit for bit.
    """
    named = (("K", K), ("n", n), ("N", N))
    for name, v in named if k is None else (("k", k), *named):
        _check_kind(name, v, Integral)
        if v < 0:
            raise NumericDomainError(f"{name} must be a nonnegative integer, got {v!r}")
    K, n, N = int(K), int(n), int(N)
    if K > N or n > N:
        raise NumericDomainError(f"need K <= N and n <= N, got K={K}, n={n}, N={N}")
    lo, hi = max(0, n + K - N), min(n, K)
    if k is not None:
        if not lo <= k <= last <= hi:
            raise NumericDomainError(f"k={k} outside support for K={K}, n={n}, N={N}")
        lo, hi = int(k), int(last)
    marked, unmarked, whole = math.lgamma(K + 1), math.lgamma(N - K + 1), log_comb(N, n)
    up_k, down_k = _lgamma_runs(lo + 1, K - hi + 1, hi - lo + 1)
    up_u, down_u = _lgamma_runs(N - K - n + lo + 1, n - hi + 1, hi - lo + 1)
    return lo, [((marked - a - b) + (unmarked - c - d)) - whole
                for a, b, d, c in zip(up_k, down_k, up_u, down_u)]


def _lgamma_runs(up: int, low: int, width: int) -> tuple[list[float], list[float]]:
    """lgamma(up + i) and lgamma(low + width - 1 - i) for i < width: one run
    over both ranges where they overlap (a 2x2 table's balanced arms)."""
    start, gap = min(up, low), abs(up - low)
    if gap >= width:  # disjoint: one run each
        return _lgamma_runs(up, up, width)[0], _lgamma_runs(low, low, width)[1]
    run = list(map(math.lgamma, range(start, start + gap + width)))
    return run[up - start:][:width], run[low - start:][:width][::-1]
