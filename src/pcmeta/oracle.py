"""Monte Carlo verification backends.

These are shipped (not test-only) so that user-supplied combining rules
can be validity-checked with the same machinery the built-in rules are
held to: a rule is valid when its null rejection rate stays at or below
alpha, and the truncated-product closed form can be cross-checked
against the empirical null CDF.  Normal-model draws share the
two-sided log p-value map ``numerics.two_sided_log_p`` with the power
simulation.

Both oracles count over one chunked null stream, ``_null_chunks`` (the
same numbers as one draw of every row), so memory does not grow with
the replicate count.  ``mc_validity`` scores every rule in one loop: a
row form scores the chunk, NaN on every row for a plain rule, and the
scalar rule rescores the rows that ``combiners._needs_rescore`` selects,
as in ``gbhpc_enumerate``, so the estimates are the scalar rule's.
``tpm_mc_cdf`` reads the uniform stream of ``NullConfig(L)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, Iterator, Sequence

from .combiners import _check_gamma, _needs_rescore
from .errors import InputValidationError, _check_kind, _LazyNumpy
from .numerics import ProbValue, two_sided_log_p

np = _LazyNumpy(globals())

__all__ = [
    "BatchedRule",
    "NullConfig",
    "ValidityEstimate",
    "mc_validity",
    "tpm_mc_cdf",
]

# Rows per array pass: enough to amortise numpy calls, few enough that
# temporaries stay a few hundred kB.
_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class NullConfig:
    """Null sampling model for per-study p-values.

    With ``z_means`` unset, p-values are i.i.d. uniform.  Otherwise
    study i reports the two-sided p-value of Z ~ N(z_means[i], 1), with
    every mean finite; zero-mean entries are exact nulls and nonzero
    entries place the configuration on the boundary of a
    partial-conjunction null.
    """

    n_studies: int
    z_means: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        _check_kind("n_studies", self.n_studies, Integral, low=1)
        if self.z_means is None:
            return
        _check_kind("z_means", self.z_means, Real, listed=True)
        if len(self.z_means) != self.n_studies:
            raise InputValidationError("z_means must have one entry per study")
        if not all(math.isfinite(z) for z in self.z_means):
            raise InputValidationError(f"z_means must be finite, got {self.z_means!r}")


Rule = Callable[[Sequence[ProbValue]], ProbValue]


@dataclass(frozen=True)
class BatchedRule:
    """A rule with a row form, for ``mc_validity``.

    ``scalar`` is the rule.  ``rows`` maps a (rows, n) array of log
    p-values to an approximate log value per row, agreeing with
    ``scalar`` to far less than 1e-9 relative, or NaN where it cannot.
    """

    scalar: Rule
    rows: Callable[[np.ndarray], np.ndarray]


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


def _null_chunks(config: NullConfig, reps: int, seed: int) -> Iterator[np.ndarray]:
    """``reps`` rows of null log p-values clipped to <= 0, in chunks of
    ``_CHUNK_ROWS`` rows from ``default_rng([seed])``."""
    rng = np.random.default_rng([seed])
    for start in range(0, reps, _CHUNK_ROWS):
        yield np.minimum(0.0, _draw_log_p(config, rng, min(_CHUNK_ROWS, reps - start)))


def mc_validity(
    rule: Rule | BatchedRule,
    null_config: NullConfig,
    alpha_list: Sequence[float],
    reps: int,
    seed: int,
) -> list[ValidityEstimate]:
    """Empirical rejection rates of ``rule`` under the supplied null.

    The replicates are drawn, clipped to log p <= 0 and scored in chunks
    of ``_CHUNK_ROWS`` rows.  A ``BatchedRule`` scores each chunk with
    its row form, and its scalar rule rescores every row that
    ``_needs_rescore`` selects: NaN, or within 1e-9 * (1 + |log alpha|)
    of any log alpha.  A plain rule is scored as a row form that gives
    NaN on every row, so it is called once per row.  Every other row's
    approximate value lies on the same side of each log alpha as its
    exact value, so the estimates equal the scalar rule's.  Returns one
    estimate per alpha, each carrying the 3-standard-error acceptance
    bound and a validity flag.
    """
    _check_kind("reps", reps, Integral, low=10**4)
    _check_kind("seed", seed, Integral, low=0)
    _check_kind("alphas", alpha_list, Real, listed=True)
    if any(not (0.0 < a < 1.0) for a in alpha_list):
        raise InputValidationError("alphas must lie in (0, 1)")
    # Looked up per call, so that a wrapper installed on the class is seen.
    from_log = ProbValue.from_log
    if not isinstance(rule, BatchedRule):  # its row form: NaN, "score exactly", on every row
        rule = BatchedRule(rule, lambda log_p: np.full(len(log_p), math.nan))
    scalar, rows = rule.scalar, rule.rows
    targets = np.array([math.log(alpha) for alpha in alpha_list])
    hits = np.zeros(len(targets), dtype=np.int64)
    for chunk in _null_chunks(null_config, reps, seed):
        values = np.array(rows(chunk), dtype=float)
        exact = np.flatnonzero(_needs_rescore(values, targets))
        for i, row in zip(exact.tolist(), chunk[exact].tolist()):
            values[i] = scalar([from_log(v) for v in row]).log_value
        hits += (values[:, None] <= targets).sum(axis=0)
    out = []
    for alpha, hit in zip(map(float, alpha_list), hits.tolist()):
        rate = hit / reps
        se = math.sqrt(rate * (1.0 - rate) / reps)
        bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / reps)
        out.append(ValidityEstimate(alpha, rate, se, bound, rate <= bound))
    return out


def tpm_mc_cdf(
    L: int, gamma: float, w: float, reps: int, seed: int
) -> tuple[float, float]:
    """Empirical P(W <= w) for the truncated product of L uniforms.

    W multiplies the uniforms (the ``_null_chunks`` rows of
    ``NullConfig(L)``) at or below gamma; the empty product is 1.
    Returns (estimate, standard error).
    """
    _check_kind("L", L, Integral, low=1)
    _check_kind("reps", reps, Integral, low=10**6)
    _check_kind("seed", seed, Integral, low=0)
    _check_gamma("gamma", gamma)
    _check_kind("w", w, Real)
    if not (0.0 <= w <= 1.0):
        raise InputValidationError(f"w must be in [0, 1], got {w!r}")
    if w == 0.0:
        return 0.0, 0.0
    log_gamma, log_w = math.log(gamma), math.log(w)
    hits = 0
    for log_u in _null_chunks(NullConfig(L), reps, seed):
        log_W = np.where(log_u <= log_gamma, log_u, 0.0).sum(axis=1)
        hits += int(np.count_nonzero(log_W <= log_w))
    rate = hits / reps
    return rate, math.sqrt(rate * (1.0 - rate) / reps)
