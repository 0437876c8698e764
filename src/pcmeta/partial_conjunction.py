"""Partial-conjunction p-values and confidence sets for the non-null count.

The null H0^{r/n} says at most r-1 of n component hypotheses are
non-null; rejecting it asserts replication in at least r studies.  Two
constructions are implemented:

* ``bhpc``: drop the r-1 smallest p-values and apply a symmetric valid
  combiner to the n-r+1 that remain;
* ``gbhpc_enumerate``: the generalized form, the maximum of per-subset
  valid combiners g_u over all subsets u of size n-r+1.  Non-symmetric
  g_u (e.g. a weighted z-rule with weights bound to study indices) are
  expressed through a factory that receives the original indices.
  The library factories ``fixed_subset_combiner`` (Fisher, Simes,
  Bonferroni) and ``weighted_subset_combiner`` also carry an array
  form, which screens subsets in chunks before the best are rescored
  with the scalar rule, so the result stays exact; any other callable
  factory, and TPM, runs the scalar loop over every subset.

``structured_gbhpc`` is the fast path for the grouped construction used
on the anticoagulant subgroup data: within each independence block the
subset p-value is a Fisher combination, and blocks are combined by
Bonferroni.  It optimizes over per-block kept-counts instead of raw
subsets (lossless, because Fisher is symmetric and monotone) and is
cross-checked against full enumeration.

Scanning r = 1..n yields a curve of PC p-values and the level-alpha
confidence set {r : p_{r/n} <= alpha} for the true non-null count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .combiners import (
    ROW_KERNELS,
    CombinerSpec,
    _check_weights,
    combine,
    combine_stouffer_weighted,
    log_fisher,
    log_stouffer_rows,
)
from .errors import (
    EnumerationBudgetError,
    InputValidationError,
    NonConvergenceError,
)
from .numerics import ProbValue, std_normal_quantile

__all__ = [
    "GroupPartition",
    "PcEntry",
    "PcCurve",
    "bhpc",
    "gbhpc_enumerate",
    "fixed_subset_combiner",
    "weighted_subset_combiner",
    "structured_subset_combiner",
    "structured_gbhpc",
    "extract_component",
    "select_construction",
    "pc_curve",
]

SubsetCombiner = Callable[[Sequence[ProbValue]], ProbValue]
SubsetCombinerFactory = Callable[[tuple[int, ...]], SubsetCombiner]
# Approximate log g_u for each row of a (rows, |u|) matrix of study indices.
RowKernel = Callable[[np.ndarray], np.ndarray]

DEFAULT_ENUMERATION_BUDGET = 10**6
# Subsets per array-kernel chunk: large enough to amortise numpy calls,
# small enough that the chunk's temporaries stay a few hundred kB.
_CHUNK_ROWS = 1024
# Relative screening tolerance; the array kernels agree with the scalar
# rules to ~1e-13 relative, so this is far above twice their roundoff.
_SCREEN_RTOL = 1e-9
# Entries per structured_subset_combiner memo: enough for every member
# set of every block when n <= 14; a few MB at most.
_BLOCK_FISHER_CACHE_SIZE = 1 << 14


@dataclass(frozen=True)
class GroupPartition:
    """A partition of study indices 0..n-1 into independence blocks."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "blocks", tuple(tuple(sorted(b)) for b in self.blocks)
        )
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise InputValidationError("empty block in partition")
            for idx in block:
                if not isinstance(idx, int) or idx < 0 or idx >= self.n:
                    raise InputValidationError(f"index {idx!r} outside 0..{self.n - 1}")
                if idx in seen:
                    raise InputValidationError(f"index {idx} appears in two blocks")
                seen.add(idx)
        if len(seen) != self.n:
            raise InputValidationError("blocks do not cover all indices")

    @staticmethod
    def from_labels(labels: Sequence[str]) -> "GroupPartition":
        """Group indices by label, blocks ordered by first appearance."""
        order: dict[str, list[int]] = {}
        for i, lab in enumerate(labels):
            order.setdefault(lab, []).append(i)
        return GroupPartition(len(labels), tuple(tuple(v) for v in order.values()))


@dataclass(frozen=True)
class PcEntry:
    r: int
    p: ProbValue


@dataclass(frozen=True)
class PcCurve:
    """PC p-values for r = 1..n plus the derived confidence set."""

    n: int
    method: str
    alpha: float
    entries: tuple[PcEntry, ...]
    confidence_set: frozenset[int] = field(init=False)
    r_hat: int = field(init=False)
    nondecreasing: bool = field(init=False)

    def __post_init__(self) -> None:
        if tuple(e.r for e in self.entries) != tuple(range(1, self.n + 1)):
            raise InputValidationError("entries must cover r = 1..n in order")
        log_alpha = math.log(self.alpha)
        rejected = frozenset(
            e.r for e in self.entries if e.p.log_value <= log_alpha
        )
        object.__setattr__(self, "confidence_set", rejected)
        object.__setattr__(self, "r_hat", max(rejected) if rejected else 0)
        logs = [e.p.log_value for e in self.entries]
        object.__setattr__(
            self, "nondecreasing", all(a <= b for a, b in zip(logs, logs[1:]))
        )


def _check_r(n: int, r: int) -> None:
    if not isinstance(r, int) or not (1 <= r <= n):
        raise InputValidationError(f"require 1 <= r <= {n}, got r={r!r}")


def _largest_tail(ps: Sequence[ProbValue], r: int) -> list[ProbValue]:
    """The n-r+1 largest p-values (ties broken stably by study index)."""
    return sorted(ps, key=lambda p: p.log_value)[r - 1 :]


def bhpc(
    ps: Sequence[ProbValue],
    r: int,
    spec: CombinerSpec | SubsetCombiner,
) -> ProbValue:
    """Drop the r-1 smallest p-values, combine the rest symmetrically.

    ``spec`` is either a symmetric ``CombinerSpec`` or a callable rule
    (which the caller asserts is symmetric and valid).  Weighted rules
    bound to study indices are rejected: after sorting there is no
    index left to bind to, and the construction requires symmetry.
    """
    _check_r(len(ps), r)
    if isinstance(spec, CombinerSpec):
        if not spec.is_symmetric:
            raise InputValidationError(
                f"{spec.method!r} is not symmetric; the drop-smallest "
                "construction requires a symmetric combiner"
            )
        return combine(spec, _largest_tail(ps, r))
    return spec(_largest_tail(ps, r))


class _ArrayFactory:
    """A subset-combiner factory that can also score subsets in bulk.

    Called with a subset it returns the scalar combiner, like any
    factory.  ``bind(ps)`` returns a ``RowKernel`` for these p-values,
    or None where the array form does not apply to them.
    """

    def __init__(
        self,
        scalar: SubsetCombinerFactory,
        bind: Callable[[Sequence[ProbValue]], RowKernel | None],
    ) -> None:
        self._scalar = scalar
        self.bind = bind

    def __call__(self, u: tuple[int, ...]) -> SubsetCombiner:
        return self._scalar(u)


def _screen(
    subsets: Iterator[tuple[int, ...]], size: int, kernel: RowKernel
) -> list[tuple[int, ...]]:
    """The subsets, in enumeration order, whose approximate log value is
    within tol = 1e-9 * (1 + |M|) of the approximate maximum M.

    Subsets are drawn in chunks of ``_CHUNK_ROWS`` index rows; the full
    index matrix is never built.  When M = -inf only the first subset
    is kept.
    """
    top = -math.inf
    kept: list[tuple[float, tuple[int, ...]]] = []
    while True:
        flat = np.fromiter(
            chain.from_iterable(islice(subsets, _CHUNK_ROWS)), dtype=np.intp
        )
        if flat.size == 0:
            break
        rows = flat.reshape(-1, size)
        approx = kernel(rows)
        chunk_top = float(approx.max())
        if chunk_top == -math.inf:
            if not kept:
                kept.append((chunk_top, tuple(rows[0].tolist())))
            continue
        floor = max(top, chunk_top)
        floor -= _SCREEN_RTOL * (1.0 + abs(floor))
        if chunk_top > top:
            top = chunk_top
            kept = [c for c in kept if c[0] >= floor]
        kept.extend(
            (float(approx[i]), tuple(rows[i].tolist()))
            for i in np.flatnonzero(approx >= floor)
        )
    return [u for _, u in kept]


def gbhpc_enumerate(
    ps: Sequence[ProbValue],
    r: int,
    g: SubsetCombinerFactory,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ProbValue:
    """Exact max of g_u(p_u) over all index subsets u of size n-r+1.

    ``g`` maps a subset (a tuple of original study indices, ascending)
    to the combiner applied to the corresponding p-values, so rules may
    depend on the identity of the studies, never on sort rank.  The
    budget on C(n, r-1) is checked before any work.

    Subsets are visited in ``itertools.combinations`` order and the
    first subset attaining the maximum (strict ``>``) gives the result.
    With a factory from ``fixed_subset_combiner`` (Fisher, Simes,
    Bonferroni) or ``weighted_subset_combiner``, an array kernel first
    scores subsets in chunks of ``_CHUNK_ROWS`` to approximate log
    values, and only the subsets within tol = 1e-9 * (1 + |M|) of the
    approximate maximum M are scored by the scalar rule, in enumeration
    order with the same strict ``>``.  The kernels agree with the scalar
    rules to far less than tol / 2, so every subset attaining the exact
    maximum survives the screen, and the first of them is the one the
    full scalar loop would return: the result is the same ``ProbValue``,
    bit for bit.  A kernel value is -inf only where the scalar value is
    -inf too (a subset holding a p of 0; for the weighted rule, only
    past |z| ~ 1e154, i.e. log p below about -5e307), so when M = -inf
    every subset ties and the first alone is scored.  TPM,
    ``structured_subset_combiner`` and plain callables, and a weighted
    rule with a p of 0 or 1 (which then raises as the scalar rule does),
    take the scalar loop over every subset.
    """
    n = len(ps)
    _check_r(n, r)
    n_subsets = math.comb(n, r - 1)
    if n_subsets > budget:
        raise EnumerationBudgetError(
            f"C({n}, {r - 1}) = {n_subsets} subsets exceeds budget {budget}"
        )
    size = n - r + 1
    subsets: Iterable[tuple[int, ...]] = combinations(range(n), size)
    kernel = g.bind(ps) if isinstance(g, _ArrayFactory) else None
    if kernel is not None:
        subsets = _screen(subsets, size, kernel)
    best: ProbValue | None = None
    for u in subsets:
        value = g(u)([ps[i] for i in u])
        if best is None or value.log_value > best.log_value:
            best = value
    return best


def fixed_subset_combiner(spec: CombinerSpec) -> SubsetCombinerFactory:
    """Factory applying one symmetric rule to every subset.

    Fisher, Simes and Bonferroni carry an array form for
    ``gbhpc_enumerate``; TPM has none and is enumerated by the scalar
    loop.
    """
    if not spec.is_symmetric:
        raise InputValidationError("fixed_subset_combiner needs a symmetric rule")

    def factory(u: tuple[int, ...]) -> SubsetCombiner:
        return lambda p_u: combine(spec, p_u)

    rows = ROW_KERNELS.get(spec.method)
    if rows is None:
        return factory

    def bind(ps: Sequence[ProbValue]) -> RowKernel:
        log_p = np.array([p.log_value for p in ps])
        return lambda idx: rows(log_p[idx])

    return _ArrayFactory(factory, bind)


def weighted_subset_combiner(weights: Sequence[float]) -> SubsetCombinerFactory:
    """Factory for the weighted z-rule with weights bound to studies:
    subset u is combined with the weights ``weights[i]`` for i in u.

    The array form computes z_i = -Phi^{-1}(p_i) once per study with
    the scalar ``std_normal_quantile``.  It declines when a p is 0 or 1,
    so the scalar rule raises on them as it always has.
    """
    weights = tuple(float(w) for w in weights)
    _check_weights(weights)
    w = np.array(weights)

    def factory(u: tuple[int, ...]) -> SubsetCombiner:
        w_u = [weights[i] for i in u]
        return lambda p_u: combine_stouffer_weighted(p_u, w_u)

    def bind(ps: Sequence[ProbValue]) -> RowKernel | None:
        if any(p.is_zero or p.is_one for p in ps):
            return None
        z = np.array([-std_normal_quantile(p) for p in ps])
        return lambda idx: log_stouffer_rows(z[idx], w[idx])

    return _ArrayFactory(factory, bind)


def _grouped_value(
    p_u: Sequence[ProbValue],
    block_ids: Sequence[int],
    block_fisher: Callable[[tuple[float, ...]], float],
) -> ProbValue:
    """count-of-blocks * min over blocks of Fisher on the block members.

    ``block_ids[j]`` is the block of p_u[j]; ``block_fisher`` maps the
    log p-values of one block's members to their log Fisher value.
    """
    members: dict[int, list[float]] = {}
    for b, p in zip(block_ids, p_u):
        members.setdefault(b, []).append(p.log_value)
    best = min(block_fisher(tuple(logs)) for logs in members.values())
    return ProbValue.from_log(min(0.0, math.log(len(members)) + best))


def structured_subset_combiner(groups: GroupPartition) -> SubsetCombinerFactory:
    """Per-subset rule for grouped studies: Bonferroni across blocks of
    within-block Fisher combinations.

    Block Fisher values are memoised exactly, keyed on the members' log
    p-values (never on study indices), in a cache of bounded size that
    lives as long as the returned factory.
    """
    block_of = {idx: b for b, block in enumerate(groups.blocks) for idx in block}
    block_fisher = lru_cache(maxsize=_BLOCK_FISHER_CACHE_SIZE)(log_fisher)

    def factory(u: tuple[int, ...]) -> SubsetCombiner:
        block_ids = [block_of[idx] for idx in u]
        return lambda p_u: _grouped_value(p_u, block_ids, block_fisher)

    return factory


def structured_gbhpc(
    ps: Sequence[ProbValue], r: int, groups: GroupPartition
) -> ProbValue:
    """Grouped GBHPC p-value via optimization over per-block kept-counts.

    For a fixed profile of kept-counts (c_1..c_m), the subset that
    maximizes g_u keeps the c_i largest p-values of each block (Fisher
    is monotone and symmetric), so only per-block top-c Fisher values
    F_i(c) matter.  The profile space is enumerated exactly; results
    agree with ``gbhpc_enumerate`` over raw subsets.
    """
    n = len(ps)
    _check_r(n, r)
    if groups.n != n:
        raise InputValidationError(f"partition is over {groups.n} indices, data has {n}")
    keep = n - r + 1
    # F[i][c] = log Fisher p-value of the c largest p-values in block i.
    tops: list[list[float]] = []
    for block in groups.blocks:
        desc = sorted((ps[i].log_value for i in block), reverse=True)
        tops.append([log_fisher(desc[:c]) for c in range(1, len(block) + 1)])
    caps = [len(block) for block in groups.blocks]
    suffix_cap = [0] * (len(caps) + 1)
    for i in range(len(caps) - 1, -1, -1):
        suffix_cap[i] = suffix_cap[i + 1] + caps[i]

    best = -math.inf

    def scan(i: int, remaining: int, used: int, min_log: float) -> None:
        nonlocal best
        if remaining > suffix_cap[i]:
            return
        if i == len(caps):
            value = min(0.0, math.log(used) + min_log)
            if value > best:
                best = value
            return
        hi = min(caps[i], remaining)
        lo = max(0, remaining - suffix_cap[i + 1])
        for c in range(lo, hi + 1):
            if c == 0:
                scan(i + 1, remaining, used, min_log)
            else:
                scan(i + 1, remaining - c, used + 1, min(min_log, tops[i][c - 1]))

    scan(0, keep, 0, math.inf)
    return ProbValue.from_log(best)


def extract_component(
    f: Callable[[Sequence[ProbValue]], ProbValue],
    n: int,
    u: Sequence[int],
    probes: Sequence[float] = (1e-3, 1e-6, 1e-9, 1e-12),
    tol: float = 1e-10,
) -> SubsetCombiner:
    """Recover the subset rule g_u hiding inside a monotone PC p-value.

    For a sensitive monotone rule, g_u(p_u) is the limit of
    f(p_u : eps at the other positions) as eps drops to 0.  The limit is
    approximated over the probe schedule and declared converged when two
    successive evaluations agree within ``tol``; failure to converge
    signals a non-sensitive or non-monotone f and raises.
    """
    u = tuple(sorted(u))
    if any(i < 0 or i >= n for i in u) or len(set(u)) != len(u):
        raise InputValidationError(f"invalid index set {u!r} for n={n}")
    others = [i for i in range(n) if i not in set(u)]

    def evaluator(p_u: Sequence[ProbValue]) -> ProbValue:
        if len(p_u) != len(u):
            raise InputValidationError(f"expected {len(u)} values, got {len(p_u)}")
        if not others:
            return f(list(p_u))
        previous: ProbValue | None = None
        for eps in probes:
            filler = ProbValue.from_linear(eps)
            vec: list[ProbValue] = [filler] * n
            for pos, idx in enumerate(u):
                vec[idx] = p_u[pos]
            value = f(vec)
            if previous is not None and abs(value.linear - previous.linear) < tol:
                return value
            previous = value
        raise NonConvergenceError(
            "component extraction did not stabilize over the probe schedule; "
            "the rule may not be sensitive or monotone"
        )

    return evaluator


def select_construction(
    ps: Sequence[ProbValue],
    alpha: float,
    *,
    spec: CombinerSpec | None = None,
    groups: GroupPartition | None = None,
    g: SubsetCombinerFactory | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[str, Callable[[int], ProbValue]]:
    """Check the inputs of a PC analysis and select its construction.

    Returns the method label and the map r -> p_{r/n}.  Exactly one of
    ``spec`` (drop-smallest with a symmetric combiner), ``groups``
    (grouped fast path) or ``g`` (enumeration over subsets) selects the
    construction.  Nothing is computed until the map is called.
    """
    n = len(ps)
    if n < 1:
        raise InputValidationError("need at least one study")
    if not (0.0 < alpha < 1.0):
        raise InputValidationError(f"alpha must be in (0, 1), got {alpha!r}")
    selected = [x is not None for x in (spec, groups, g)]
    if sum(selected) != 1:
        raise InputValidationError("pass exactly one of spec=, groups=, g=")
    if spec is not None:
        return f"bhpc:{spec.method}", lambda r: bhpc(ps, r, spec)
    if groups is not None:
        return "gbhpc:structured", lambda r: structured_gbhpc(ps, r, groups)
    return "gbhpc:enumerate", lambda r: gbhpc_enumerate(ps, r, g, budget=budget)


def pc_curve(
    ps: Sequence[ProbValue],
    alpha: float,
    *,
    spec: CombinerSpec | None = None,
    groups: GroupPartition | None = None,
    g: SubsetCombinerFactory | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> PcCurve:
    """PC p-values for every r = 1..n and the confidence set for r.

    The construction is chosen by ``select_construction``.
    """
    method, evaluate = select_construction(
        ps, alpha, spec=spec, groups=groups, g=g, budget=budget
    )
    entries = tuple(PcEntry(r, evaluate(r)) for r in range(1, len(ps) + 1))
    return PcCurve(n=len(ps), method=method, alpha=alpha, entries=entries)
