"""Partial-conjunction p-values and confidence sets for the non-null count.

The null H0^{r/n} says at most r-1 of n component hypotheses are
non-null; rejecting it asserts replication in at least r studies.  Two
constructions are implemented:

* ``bhpc``: drop the r-1 smallest p-values and apply a symmetric valid
  combiner to the n-r+1 that remain;
* ``gbhpc_enumerate``: the generalized form, the maximum of per-subset
  valid combiners g_u over all subsets u of size n-r+1.  Non-symmetric
  g_u (e.g. a weighted z-rule with weights bound to study indices) are
  expressed through a factory that receives the original indices.  The
  library factories build one rule per ``CombinerSpec``, ``_SubsetRule``,
  whose array form scores every subset as a pair of half-subsets from
  two small tables: a cheap statistic for each, then a costly finisher
  only for those near the best.  The scalar rule rescores only those that
  ``combiners._needs_rescore`` selects, so the result stays exact.
  Other factories run the scalar loop over ``itertools.combinations``.

Monte Carlo studies use the row forms ``bhpc_rows`` and
``weighted_gbhpc_rows``: one log p per row of a (reps, n) array.

``structured_gbhpc`` is the fast path for the grouped construction used
on the anticoagulant subgroup data: within each independence block the
subset p-value is a Fisher combination, and blocks are combined by
Bonferroni.  It optimizes over per-block kept-counts instead of raw
subsets (lossless, because Fisher is symmetric and monotone) with a
dynamic program over (blocks, kept, blocks used), polynomial in n, and
equals full enumeration bit for bit.  One pass serves a whole curve.

Scanning r = 1..n yields a curve of PC p-values and the level-alpha
confidence set {r : p_{r/n} <= alpha} for the true non-null count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from numbers import Integral
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Sequence

from .combiners import (
    _RESCORE_RTOL,
    CombinerSpec,
    _check_weights,
    _log_fisher_from_half,
    _log_simes_sorted_rows,
    _needs_rescore,
    _upper_z_rows,
    combine,
    combine_stouffer_weighted,
    log_fisher,
    rows_for,
)
from .errors import (
    EnumerationBudgetError,
    InputValidationError,
    NonConvergenceError,
    _check_alpha,
    _check_kind,
    _LazyNumpy,
)
from .numerics import ProbValue

np = _LazyNumpy(globals())

__all__ = [
    "GroupPartition",
    "PcEntry",
    "PcCurve",
    "bhpc",
    "bhpc_rows",
    "gbhpc_enumerate",
    "fixed_subset_combiner",
    "weighted_subset_combiner",
    "weighted_gbhpc_rows",
    "structured_subset_combiner",
    "structured_gbhpc",
    "extract_component",
    "select_construction",
    "pc_curve",
]

SubsetCombiner = Callable[[Sequence[ProbValue]], ProbValue]
SubsetCombinerFactory = Callable[[tuple[int, ...]], SubsetCombiner]
# Approximate log g_u of each u = a + b, rows a, b of two index matrices, row-major
# (a ``_Staged`` one in two stages: a statistic per pair, then its finisher).
PairKernel = Callable[["np.ndarray", "np.ndarray"], "np.ndarray"]

DEFAULT_ENUMERATION_BUDGET = 10**6
# Entries per structured_subset_combiner memo: enough for every member
# set of every block when n <= 14; a few MB at most.
_BLOCK_FISHER_CACHE_SIZE = 1 << 14
# Indices per kernel call of the enumeration screen (256 kB of intp).
_BATCH_ENTRIES = 1 << 15
# Offsets above the best statistic where the screen seeks its cut: 9e-10 to 1024, x4.
_CUT_OFFSETS = tuple(4.0**k for k in range(-15, 6))


@dataclass(frozen=True)
class GroupPartition:
    """A partition of study indices 0..n-1 into independence blocks."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if len(block) == 0:
                raise InputValidationError("empty block in partition")
            for idx in block:
                _check_kind("index", idx, Integral)
                if not 0 <= idx < self.n:
                    raise InputValidationError(f"index {idx!r} outside 0..{self.n - 1}")
                if idx in seen:
                    raise InputValidationError(f"index {idx} appears in two blocks")
                seen.add(int(idx))
        if len(seen) != self.n:
            raise InputValidationError("blocks do not cover all indices")
        object.__setattr__(
            self, "blocks", tuple(tuple(sorted(int(i) for i in b)) for b in self.blocks)
        )

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
    dips: tuple[int, ...] = field(init=False)  # each r with p_r < p_{r-1}
    nondecreasing: bool = field(init=False)

    def __post_init__(self) -> None:
        if tuple(e.r for e in self.entries) != tuple(range(1, self.n + 1)):
            raise InputValidationError("entries must cover r = 1..n in order")
        _check_alpha(self.alpha)
        log_alpha = math.log(self.alpha)
        rejected = frozenset(
            e.r for e in self.entries if e.p.log_value <= log_alpha
        )
        object.__setattr__(self, "confidence_set", rejected)
        object.__setattr__(self, "r_hat", max(rejected) if rejected else 0)
        dips = tuple(b.r for a, b in zip(self.entries, self.entries[1:]) if b.p < a.p)
        object.__setattr__(self, "dips", dips)
        object.__setattr__(self, "nondecreasing", not dips)


def _check_r(n: int, r: int) -> None:
    _check_kind("r", r, Integral)
    if not (1 <= r <= n):
        raise InputValidationError(f"require 1 <= r <= {n}, got r={r!r}")


def _check_budget(n: int, r: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> None:
    """Raise, before any work, when the C(n, r-1) subsets exceed budget."""
    if math.comb(n, r - 1) > budget:
        raise EnumerationBudgetError(
            f"C({n}, {r - 1}) = {math.comb(n, r - 1)} subsets exceeds budget {budget}"
        )


def _largest_tail(ps: Sequence[ProbValue], r: int) -> list[ProbValue]:
    """The n-r+1 largest p-values (ties broken stably by study index)."""
    return sorted(ps, key=attrgetter("log_value"))[r - 1 :]


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


def bhpc_rows(log_p: np.ndarray, r: int, spec: CombinerSpec) -> np.ndarray:
    """``bhpc`` of each row of a (reps, n) array of log p-values, to roundoff."""
    _check_r(log_p.shape[1], r)
    if not spec.is_symmetric:
        raise InputValidationError(f"{spec.method!r} has no drop-smallest row form")
    kept = np.sort(log_p, axis=1)[:, r - 1 :]
    return (_log_simes_sorted_rows if spec.method == "simes" else rows_for(spec))(kept)


@lru_cache(maxsize=32)  # every half-table of a curve up to n = 30
def _half(lo: int, hi: int, k: int) -> tuple[int, Callable[..., np.ndarray]]:
    """The k-subsets of range(lo, hi) in ``itertools.combinations`` order:
    their count and a map from a slice or index array of them to their
    ``intp`` rows.  Past k = (hi - lo) / 2 they are the masks of their
    complements in reverse lex order, built per slice past ``_BATCH_ENTRIES``."""
    m, j = hi - lo, min(k, hi - lo - k)
    table = np.array(list(combinations(range(lo, hi), j)), np.intp)  # (count, j), j = 0 too
    if j < k:
        dropped = table[::-1] - lo

        def rows(which) -> np.ndarray:
            mask = np.ones((len(part := dropped[which]), m), dtype=bool)
            mask[np.arange(len(part))[:, None], part] = False
            return np.nonzero(mask)[1].reshape(len(part), k) + lo

        if len(table) * k > _BATCH_ENTRIES:
            return len(table), rows
        table = rows(slice(None))
    table.flags.writeable = False  # cached: shared by every screen
    return len(table), table.__getitem__


def _screen(n: int, size: int, kernel: PairKernel) -> Iterator[tuple[int, ...]]:
    """Yield the subsets of size ``size``, in enumeration order, that
    ``_needs_rescore`` selects with the approximate maximum M as target.

    Split at h = n // 2, a subset is an a-subset of studies 0..h-1 and
    a (size - a)-subset of h..n-1.  For each a the kernel's statistic
    (minus its value if it has no stages) scores the product of the two
    ``_half`` tables into one array of C(n, size) floats, slices of about
    ``_BATCH_ENTRIES`` indices at a time.  The finisher, non-increasing
    up to an error far below tol, runs on the least statistic s and on s
    plus each of ``_CUT_OFFSETS``: the first whose value is 2 tol below
    s's is the cut.  Only pairs at or below it and NaN ones are finished
    (all if no cut or s's value is -inf): past it none is near M or can
    attain the exact maximum.  Kept pairs become ascending tuples a
    slice at a time, each split's in ``itertools.combinations`` order; a
    merge of the splits keeps it.
    When M = -inf the first non-NaN subset of each split is kept: the
    smallest of them comes first and stands for all of them.
    """
    stages = kernel if isinstance(kernel, _Staged) else _Staged(
        lambda a, b: -kernel(a, b), lambda s, _: -s)
    h = n // 2
    splits = [(_half(0, h, a), _half(h, n, size - a))
              for a in range(max(0, size - n + h), min(h, size) + 1)]
    cuts = np.cumsum([rows_a * rows_b for (rows_a, _), (rows_b, _) in splits])
    stat = np.empty(cuts[-1])
    for ((rows_a, low), (rows_b, high)), part in zip(splits, np.split(stat, cuts[:-1])):
        block = part.reshape(rows_a, rows_b)
        cols = min(rows_b, max(1, _BATCH_ENTRIES // size))
        step = max(1, _BATCH_ENTRIES // (size * cols))
        for j in range(0, rows_b, cols):
            b = high(slice(j, j + cols))
            for i in range(0, rows_a, step):
                a = low(slice(i, i + step))
                block[i : i + step, j : j + cols] = stages.statistic(a, b).reshape(len(a), len(b))

    def pairs(picked: np.ndarray, rows_b: int, low, high) -> Iterator[tuple[int, ...]]:
        step = max(1, _BATCH_ENTRIES // size)
        for start in range(0, len(picked), step):
            i, j = np.divmod(picked[start : start + step], rows_b)
            yield from map(tuple, np.hstack((low(i), high(j))).tolist())

    ladder = np.fmin.reduce(stat, initial=math.inf) + np.array((0.0, *_CUT_OFFSETS))
    values = stages.finish(ladder, size)  # at the NaN-ignoring least statistic, then above
    past = ladder[values < values[0] - 2 * _RESCORE_RTOL * (1.0 + abs(values[0]))]
    near = np.flatnonzero(~(stat > (past[0] if len(past) else math.inf)))  # NaN too
    approx = stages.finish(stat[near], size)
    top = np.fmax.reduce(approx, initial=-math.inf)  # NaN-ignoring max
    keep = np.zeros(len(stat), dtype=bool)
    keep[near] = np.isnan(approx) if top == -math.inf else _needs_rescore(approx, [top])
    for part in np.split(keep, cuts[:-1]) if top == -math.inf else ():
        part[part.argmin()] = True  # and the first non-NaN pair of each split
    from heapq import merge  # only the screen needs it
    return merge(*(pairs(np.flatnonzero(part), rows_b, low, high)
                   for ((_, low), (rows_b, high)), part in zip(splits, np.split(keep, cuts[:-1]))))


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
    With a factory from ``fixed_subset_combiner`` (any symmetric rule,
    TPM included) or ``weighted_subset_combiner``, ``_screen`` first
    scores every subset's statistic (C(n, r-1) floats, at most 8 MB
    within the default budget) and finishes only those near the best.
    The scalar rule scores only the subsets ``_needs_rescore`` keeps
    with the maximum M of the finished non-NaN values as target: NaN
    ones and those within tol = 1e-9 * (1 + |M|) of M.  A kernel's
    numbers agree with the scalar rule to far less than tol / 2, and the
    unfinished ones lie 2 tol below M, so every subset attaining the
    exact maximum is rescored, and the first of them gives the full
    scalar loop's ``ProbValue``, bit for bit.  NaN marks a subset the
    kernel cannot score: for the weighted rule, one holding a p of 0 or
    1, where the scalar rule raises as it always has.  A kernel value is
    -inf only where the scalar value is -inf too (a p of 0; for the
    weighted rule also log p below about -5e307, past |z| ~ 1e154), so
    when M = -inf the first non-NaN subset stands for all of them.
    Other factories take the scalar loop over every subset.
    """
    n = len(ps)
    _check_r(n, r)
    _check_budget(n, r, budget)
    size = n - r + 1
    if isinstance(g, _SubsetRule):
        subsets = _screen(n, size, g.bind(ps))
    else:
        subsets = combinations(range(n), size)
    best: ProbValue | None = None
    for u in subsets:
        value = g(u)([ps[i] for i in u])
        if best is None or value.log_value > best.log_value:
            best = value
    return best


def _pair_sums(values: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum of ``values`` over each pair of an a row and a b row, row-major."""
    return np.add.outer(values[a].sum(axis=1), values[b].sum(axis=1)).ravel()


class _Staged(NamedTuple):
    """A ``PairKernel`` as a cheap statistic per pair and its finisher."""

    statistic: PairKernel
    finish: Callable[["np.ndarray", int], "np.ndarray"]  # (s, size): non-increasing in s

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.finish(self.statistic(a, b), a.shape[1] + b.shape[1])


@dataclass(frozen=True)
class _SubsetRule:
    """The subset rule g_u of one ``CombinerSpec``: called with a subset u
    it returns the scalar combiner, with any weights restricted to u.
    ``bind(ps)`` returns a ``PairKernel``: ``_Staged`` for Fisher (sum of
    -log p, then the Poisson tail) and the weighted z-rule (t = sum w z /
    sqrt(sum w^2), then log Phi(-t); z from ``combiners._upper_z_rows`` is
    NaN at a p of 0 or within 1e-6 of 1, which the scalar rule settles),
    and ``rows_for`` on the paired rows for the other rules."""

    spec: CombinerSpec

    def __call__(self, u: tuple[int, ...]) -> SubsetCombiner:
        spec = self.spec
        if spec.weights is None:
            return lambda p_u: combine(spec, p_u)
        w_u = [spec.weights[i] for i in u]
        return lambda p_u: combine_stouffer_weighted(p_u, w_u)

    def bind(self, ps: Sequence[ProbValue]) -> PairKernel:
        spec, log_p = self.spec, np.array([p.log_value for p in ps])
        if spec.method == "fisher":
            return _Staged(lambda a, b: _pair_sums(-log_p, a, b), _log_fisher_from_half)
        if spec.method == "stouffer_weighted":
            from scipy import special

            w = np.array(spec.weights)
            if len(ps) != len(w):
                raise InputValidationError(f"{len(w)} weights for {len(ps)} p-values")
            wz, ww = w * _upper_z_rows(log_p), w * w
            return _Staged(lambda a, b: _pair_sums(wz, a, b) / np.sqrt(_pair_sums(ww, a, b)),
                           lambda t, _: special.log_ndtr(-t))
        rows = rows_for(spec)
        return lambda a, b: rows(np.hstack(
            (np.repeat(log_p[a], len(b), axis=0), np.tile(log_p[b], (len(a), 1)))))


def fixed_subset_combiner(spec: CombinerSpec) -> SubsetCombinerFactory:
    """Factory applying one symmetric rule to every subset."""
    if not spec.is_symmetric:
        raise InputValidationError("fixed_subset_combiner needs a symmetric rule")
    return _SubsetRule(spec)


def weighted_subset_combiner(weights: Sequence[float]) -> SubsetCombinerFactory:
    """Factory for the weighted z-rule with weights bound to studies:
    subset u is combined with the weights ``weights[i]`` for i in u.
    Binding it to other than one p-value per weight raises before any
    subset is scored."""
    return _SubsetRule(CombinerSpec("stouffer_weighted", weights=weights))


def weighted_gbhpc_rows(log_p: np.ndarray, r: int, weights: Sequence[float]) -> np.ndarray:
    """``gbhpc_enumerate`` with ``weighted_subset_combiner(weights)`` on each
    row of a (reps, n) array of log p-values, to roundoff for p in (0, 1).

    In z-space (one ``ndtri_exp`` per study, one weighted sum per subset,
    one ``log_ndtr`` per row) it costs about half of ``log_stouffer_rows``.
    """
    from scipy import special

    n = log_p.shape[1]
    _check_r(n, r)
    _check_budget(n, r)
    w = np.array(_check_weights(weights))
    if len(w) != n:
        raise InputValidationError(f"{len(w)} weights for {n} p-values")
    z = -special.ndtri_exp(log_p)
    low = np.full(log_p.shape[0], math.inf)
    for u in combinations(range(n), n - r + 1):
        w_u = w[list(u)]
        np.minimum(low, z[:, list(u)] @ w_u / math.sqrt(float(w_u @ w_u)), out=low)
    return special.log_ndtr(-low)


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


def _structured_logs(ps: Sequence[ProbValue], groups: GroupPartition,
                     lo: int, hi: int) -> list[float]:
    """log p of the grouped rule for each kept count lo..hi, from one
    pass of the ``structured_gbhpc`` dynamic program that drops only the
    states later blocks cannot bring into [lo, hi]."""
    n = len(ps)
    if groups.n != n:
        raise InputValidationError(f"partition is over {groups.n} indices, data has {n}")
    best: dict[int, dict[int, float]] = {0: {0: math.inf}}  # kept -> {used: low}
    left = n
    for block in groups.blocks:
        desc = sorted([ps[i].log_value for i in block], reverse=True)
        left -= len(block)
        # tops[c]: log Fisher of the c largest, computed when first needed.
        tops: list[float | None] = [None] * (len(block) + 1)
        step: dict[int, dict[int, float]] = {}
        for kept, row in best.items():
            for c in range(max(0, lo - left - kept), min(len(block), hi - kept) + 1):
                target = step.setdefault(kept + c, {})
                if c:
                    top = tops[c]
                    if top is None:
                        top = tops[c] = log_fisher(desc[:c])
                for used, low in row.items():
                    if c:
                        used, low = used + 1, min(low, top)
                    held = target.get(used)
                    if held is None or low > held:
                        target[used] = low
        best = step
    logs = [-math.inf] * (hi - lo + 1)
    for kept, row in best.items():
        for used, low in row.items():
            logs[kept - lo] = max(logs[kept - lo], min(0.0, math.log(used) + low))
    return logs


def structured_gbhpc(ps: Sequence[ProbValue], r: int, groups: GroupPartition) -> ProbValue:
    """Grouped GBHPC p-value by a dynamic program over blocks.

    For kept-counts (c_1..c_m), the best subset keeps the c_i largest
    p-values of block i (Fisher is monotone and symmetric), so the value
    is the max over sum c_i = n-r+1 of min(0, log(used) + min over used
    blocks of F_i(c_i)), with F_i(c) the log Fisher value of the top c
    of block i.  One pass keeps, per kept count, a row mapping blocks
    used to the largest such min (so each (kept, c) finds its target
    row once), and drops the kept counts that later blocks cannot fill
    to n-r+1: O(m * n * c) for m blocks of at most c studies.  Bit-exact:
    min(x, F) and x -> min(0, log(used) + x) are non-decreasing in
    floating point, so the max per state loses no profile.

    ``pc_curve`` runs one pass for every r, pruned to kept counts 1..n:
    every predecessor of a state that can reach a wanted count can too,
    so each state is the same exact max over the same profiles in the
    same order, and every r reads the bits it reads here.
    """
    _check_r(len(ps), r)
    keep = len(ps) - r + 1
    return ProbValue.from_log(_structured_logs(ps, groups, keep, keep)[0])


def extract_component(
    f: Callable[[Sequence[ProbValue]], ProbValue], n: int, u: Sequence[int]
) -> SubsetCombiner:
    """Recover the subset rule g_u hiding inside a monotone PC p-value.

    For a sensitive monotone rule, g_u(p_u) is the limit of
    f(p_u : eps at the other positions) as eps drops to 0.  The probes
    are log eps = -10, -1e2, -1e3, -1e4 and -1e5, deep enough for a
    left-out study of small weight to stop setting the maximum; the
    first value that the next probe repeats exactly is the limit.  No
    repeat signals a non-sensitive or non-monotone f and raises.
    """
    for name, v in (("n", n), *(("index", i) for i in u)):
        _check_kind(name, v, Integral)
    u = tuple(sorted(u))
    if any(i < 0 or i >= n for i in u) or len(set(u)) != len(u):
        raise InputValidationError(f"invalid index set {u!r} for n={n}")

    def evaluator(p_u: Sequence[ProbValue]) -> ProbValue:
        if len(p_u) != len(u):
            raise InputValidationError(f"expected {len(u)} values, got {len(p_u)}")
        if len(u) == n:
            return f(list(p_u))
        previous = None
        for log_eps in (-10.0, -1e2, -1e3, -1e4, -1e5):
            vec = [ProbValue.from_log(log_eps)] * n
            for pos, idx in enumerate(u):
                vec[idx] = p_u[pos]
            value = f(vec)
            if value == previous:
                return previous
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
    _check_alpha(alpha)
    selected = [x is not None for x in (spec, groups, g)]
    if sum(selected) != 1:
        raise InputValidationError("pass exactly one of spec=, groups=, g=")
    if spec is not None:
        return f"bhpc:{spec.method}", lambda r: bhpc(ps, r, spec)
    if groups is not None:
        return "gbhpc:structured", lambda r: structured_gbhpc(ps, r, groups)
    return "gbhpc:enumerate", lambda r: gbhpc_enumerate(ps, r, g, DEFAULT_ENUMERATION_BUDGET)


def pc_curve(
    ps: Sequence[ProbValue],
    alpha: float,
    *,
    spec: CombinerSpec | None = None,
    groups: GroupPartition | None = None,
    g: SubsetCombinerFactory | None = None,
) -> PcCurve:
    """PC p-values for every r = 1..n and the confidence set for r.

    The construction is chosen by ``select_construction``.  With ``g``,
    every r's enumeration budget is checked before any r is scored.
    With ``groups``, one ``structured_gbhpc`` pass scores every r.
    """
    method, evaluate = select_construction(ps, alpha, spec=spec, groups=groups, g=g)
    for r in range(1, len(ps) + 1) if g is not None else ():
        _check_budget(len(ps), r)
    if groups is not None:  # logs[-r] is kept count n - r + 1
        logs = _structured_logs(ps, groups, 1, len(ps))
        evaluate = lambda r: ProbValue.from_log(logs[-r])
    entries = tuple(PcEntry(r, evaluate(r)) for r in range(1, len(ps) + 1))
    return PcCurve(n=len(ps), method=method, alpha=alpha, entries=entries)
