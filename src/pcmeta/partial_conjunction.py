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
  which finds the maximum by ``_search``, a depth-first branch and bound
  over keeping or dropping each study whose bound is the best completion
  of a partial subset.  The scalar rule scores only the subsets the
  bound cannot rule out, so the result stays exact.  Other factories run
  the scalar loop over ``itertools.combinations``.

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
from itertools import accumulate, combinations
from numbers import Integral
from operator import attrgetter
from typing import Callable, Sequence

from .combiners import (
    _RESCORE_RTOL,
    CombinerSpec,
    _check_weights,
    _log_simes_sorted_rows,
    combine,
    combine_stouffer_weighted,
    log_fisher,
    rows_for,
)
from . import numerics
from .errors import (
    EnumerationBudgetError,
    InputValidationError,
    NonConvergenceError,
    _check_alpha,
    _check_kind,
    _LazyNumpy,
)
from .numerics import ProbValue, std_normal_quantile

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

DEFAULT_ENUMERATION_BUDGET = 10**6
# Entries per structured_subset_combiner memo: enough for every member
# set of every block when n <= 14; a few MB at most.
_BLOCK_FISHER_CACHE_SIZE = 1 << 14


@dataclass(frozen=True)
class GroupPartition:
    """A partition of study indices 0..n-1 into independence blocks."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_kind("n", self.n, Integral, low=0)
        object.__setattr__(self, "n", int(self.n))
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
    _check_kind("budget", budget, Integral, low=0)
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


def _search(walk: tuple, size: int, score: Callable[[tuple[int, ...]], ProbValue]) -> ProbValue:
    """The scalar loop's maximum of g over the ``size``-subsets.

    ``walk`` is (order, keys, start, keep, bound): the study indices in
    walk order, a key per position, and the bound with its state.  A
    node keeps the studies before position j that gave ``state`` (by
    ``keep(state, j)`` from ``start``) and m more from j on; ``bound(state,
    j, m)`` is at least log g of every such subset, up to roundoff far
    below tol = 1e-9 * (1 + |best|), best the largest score so far.
    ``score`` gives g of a subset's indices in walk order.
    ``gbhpc_enumerate`` gives the walk and its pruning.
    """
    order, keys, state, keep, bound = walk
    n = len(order)
    ends = list(range(1, n + 1))  # ends[j]: the position past the run of keys[j]
    for i in range(n - 2, -1, -1):
        if keys[i] == keys[i + 1]:
            ends[i] = ends[i + 1]
    best, first, floor = None, [], math.nan  # floor = best - 2 tol, NaN before any score
    kept: list[int] = []
    keeps: list[tuple] = []  # branches left to walk: (position, m, len(kept), state)
    j, m = 0, size
    while True:
        if not bound(state, j, m) <= floor:
            if 0 < m < n - j:
                keeps.append((j, m, len(kept), state))
                if ends[j] <= n - m:  # dropping j drops the rest of its run
                    j = ends[j]
                    continue
            else:
                value = score(u := (*kept, *order[n - m :]))  # m = 0 or m = n - j
                if best is None or value > best or value == best and sorted(u) < first:
                    best, first = value, sorted(u)
                floor = best.log_value - 2 * _RESCORE_RTOL * (1.0 + abs(best.log_value))
                if best.is_one:
                    return best
        if not keeps:
            return best
        j, m, depth, state = keeps.pop()
        kept[depth:] = [order[j]]
        j, m, state = j + 1, m - 1, keep(state, j)


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

    The result is the scalar loop's: the value of the first subset in
    ``itertools.combinations`` order that attains the maximum (strict
    ``>``).  Other factories run that loop.  Factories from
    ``fixed_subset_combiner`` and ``weighted_subset_combiner`` get the
    same ``ProbValue`` from ``_search``.  It walks the studies depth first,
    dropping then keeping each, and bounds log g over every completion
    of a partial subset that needs m more studies:
    * a symmetric rule walks by ascending log p; its bound is the rule
      on the kept p-values plus the m largest left;
    * the weighted z-rule walks heaviest weight first, with the rule's
      z.  With S, W the sums of w z and w^2 kept, t >= (S + the m
      smallest w z left) / sqrt(W + X), X the sum of the m largest w^2
      left if the numerator is >= 0, else of the m smallest; the bound
      is log Phi(-t).
    Each rule is non-decreasing in every p up to roundoff far below tol
    = 1e-9 * (1 + |best|), so nothing under a bound 2 tol below the best
    score attains the maximum; the scalar rule scores every subset left,
    and a tie keeps the smaller sorted index tuple.  Once a subset is
    scored, -inf bounds are pruned (a -inf maximum has the same bits in
    every subset), and a score of 0 ends the walk.  Swapping studies of
    equal key (log p; w z and w^2) keeps every bit of g, and equal keys
    are walked by index, so dropping a study drops the rest of its run
    of equal keys: a subset that keeps a later one has the same value as
    the swapped subset, which comes first in ``combinations`` order.
    """
    n = len(ps)
    _check_r(n, r)
    _check_budget(n, r, budget)
    size = n - r + 1
    if isinstance(g, _SubsetRule):
        return g.search(ps, size)
    best: ProbValue | None = None
    for u in combinations(range(n), size):
        value = g(u)([ps[i] for i in u])
        if best is None or value.log_value > best.log_value:
            best = value
    return best


@dataclass(frozen=True)
class _SubsetRule:
    """The subset rule g_u of one ``CombinerSpec``: called with a subset u
    it returns the scalar combiner, with any weights restricted to u.
    ``walk(ps)`` is its walk for ``_search`` (order, keys and bound, as
    ``gbhpc_enumerate`` gives them), and ``search(ps, size)`` runs it."""

    spec: CombinerSpec

    def __call__(self, u: tuple[int, ...]) -> SubsetCombiner:
        spec = self.spec
        if spec.weights is None:
            return lambda p_u: combine(spec, p_u)
        w_u = [spec.weights[i] for i in u]
        return lambda p_u: combine_stouffer_weighted(p_u, w_u)

    def walk(self, ps: Sequence[ProbValue]) -> tuple:
        """The walk of ``_search`` over ``ps``.  The weighted one keeps the
        sums of w z and w^2 kept; ``rests[j]`` is w z from position j on,
        ascending, and ``tails[j]`` the sum of w^2 from j on."""
        spec, n = self.spec, len(ps)
        if spec.weights is None:
            order = sorted(range(n), key=lambda i: ps[i].log_value)
            ascending = [ps[i] for i in order]
            return (order, [p.log_value for p in ascending], (),
                    lambda kept, j: (*kept, ascending[j]),
                    lambda kept, j, m: combine(spec, [*kept, *ascending[n - m :]]).log_value)
        w = spec.weights
        combine_stouffer_weighted(ps, w)  # raises on a wrong weight count or a p of 0 or 1
        wz = [wi * -std_normal_quantile(p) for wi, p in zip(w, ps)]
        order = sorted(range(n), key=lambda i: (-w[i] * w[i], wz[i]))
        wz, ww = [wz[i] for i in order], [w[i] * w[i] for i in order]
        tails = [*accumulate(reversed(ww), initial=0.0)][::-1]
        rests = [*accumulate(reversed(wz), lambda rest, x: sorted((x, *rest)), initial=())][::-1]

        def bound(sums: tuple[float, float], j: int, m: int) -> float:
            low = sums[0] + sum(rests[j][:m])
            squares = tails[j] - tails[j + m] if low >= 0.0 else tails[n - m]
            return numerics._log_ndtr(-low / math.sqrt(sums[1] + squares))

        return (order, list(zip(wz, ww)), (0.0, 0.0),
                lambda sums, j: (sums[0] + wz[j], sums[1] + ww[j]), bound)

    def search(self, ps: Sequence[ProbValue], size: int) -> ProbValue:
        return _search(self.walk(ps), size, lambda u: self(u)([ps[i] for i in u]))


def fixed_subset_combiner(spec: CombinerSpec) -> SubsetCombinerFactory:
    """Factory applying one symmetric rule to every subset."""
    if not spec.is_symmetric:
        raise InputValidationError("fixed_subset_combiner needs a symmetric rule")
    return _SubsetRule(spec)


def weighted_subset_combiner(weights: Sequence[float]) -> SubsetCombinerFactory:
    """Factory for the weighted z-rule with weights bound to studies:
    subset u is combined with the weights ``weights[i]`` for i in u.
    Enumerating other than one p-value per weight raises before any
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
    if spec is not None:  # sorted once: bhpc's sort of sorted input is one linear pass
        ranked = lru_cache(None)(lambda: sorted(ps, key=attrgetter("log_value")))
        return f"bhpc:{spec.method}", lambda r: bhpc(ranked(), r, spec)
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
