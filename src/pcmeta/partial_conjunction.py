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
  library factories ``fixed_subset_combiner`` and
  ``weighted_subset_combiner`` also carry an array form, which scores
  every subset; the scalar rule rescores only those that
  ``combiners._needs_rescore`` selects, so the result stays exact.
  Both passes get their index rows from one numpy unranker (rank ->
  subset in ``itertools.combinations`` order), a batch at a time.
  Other factories run the scalar loop over ``itertools.combinations``.

Monte Carlo studies use the row forms ``bhpc_rows`` and
``weighted_gbhpc_rows``: one log p per row of a (reps, n) array.

``structured_gbhpc`` is the fast path for the grouped construction used
on the anticoagulant subgroup data: within each independence block the
subset p-value is a Fisher combination, and blocks are combined by
Bonferroni.  It optimizes over per-block kept-counts instead of raw
subsets (lossless, because Fisher is symmetric and monotone) with a
dynamic program over (blocks, kept, blocks used), polynomial in n, and
equals full enumeration bit for bit.

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
from typing import Callable, Iterator, Sequence

from .combiners import (
    _CHUNK_ROWS,
    CombinerSpec,
    _check_weights,
    _log_simes_sorted_rows,
    _needs_rescore,
    _upper_z_rows,
    combine,
    combine_stouffer_weighted,
    log_fisher,
    log_stouffer_rows,
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
# Approximate log g_u for each row of a (rows, |u|) matrix of study indices.
RowKernel = Callable[["np.ndarray"], "np.ndarray"]

DEFAULT_ENUMERATION_BUDGET = 10**6
# Entries per structured_subset_combiner memo: enough for every member
# set of every block when n <= 14; a few MB at most.
_BLOCK_FISHER_CACHE_SIZE = 1 << 14
# Indices per batch of unranked subsets (256 kB of intp): several kernel
# chunks for small subsets, one chunk from 32 studies per subset up.
_BATCH_ENTRIES = 1 << 15


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


class _ArrayFactory:
    """A subset-combiner factory that can also score subsets in bulk.

    Called with a subset it returns the scalar combiner, like any
    factory.  ``bind(ps)`` returns a ``RowKernel`` for these p-values,
    NaN for the subsets it cannot score.
    """

    def __init__(
        self,
        scalar: SubsetCombinerFactory,
        bind: Callable[[Sequence[ProbValue]], RowKernel],
    ) -> None:
        self._scalar = scalar
        self.bind = bind

    def __call__(self, u: tuple[int, ...]) -> SubsetCombiner:
        return self._scalar(u)


def _unrank_directly(n: int, size: int) -> bool:
    """Whether ``_unranker`` unranks the subsets themselves rather than
    their complements.  On batches of 1,024 to 3,072 rows at n = 18, 24
    and 40 (numpy 2.4, x86-64), unranking the subsets was faster up to
    size = 2 (n - size) and the complement plus its mask beyond."""
    return 2 * (n - size) >= size


def _unranker(n: int, size: int) -> Callable[[np.ndarray], np.ndarray]:
    """Map ranks to the subsets of range(n) of ``size`` elements, in
    ``itertools.combinations`` order: one ascending ``intp`` row per rank.

    A k-subset c_0 < .. < c_{k-1} has lex rank C(n, k) - 1 - m with
    m = sum_j C(n-1-c_j, k-j), so level j takes the largest
    C(n-1-c_j, k-j) not above what is left of m: one ``searchsorted``
    per level for all ranks at once.  A level's table holds only the
    values c_j >= j can reach, every one at most C(n, k), so int64 never
    overflows.  The cost grows with the number of levels, so when
    ``_unrank_directly`` says no, the complement is unranked instead
    (its lex rank reverses the subset's, so m = rank) and each row is
    what its mask leaves.
    """
    direct = _unrank_directly(n, size)
    k = size if direct else n - size
    levels = []
    for j, i in enumerate(range(k, 0, -1)):
        reachable = range(i - 1, n - k + i)  # b = n-1-c_j for c_j = n-k+j .. j
        table = np.array([math.comb(b, i) for b in reachable], dtype=np.int64)
        levels.append((table, table[1:], n - k + j))
    top = math.comb(n, size) - 1

    def unrank(ranks: np.ndarray) -> np.ndarray:
        m = top - ranks if direct else np.array(ranks, dtype=np.int64)
        cols = np.empty((len(m), k), dtype=np.intp)
        for j, (table, above_zero, first) in enumerate(levels):
            pos = above_zero.searchsorted(m, side="right")
            m -= table[pos]
            np.subtract(first, pos, out=cols[:, j])
        if direct:
            return cols
        offsets = np.arange(0, len(m) * n, n)[:, None]
        mask = np.ones(len(m) * n, dtype=bool)
        mask[cols + offsets] = False
        rows = np.flatnonzero(mask).reshape(-1, size)
        rows -= offsets
        return rows

    return unrank


def _screen(n: int, size: int, kernel: RowKernel) -> Iterator[tuple[int, ...]]:
    """Yield the subsets of size ``size``, in enumeration order, that
    ``_needs_rescore`` selects with the approximate maximum M as target.

    Both passes take their subsets from one ``_unranker``, a batch of
    whole ``_CHUNK_ROWS`` chunks at a time (about ``_BATCH_ENTRIES``
    indices, one chunk for large subsets), so the index matrix of all
    subsets is never built.  The first pass unranks consecutive ranks
    and calls the kernel on each chunk of the batch.  When M = -inf the
    first non-NaN subset stands for all of them (see
    ``gbhpc_enumerate``).  The second pass unranks only the kept ranks.
    """
    unrank = _unranker(n, size)
    batch = _CHUNK_ROWS * max(1, _BATCH_ENTRIES // (_CHUNK_ROWS * size))
    approx = np.empty(math.comb(n, size))
    for start in range(0, len(approx), batch):
        rows = unrank(np.arange(start, min(start + batch, len(approx))))
        for i in range(0, len(rows), _CHUNK_ROWS):
            approx[start + i : start + i + _CHUNK_ROWS] = kernel(rows[i : i + _CHUNK_ROWS])
    top = np.fmax.reduce(approx, initial=-math.inf)  # NaN-ignoring max
    if top == -math.inf:
        keep = np.isnan(approx)
        keep[keep.argmin()] = True  # the first non-NaN subset, if any
    else:
        keep = _needs_rescore(approx, [top])
    kept = np.flatnonzero(keep)
    for start in range(0, len(kept), batch):
        yield from map(tuple, unrank(kept[start : start + batch]).tolist())


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
    TPM included) or ``weighted_subset_combiner``, an array kernel first
    writes an approximate log value per subset into one float array
    (C(n, r-1) floats, at most 8 MB within the default budget), scoring
    index rows that ``_unranker`` builds from consecutive ranks a batch
    at a time.  The scalar rule then scores, in enumeration order with
    the same strict ``>``, only the subsets ``_needs_rescore`` keeps
    (unranked again from their ranks) with the maximum M of the non-NaN
    values as target: NaN ones and those within
    tol = 1e-9 * (1 + |M|) of M.  A kernel's numbers agree with the
    scalar rule to far less than tol / 2, so every subset attaining the
    exact maximum is rescored and the first of them is the one the full
    scalar loop returns: the same ``ProbValue``, bit for bit.  NaN marks
    a subset the kernel cannot score: for the weighted rule, one holding
    a p of 0 or 1, where the scalar rule raises as it always has.  A
    kernel value is -inf only where the scalar value is -inf too (a p of
    0; for the weighted rule also log p below about -5e307, past
    |z| ~ 1e154), so when M = -inf the first non-NaN subset stands for
    all of them.  Other factories take the scalar loop over every subset.
    """
    n = len(ps)
    _check_r(n, r)
    _check_budget(n, r, budget)
    size = n - r + 1
    if isinstance(g, _ArrayFactory):
        subsets = _screen(n, size, g.bind(ps))
    else:
        subsets = combinations(range(n), size)
    best: ProbValue | None = None
    for u in subsets:
        value = g(u)([ps[i] for i in u])
        if best is None or value.log_value > best.log_value:
            best = value
    return best


def fixed_subset_combiner(spec: CombinerSpec) -> SubsetCombinerFactory:
    """Factory applying one symmetric rule to every subset, with the
    rule's row form (``rows_for``) as the array form for
    ``gbhpc_enumerate``.
    """
    if not spec.is_symmetric:
        raise InputValidationError("fixed_subset_combiner needs a symmetric rule")
    rows = rows_for(spec)

    def factory(u: tuple[int, ...]) -> SubsetCombiner:
        return lambda p_u: combine(spec, p_u)

    def bind(ps: Sequence[ProbValue]) -> RowKernel:
        log_p = np.array([p.log_value for p in ps])
        return lambda idx: rows(log_p[idx])

    return _ArrayFactory(factory, bind)


def weighted_subset_combiner(weights: Sequence[float]) -> SubsetCombinerFactory:
    """Factory for the weighted z-rule with weights bound to studies:
    subset u is combined with the weights ``weights[i]`` for i in u.

    The array form computes z_i = Phi^{-1}(1 - p_i) once per study with
    ``combiners._upper_z_rows``, NaN for a p of 0 or 1 (or within 1e-6
    of 1), so every subset holding one is rescored and the scalar rule
    raises on it as it always has.  Binding it to other than one p-value
    per weight raises before any subset is scored.
    """
    weights = _check_weights(weights)
    w = np.array(weights)

    def factory(u: tuple[int, ...]) -> SubsetCombiner:
        w_u = [weights[i] for i in u]
        return lambda p_u: combine_stouffer_weighted(p_u, w_u)

    def bind(ps: Sequence[ProbValue]) -> RowKernel:
        if len(ps) != len(weights):
            raise InputValidationError(f"{len(weights)} weights for {len(ps)} p-values")
        z = _upper_z_rows(np.array([p.log_value for p in ps]))
        return lambda idx: log_stouffer_rows(z[idx], w[idx])

    return _ArrayFactory(factory, bind)


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


def structured_gbhpc(
    ps: Sequence[ProbValue], r: int, groups: GroupPartition
) -> ProbValue:
    """Grouped GBHPC p-value by a dynamic program over blocks.

    For kept-counts (c_1..c_m), the best subset keeps the c_i largest
    p-values of block i (Fisher is monotone and symmetric), so the value
    is the max over sum c_i = n-r+1 of min(0, log(used) + min over used
    blocks of F_i(c_i)), with F_i(c) the log Fisher value of the top c
    of block i.  One pass keeps, per state (kept, blocks used), the
    largest such min, and drops states that later blocks cannot fill to
    n-r+1: O(m * n * c) for m blocks of at most c studies.  Bit-exact:
    min(x, F) and x -> min(0, log(used) + x) are non-decreasing in
    floating point, so the max per state loses no profile.
    """
    n = len(ps)
    _check_r(n, r)
    if groups.n != n:
        raise InputValidationError(f"partition is over {groups.n} indices, data has {n}")
    keep = n - r + 1
    best: dict[tuple[int, int], float] = {(0, 0): math.inf}
    left = n
    for block in groups.blocks:
        desc = sorted([ps[i].log_value for i in block], reverse=True)
        left -= len(block)
        # tops[c]: log Fisher of the c largest, computed when first needed.
        tops: list[float | None] = [None] * (len(block) + 1)
        step: dict[tuple[int, int], float] = {}
        for (kept, used), low in best.items():
            for c in range(max(0, keep - left - kept), min(len(block), keep - kept) + 1):
                if c == 0:
                    state, value = (kept, used), low
                else:
                    top = tops[c]
                    if top is None:
                        top = tops[c] = log_fisher(desc[:c])
                    state, value = (kept + c, used + 1), min(low, top)
                held = step.get(state)
                if held is None or value > held:
                    step[state] = value
        best = step
    return ProbValue.from_log(
        max(min(0.0, math.log(used) + low) for (_, used), low in best.items())
    )


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

    The construction is chosen by ``select_construction``.
    """
    method, evaluate = select_construction(ps, alpha, spec=spec, groups=groups, g=g)
    entries = tuple(PcEntry(r, evaluate(r)) for r in range(1, len(ps) + 1))
    return PcCurve(n=len(ps), method=method, alpha=alpha, entries=entries)
