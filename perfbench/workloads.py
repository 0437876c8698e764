"""The four benchmark workloads: inputs made from the seed, the operations
run on them, and the checks applied to every operation's output.

Each operation drives a command users run, in process through
``pcmeta.cli.main(argv)``, except for the two PC rules the CLI cannot
express, which go through the public ``mc_validity``.  An operation
returns its raw output; its parser checks the invariants that hold on
any seed and reduces the output to a ``Result`` that can be compared
with the references recorded from the program (``refs.json``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pcmeta.cli
from pcmeta import combiners, oracle, partial_conjunction
from pcmeta.numerics import ProbValue
from pcmeta.oracle import NullConfig
from pcmeta.partial_conjunction import GroupPartition

# Relative agreement required of deterministic outputs (PC p-values,
# exact-test p-values) with their references.
REL_TOL = 1e-12
# Rejection rates of valid rules must stay below alpha + NULL_SE_SLACK
# standard errors on every seed; 5 SE keeps false alarms near 3e-7 each.
NULL_SE_SLACK = 5.0
MC_REPS = 10**4  # the smallest replicate count mc_validity accepts
POWER_REPS = 2 * 10**4


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Result:
    """Numbers from one output, in a form comparable with a reference.

    Without ``se`` the values must match the reference to ``REL_TOL``
    relative; with it (Monte Carlo outputs) each value must lie within
    one reference standard error.  ``flags`` must match exactly.
    ``entries_used`` counts the PC curve entries the command printed.
    """

    values: list[float]
    flags: list[Any]
    se: list[float] | None = None
    entries_used: int = 0

    def to_ref(self) -> dict:
        return {"values": self.values, "se": self.se, "flags": self.flags}


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    parse: Callable[[Any], Result]


@dataclass
class Workload:
    """Why each workload exists is in its builder's docstring."""

    build: Callable[[int, str, Path], list[Op]]
    # False when the inputs do not depend on the seed, so the references
    # hold on every seed.
    seeded: bool = True


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def compare(result: Result, ref: dict) -> None:
    """Raise CheckFailed unless ``result`` agrees with the reference."""
    _require(len(result.values) == len(ref["values"]),
             f"{len(result.values)} values, reference has {len(ref['values'])}")
    _require(result.flags == ref["flags"],
             f"flags {result.flags} != reference {ref['flags']}")
    for i, (got, want) in enumerate(zip(result.values, ref["values"])):
        if ref["se"] is None:
            _require(_close(got, want), f"value {i}: {got!r} != reference {want!r}")
        else:
            se = ref["se"][i]
            _require(abs(got - want) <= se,
                     f"value {i}: {got!r} is more than one SE ({se!r}) "
                     f"from reference {want!r}")


def run_cli(argv: list[str]) -> str:
    """Run one CLI command in process; return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # Looked up on every call so that the traced run sees its wrapper.
            code = pcmeta.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    _require(code == 0, f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _cli_op(label: str, argv: list[str], parse: Callable[[Any], Result]) -> Op:
    return Op(label, lambda: run_cli(argv), parse)


def _two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def _fisher_p(ps: list[float]) -> float:
    """Fisher's combination, written out here to check the program."""
    half = -sum(math.log(p) for p in ps)
    return math.exp(-half) * sum(half**j / math.factorial(j) for j in range(len(ps)))


def _read_csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------- parsers


def _parse_curve(out: str) -> Result:
    doc = json.loads(out)
    entries = doc["entries"]
    n = doc["n"]
    _require([e["r"] for e in entries] == list(range(1, n + 1)), "r does not cover 1..n")
    ps = [e["p"] for e in entries]
    _require(all(0.0 <= p <= 1.0 for p in ps), "p outside [0, 1]")
    rejected = [e["r"] for e in entries if e["log_p"] <= math.log(doc["alpha"])]
    _require(doc["confidence_set"] == rejected, "confidence set disagrees with p-values")
    _require(doc["r_hat"] == max(rejected, default=0), "r_hat disagrees with confidence set")
    return Result(ps, [doc["method"], doc["confidence_set"], doc["r_hat"]],
                  entries_used=n)


def _parse_single_r(out: str) -> Result:
    doc = json.loads(out)
    _require(0.0 <= doc["p"] <= 1.0, "p outside [0, 1]")
    _require(doc["rejected"] == (doc["log_p"] <= math.log(doc["alpha"])),
             "rejected disagrees with p")
    return Result([doc["p"]], [doc["method"], doc["n"], doc["r"], doc["rejected"]],
                  entries_used=1)


def _parse_exact2x2(out: str) -> Result:
    rows = json.loads(out)["rows"]
    _require(all(0.0 <= row["p"] <= 1.0 for row in rows), "p outside [0, 1]")
    return Result([row["p"] for row in rows] + [row["odds_ratio"] for row in rows],
                  [row["study_id"] for row in rows])


def _parse_estimates(estimates: list[dict], reps: int) -> Result:
    """Checks on mc_validity output that hold for any seed: the bound and
    standard-error formulas, and validity of rules that are valid."""
    for e in estimates:
        a, rate = e["alpha"], e["rate"]
        se_alpha = math.sqrt(a * (1.0 - a) / reps)
        _require(0.0 <= rate <= 1.0, f"rate {rate} outside [0, 1]")
        _require(_close(e["bound"], a + 3.0 * se_alpha, 1e-9), "bound formula")
        _require(_close(e["se"], math.sqrt(rate * (1.0 - rate) / reps), 1e-9), "se formula")
        _require(e["valid"] == (rate <= e["bound"]), "valid flag disagrees with bound")
        _require(rate <= a + NULL_SE_SLACK * se_alpha,
                 f"rate {rate} at alpha {a} is far above alpha for a valid rule")
    return Result([e["rate"] for e in estimates], [e["valid"] for e in estimates],
                  se=[e["se"] for e in estimates])


def _parse_validity_json(out: str) -> Result:
    doc = json.loads(out)
    return _parse_estimates(doc["estimates"], doc["reps"])


def _parse_library_estimates(estimates) -> Result:
    return _parse_estimates(
        [{"alpha": e.alpha, "rate": e.rate, "se": e.se, "bound": e.bound,
          "valid": e.valid} for e in estimates],
        MC_REPS,
    )


def _check_power_rows(rows: list[dict[str, str]], reps: int) -> None:
    for row in rows:
        p, se = float(row["power"]), float(row["se"])
        _require(0.0 <= p <= 1.0, f"power {p} outside [0, 1]")
        _require(_close(se, math.sqrt(p * (1.0 - p) / reps), 1e-9), "se formula")


def _power_result(rows: list[dict[str, str]], key_fields: tuple[str, ...]) -> Result:
    return Result([float(r["power"]) for r in rows],
                  ["|".join(r[k] for k in key_fields) for r in rows],
                  se=[float(r["se"]) for r in rows])


# -------------------------------------------------------------- workloads


def _noac_ops(seed: int, size: str, work: Path) -> list[Op]:
    """The paper's real analysis: ``pc`` on the bundled 18-subgroup NOAC
    data (the first 9 rows at tiny size), plus ``exact2x2`` on its counts.

    ``gbhpc_enumerate`` (262,143 subsets per enumerated curve) and the
    scalar combiners take over 90% of the time.  ``--r`` costs as much
    as a full curve, because ``pc`` computes all entries.  The data are
    real, so the inputs are the same on every seed.
    """
    views = {}
    for view in ("pvalues", "counts"):
        lines = run_cli(["dataset", "--view", view]).splitlines(keepends=True)
        if size == "tiny":
            lines = lines[:10]
        views[view] = work / f"noac_{view}.csv"
        views[view].write_text("".join(lines), encoding="utf-8")
    n = len(lines) - 1  # both views have the same rows
    pv, counts = str(views["pvalues"]), str(views["counts"])
    r_mid = (n + 1) // 2
    return [
        _cli_op("pc_fisher", ["pc", pv, "--json"], _parse_curve),
        _cli_op("pc_simes", ["pc", pv, "--json", "--method", "simes"], _parse_curve),
        _cli_op("pc_bonferroni", ["pc", pv, "--json", "--method", "bonferroni"],
                _parse_curve),
        _cli_op("pc_tpm", ["pc", pv, "--json", "--method", "tpm", "--gamma", "0.2"],
                _parse_curve),
        _cli_op("pc_groups", ["pc", pv, "--json", "--groups"], _parse_curve),
        _cli_op("pc_enumerate_fisher",
                ["pc", pv, "--json", "--enumerate", "--method", "fisher"], _parse_curve),
        _cli_op("pc_stouffer",
                ["pc", pv, "--json", "--method", "stouffer", "--weights-from", "n_sample"],
                _parse_curve),
        _cli_op("pc_enumerate_r_mid",
                ["pc", pv, "--json", "--enumerate", "--r", str(r_mid)], _parse_single_r),
        _cli_op("exact2x2", ["exact2x2", counts, "--json"], _parse_exact2x2),
    ]


def _write_grouped_csv(path: Path, blocks: int, rng: random.Random) -> list[float]:
    """``blocks`` blocks of 3 studies; about half the studies are non-null."""
    ps = []
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["study_id", "group_factor", "p"])
        for b in range(blocks):
            for j in range(3):
                mean = 2.5 if rng.random() < 0.5 else 0.0
                p = max(_two_sided_p(rng.gauss(mean, 1.0)), 1e-300)
                ps.append(p)
                writer.writerow([f"s{b}_{j}", f"g{b}", repr(p)])
    return ps


def _grouped_parser(ps: list[float], blocks: int, enumerate_all: bool):
    """Checks of a ``pc --groups`` curve that hold on any seed.

    The r = n entry is the largest p, and the r = 1 entry is Bonferroni
    over blocks of the block Fisher values.  On the smallest partition
    every entry must equal exact enumeration over raw subsets.
    """
    labels = [f"g{b}" for b in range(blocks) for _ in range(3)]

    def parse(out: str) -> Result:
        result = _parse_curve(out)
        got = result.values
        _require(_close(got[-1], max(ps)), f"p_n/n {got[-1]!r} != max p {max(ps)!r}")
        first = min(1.0, blocks * min(_fisher_p(ps[3 * b:3 * b + 3]) for b in range(blocks)))
        _require(_close(got[0], first, 1e-9), f"p_1/n {got[0]!r} != {first!r}")
        if enumerate_all:
            groups = GroupPartition.from_labels(labels)
            factory = partial_conjunction.structured_subset_combiner(groups)
            pvs = [ProbValue.from_linear(p) for p in ps]
            for r, value in enumerate(got, start=1):
                want = partial_conjunction.gbhpc_enumerate(pvs, r, factory).linear
                _require(_close(value, want),
                         f"structured p_{r} {value!r} != enumerated {want!r}")
        return result

    return parse


def _wide_groups_ops(seed: int, size: str, work: Path) -> list[Op]:
    """``pc --groups`` on seeded CSVs of 4, 9 and 10 blocks of 3 studies.

    ``structured_gbhpc`` takes nearly all the time here, and 50 ms in
    noac_curves, so without this workload a faster grouped construction
    would go unmeasured.  Its time grows about 18x per two blocks; 11
    blocks would take over 13 s per curve.  The 4-block partition is
    small enough to check against exact enumeration on every seed.
    """
    rng = random.Random(f"wide_groups:{seed}")
    block_counts = (3, 4) if size == "tiny" else (4, 9, 10)
    ops = []
    for i, blocks in enumerate(block_counts):
        path = work / f"groups_{blocks}x3.csv"
        ps = _write_grouped_csv(path, blocks, rng)
        ops.append(_cli_op(f"pc_groups_{blocks}x3", ["pc", str(path), "--json", "--groups"],
                           _grouped_parser(ps, blocks, enumerate_all=i == 0)))
    return ops


def _validity_ops(seed: int, size: str, work: Path) -> list[Op]:
    """``oracle validity`` for five combiners at k = 2, 5, 10 and a
    drop-smallest PC rule at a boundary null, plus ``mc_validity`` with
    the grouped and index-weighted Stouffer GBHPC rules at n = 8.

    The time goes into the per-replicate scalar path: the oracle loop,
    ``ProbValue`` construction and one combiner call per replicate,
    which is what a batched kernel would replace.
    """
    ks = (2,) if size == "tiny" else (2, 5, 10)
    n_pc = 4 if size == "tiny" else 8
    seeds = iter(range(seed * 100, seed * 100 + 100))
    ops = []
    for k in ks:
        for method in ("fisher", "simes", "bonferroni", "tpm", "stouffer"):
            argv = ["oracle", "validity", "--method", method, "--k", str(k),
                    "--reps", str(MC_REPS), "--seed", str(next(seeds)), "--json"]
            if method == "tpm":
                argv += ["--gamma", "0.2"]
            ops.append(_cli_op(f"{method}_k{k}", argv, _parse_validity_json))
    boundary = (3.0,) + (0.0,) * (n_pc - 1)
    ops.append(_cli_op(
        f"bhpc_fisher_r2_n{n_pc}",
        ["oracle", "validity", "--method", "fisher", "--pc-r", "2",
         "--z-means", ",".join(f"{z:g}" for z in boundary),
         "--reps", str(MC_REPS), "--seed", str(next(seeds)), "--json"],
        _parse_validity_json))

    # The PC rules of acceptance criterion 6 that the CLI cannot express.
    config = NullConfig(n_pc, z_means=boundary)
    groups = GroupPartition.from_labels(list("aabbbccc" if n_pc == 8 else "aabb"))
    sizes = (100, 100, 100, 500, 500, 500, 1000, 1000)[:n_pc]
    weights = [math.sqrt(s) for s in sizes]

    # Library functions are looked up on their modules at call time, so
    # that the traced run sees its wrappers.
    def stouffer_factory(u):
        return lambda p_u: combiners.combine_stouffer_weighted(p_u, [weights[i] for i in u])

    rules = {
        "structured_gbhpc": lambda ps: partial_conjunction.structured_gbhpc(ps, 2, groups),
        "stouffer_gbhpc": lambda ps: partial_conjunction.gbhpc_enumerate(
            ps, 2, stouffer_factory),
    }
    for name, rule in rules.items():
        mc_seed = next(seeds)
        ops.append(Op(
            f"{name}_r2_n{n_pc}",
            lambda rule=rule, mc_seed=mc_seed: oracle.mc_validity(
                rule, config, [0.01, 0.05], MC_REPS, mc_seed),
            _parse_library_estimates))
    return ops


def _power_ops(seed: int, size: str, work: Path) -> list[Op]:
    """``simulate`` on a 3x3 (mu0, sigma0) grid with r0 in {2, 4, 6}, and
    ``counterexample`` on an 11x11 grid, with seeded Monte Carlo streams.

    These use the vectorised numpy rules and no scalar combiners, so a
    shared-kernel change that helps validity_mc but slows the batched
    path shows up here.  The grid points are fixed (every third point of
    the default ``simulate`` grid): the cost of drawing Gamma effects
    depends on their shape, so a seeded grid would make the work vary
    with the seed.
    """
    rng = random.Random(f"power_maps:{seed}")
    tiny = size == "tiny"
    step = 6 if tiny else 3
    reps = 2000 if tiny else POWER_REPS
    config = {
        "mu0_values": [round(0.02 + 0.042 * i, 4) for i in range(1, 10, step)],
        "sigma0_values": [round(0.01 + 0.043 * i, 4) for i in range(1, 10, step)],
        "r0": [2] if tiny else [2, 4, 6],
        "reps": reps,
        "seed": rng.randrange(10**6),
    }
    config_path = work / "simulate.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    sim_out = work / "power.csv"
    n_cells = (len(config["mu0_values"]) * len(config["sigma0_values"])
               * len(config["r0"]) * 3)

    def parse_simulate(_out: str) -> Result:
        rows = _read_csv_rows(sim_out)
        _require(len(rows) == n_cells, f"{len(rows)} power rows, expected {n_cells}")
        _check_power_rows(rows, reps)
        return _power_result(rows, ("mu0", "sigma0", "method", "r0"))

    grid = 3 if tiny else 11
    ce_reps = 10**4 if tiny else POWER_REPS
    alpha = 0.1
    ce_out = work / "counterexample.csv"

    def parse_counterexample(_out: str) -> Result:
        rows = _read_csv_rows(ce_out)
        _require(len(rows) == 3 * grid * grid, f"{len(rows)} counterexample rows")
        _check_power_rows(rows, ce_reps)
        by_point = {}
        for row in rows:
            by_point.setdefault((row["mu1"], row["mu2"]), {})[row["test"]] = float(row["power"])
        for point, powers in by_point.items():
            # The three tests share draws and their regions nest.
            _require(powers["phi"] <= powers["phi_prime"] <= powers["phi_tilde"],
                     f"regions do not nest at {point}")
        null = by_point[("0.0", "0.0")]
        limit = alpha + NULL_SE_SLACK * math.sqrt(alpha * (1.0 - alpha) / ce_reps)
        _require(max(null.values()) <= limit, f"null power {null} above {limit}")
        return _power_result(rows, ("mu1", "mu2", "test"))

    return [
        _cli_op("simulate", ["simulate", str(config_path), "--out", str(sim_out)],
                parse_simulate),
        _cli_op("counterexample",
                ["counterexample", "--grid", str(grid), "--reps", str(ce_reps),
                 "--alpha", str(alpha), "--seed", str(rng.randrange(10**6)),
                 "--out", str(ce_out)],
                parse_counterexample),
    ]


WORKLOADS = {
    "noac_curves": Workload(_noac_ops, seeded=False),
    "wide_groups": Workload(_wide_groups_ops),
    "validity_mc": Workload(_validity_ops),
    "power_maps": Workload(_power_ops),
}
