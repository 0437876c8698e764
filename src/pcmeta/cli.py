"""Command-line front end.

Exit codes: 0 success, 1 stdout closed before the output was written,
2 input validation error, 3 numeric non-convergence.  Errors, argparse's
refusals of the argument vector included, go to stderr as a one-line
JSON object; with ``--json`` stdout carries nothing but the result
document.  Every random command takes ``--seed`` (default: the
PCMETA_SEED environment variable, else 0; ``simulate`` refuses it when
the config sets ``seed``), and a fixed seed yields byte-identical output
files.  ``main`` builds the parser on its first call and reuses it,
which saves time only where one process calls ``main`` more than once;
a ``pcmeta`` launch builds one parser either way.  The parser holds each
handler's name, and ``main`` looks the handler up in this module when it
dispatches.

Importing this module loads only ``pcmeta.errors`` of the package.  Each
``cmd_*`` imports the library names it runs when it runs: ``pc``,
``combine``, ``exact2x2`` and ``dataset`` load ``io``, ``combiners``,
``numerics`` and ``partial_conjunction``; ``simulate``,
``counterexample`` and ``oracle`` add the module they are named for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache

from .errors import InputValidationError, NonConvergenceError, PcmetaError, _LazyNumpy

np = _LazyNumpy(globals())

CLI_METHODS = ("fisher", "simes", "bonferroni", "tpm", "stouffer")


def _default_seed() -> int:
    raw = os.environ.get("PCMETA_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise InputValidationError(f"PCMETA_SEED is not an integer: {raw!r}")


def _build_spec(args, studies) -> CombinerSpec:
    """The rule that --method names.  Refuses an option that the method
    would silently ignore.  Stouffer weighs ``studies`` (one item per
    study) equally, or by the records' n_sample with --weights-from."""
    from . import io as pio
    from .combiners import CombinerSpec
    if args.gamma is not None and args.method != "tpm":
        raise InputValidationError("--gamma applies only to --method tpm")
    weights_from = getattr(args, "weights_from", None)
    if weights_from is not None and args.method != "stouffer":
        raise InputValidationError("--weights-from applies only to --method stouffer")
    if args.method == "tpm":
        if args.gamma is None:
            raise InputValidationError("--method tpm requires --gamma")
        return CombinerSpec("tpm", tpm_gamma=args.gamma)
    if args.method == "stouffer":
        weights = (pio.stouffer_weights_from_records(studies) if weights_from
                   else (1.0,) * len(studies))
        return CombinerSpec("stouffer_weighted", weights=weights)
    return CombinerSpec(args.method)


def _check_out_path(path: str) -> None:
    """Refuse, before any work, an output path that is a directory (the
    empty path is the working one) or whose parent is missing or not a
    directory.  Opens nothing."""
    full = os.path.abspath(path)
    if os.path.isdir(full):
        raise InputValidationError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(os.path.dirname(full)):
        raise InputValidationError(f"cannot write {path}: its parent is not a directory")


def _write_text(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is an input error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputValidationError(f"cannot write {path}: {exc}")


def _load_input(path: str):
    from . import io as pio
    records = pio.read_study_csv(path)
    return records, pio.records_to_pvalues(records)


def cmd_combine(args) -> int:
    from . import io as pio
    from .combiners import combine
    records, ps = _load_input(args.input)
    spec = _build_spec(args, records)
    result = combine(spec, ps)
    if args.json:
        print(pio.json_dumps({
            "method": args.method,
            "n": len(ps),
            "p": result.linear,
            "log_p": result.log_value,
        }))
    else:
        print(f"combined p ({args.method}, n={len(ps)}): {pio.format_prob(result)}")
    return 0


def cmd_pc(args) -> int:
    from . import io as pio
    from .partial_conjunction import (fixed_subset_combiner, pc_curve, select_construction,
                                      weighted_subset_combiner)
    if args.csv is not None:
        if args.json or args.r is not None:
            raise InputValidationError("--csv writes the whole curve; it takes no --json or --r")
        _check_out_path(args.csv)
    records, ps = _load_input(args.input)
    if args.groups and (args.method != "fisher" or args.enumerate):
        raise InputValidationError("--groups takes no --method or --enumerate")
    spec = _build_spec(args, records)
    n = len(ps)
    if args.groups:
        kwargs = {"groups": pio.partition_from_records(records)}
    elif args.method == "stouffer":
        kwargs = {"g": weighted_subset_combiner(spec.weights)}
    elif args.enumerate:
        kwargs = {"g": fixed_subset_combiner(spec)}
    else:
        kwargs = {"spec": spec}

    if args.r is not None:
        method, evaluate = select_construction(ps, args.alpha, **kwargs)
        p = evaluate(args.r)
        if args.json:
            print(pio.json_dumps({
                "method": method,
                "n": n,
                "r": args.r,
                "p": p.linear,
                "log_p": p.log_value,
                "alpha": args.alpha,
                "rejected": p.log_value <= math.log(args.alpha),
            }))
        else:
            print(f"p_{{{args.r}/{n}}} [{method}]: {pio.format_prob(p)}")
        return 0
    curve = pc_curve(ps, args.alpha, **kwargs)
    if args.json:
        print(pio.json_dumps(pio.curve_to_json_dict(curve)))
        return 0
    if args.csv:
        _write_text(args.csv, pio.curve_to_csv(curve))
        print(f"wrote {args.csv}")
        return 0
    print(f"method: {curve.method}   alpha: {curve.alpha}")
    for e in curve.entries:
        mark = "*" if e.r in curve.confidence_set else " "
        print(f"  r={e.r:>3} {mark} p = {pio.format_prob(e.p)}")
    for w in pio.curve_warnings(curve):
        print(f"  warning: {w}")
    rhat, prop = curve.r_hat, curve.r_hat / n
    print(
        f"confidence set {{r : p <= alpha}} = {sorted(curve.confidence_set)}; "
        f"at confidence {1 - curve.alpha:g}, at least {rhat} of {n} studies are "
        f"non-null (proportion {prop:.3f})"
    )
    return 0


def cmd_exact2x2(args) -> int:
    from . import io as pio
    from .combiners import fisher_exact_2x2
    records = pio.read_study_csv(args.input)
    rows = []
    for rec in records:
        res = fisher_exact_2x2(rec.count_table(), convention=args.convention)
        rows.append((rec.study_id, res.odds_ratio, res.p_value))
    if args.json:
        print(pio.json_dumps({
            "convention": args.convention,
            "rows": [
                {"study_id": sid, "odds_ratio": orr, "p": p.linear, "log_p": p.log_value}
                for sid, orr, p in rows
            ],
        }))
    else:
        for sid, orr, p in rows:
            print(f"{sid}: OR = {orr:.4g}, two-sided p = {pio.format_prob(p)}")
    return 0


# Keys a ``simulate`` config may set: the grid, the r0 list, reps and
# seed, and the SimConfig fields passed through with SimConfig's defaults.
_SIM_FIELDS = ("n", "r", "alpha", "methods", "sample_sizes")
_SIM_KEYS = ("mu0_values", "sigma0_values", "r0", "reps", "seed") + _SIM_FIELDS


def cmd_simulate(args) -> int:
    from dataclasses import replace
    from . import io as pio
    from .simulation import SimConfig, run_power_map
    _check_out_path(args.out)
    try:
        with open(args.config, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputValidationError(f"cannot read {args.config}: {exc}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise InputValidationError(f"{args.config} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise InputValidationError(f"{args.config} must hold a JSON object")
    unknown = sorted(set(raw) - set(_SIM_KEYS))
    if unknown:
        raise InputValidationError(f"unknown config keys {unknown}; known: {_SIM_KEYS}")
    if "seed" in raw and not getattr(args, "seed_defaulted", False):
        raise InputValidationError(f"{args.config} sets seed; pass no --seed")
    mu0_values = raw.get("mu0_values", [round(0.02 + 0.042 * i, 4) for i in range(10)])
    sigma0_values = raw.get(
        "sigma0_values", [round(0.01 + 0.043 * i, 4) for i in range(10)]
    )
    r0_list = raw.get("r0", [2, 4, 6])
    if not isinstance(r0_list, list):
        r0_list = [r0_list]
    fields = {
        k: tuple(v) if isinstance(v, list) else v
        for k, v in raw.items()
        if k in _SIM_FIELDS
    }
    configs = [
        SimConfig(r0=r0, mu0=1.0, sigma0=1.0, reps=raw.get("reps", 20000),
                  seed=raw.get("seed", args.seed), **fields)
        for r0 in r0_list
    ]
    if not configs:
        raise InputValidationError("r0 must list at least one non-null count")
    grids = [run_power_map(cfg, mu0_values, sigma0_values) for cfg in configs]
    merged = replace(grids[0], cells=tuple(c for grid in grids for c in grid.cells))
    _write_text(args.out, pio.power_grid_to_csv(merged))
    print(f"wrote {args.out} ({len(merged.cells)} rows)")
    return 0


def cmd_counterexample(args) -> int:
    from . import io as pio
    from .counterexample import TEST_NAMES, power_grids_2d
    _check_out_path(args.out)
    if args.grid < 1 or not math.isfinite(args.mu_max):
        raise InputValidationError("--grid must be at least 1 and --mu-max finite")
    mu_grid = list(np.linspace(0.0, args.mu_max, args.grid))
    grids = power_grids_2d(TEST_NAMES, mu_grid, args.alpha, args.reps, args.seed)
    _write_text(args.out, pio.counterexample_grid_to_csv(grids))
    print(f"wrote {args.out} ({args.grid}x{args.grid} grid, {len(TEST_NAMES)} tests)")
    return 0


def cmd_dataset(args) -> int:
    from . import io as pio
    if args.out is not None:
        _check_out_path(args.out)
        _write_text(args.out, pio.export_bundled_csv(args.view))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(pio.export_bundled_csv(args.view))
    return 0


def _parse_float_list(raw: str, flag: str) -> list[float]:
    try:
        return [float(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError:
        raise InputValidationError(f"{flag} expects a comma-separated float list")


def cmd_oracle_validity(args) -> int:
    from . import io as pio
    from .combiners import combine, rows_for
    from .oracle import BatchedRule, NullConfig, mc_validity
    from .partial_conjunction import bhpc, bhpc_rows
    z_means = None if args.z_means is None else _parse_float_list(args.z_means, "--z-means")
    k = len(z_means) if args.k is None and z_means is not None else args.k
    if k is None:
        raise InputValidationError("pass --k or --z-means")
    config = NullConfig(n_studies=k, z_means=None if z_means is None else tuple(z_means))
    spec = _build_spec(args, range(k))
    if args.pc_r is None:
        rule = BatchedRule(lambda ps: combine(spec, ps), rows_for(spec))
        label = args.method
    else:
        if args.method == "stouffer":
            raise InputValidationError("--pc-r requires a symmetric --method")
        rule = BatchedRule(lambda ps: bhpc(ps, args.pc_r, spec),
                           lambda log_p: bhpc_rows(log_p, args.pc_r, spec))
        label = f"bhpc:{args.method}@r={args.pc_r}"
    alphas = _parse_float_list(args.alphas, "--alphas")
    estimates = mc_validity(rule, config, alphas, args.reps, args.seed)
    if args.json:
        print(pio.json_dumps({
            "rule": label,
            "n_studies": k,
            "z_means": z_means,
            "reps": args.reps,
            "seed": args.seed,
            "estimates": [
                {"alpha": e.alpha, "rate": e.rate, "se": e.se,
                 "bound": e.bound, "valid": e.valid}
                for e in estimates
            ],
        }))
    else:
        for e in estimates:
            status = "ok" if e.valid else "INVALID"
            print(
                f"{label}: alpha={e.alpha:g} rate={e.rate:.5f} (se {e.se:.5f}, "
                f"bound {e.bound:.5f}) {status}"
            )
    return 0


def cmd_oracle_tpm(args) -> int:
    from . import io as pio
    from .oracle import tpm_mc_cdf
    rate, se = tpm_mc_cdf(args.l, args.gamma, args.w, args.reps, args.seed)
    if args.json:
        print(pio.json_dumps({
            "L": args.l, "gamma": args.gamma, "w": args.w,
            "reps": args.reps, "seed": args.seed,
            "estimate": rate, "se": se,
        }))
    else:
        print(f"P(W <= {args.w:g}) = {rate:.6f} +/- {se:.6f} (L={args.l}, gamma={args.gamma:g})")
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals raise InputValidationError, so that they
    leave ``main`` as one JSON line like every other refusal."""

    def error(self, message):
        raise InputValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pcmeta",
        description="Partial-conjunction p-values and replicability analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: PCMETA_SEED env var, else 0)")

    p = sub.add_parser("combine", help="combine per-study p-values into one")
    p.add_argument("input", help="study CSV (p rows or count rows)")
    p.add_argument("--method", default="fisher", choices=CLI_METHODS)
    p.add_argument("--gamma", type=float, default=None, help="TPM truncation point")
    p.add_argument("--weights-from", choices=["n_sample"], default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func="cmd_combine")

    p = sub.add_parser("pc", help="partial-conjunction p-values and confidence set")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--r", type=int, default=None, help="single r to test")
    group.add_argument("--all-r", action="store_true", help="full curve (default)")
    p.add_argument("--method", default="fisher", choices=CLI_METHODS)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--groups", action="store_true",
                   help="grouped rule over the group_factor blocks")
    p.add_argument("--enumerate", action="store_true",
                   help="force exact subset enumeration")
    p.add_argument("--weights-from", choices=["n_sample"], default=None)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", default=None, help="write the curve to this CSV file")
    p.set_defaults(func="cmd_pc")

    p = sub.add_parser("exact2x2", help="per-row 2x2 exact tests")
    p.add_argument("input", help="study CSV with count rows")
    p.add_argument("--convention", default="min_likelihood",
                   choices=["min_likelihood", "doubling"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func="cmd_exact2x2")

    p = sub.add_parser("simulate", help="power maps for the 8-study design")
    p.add_argument("config", help="JSON config file")
    p.add_argument("--out", required=True, help="output CSV path")
    add_seed(p)
    p.set_defaults(func="cmd_simulate")

    p = sub.add_parser("counterexample",
                       help="power grids for the non-monotone 2-study tests")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--grid", type=int, default=21, help="points per axis")
    p.add_argument("--mu-max", type=float, default=5.0)
    p.add_argument("--reps", type=int, default=20000)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func="cmd_counterexample")

    p = sub.add_parser("dataset", help="export the bundled subgroup dataset")
    p.add_argument("--view", default="pvalues", choices=["pvalues", "counts", "full"])
    p.add_argument("--out", default=None)
    p.set_defaults(func="cmd_dataset")

    p = sub.add_parser("oracle", help="Monte Carlo verification backends")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    q = osub.add_parser("validity", help="null rejection rate of a rule")
    q.add_argument("--method", default="fisher", choices=CLI_METHODS)
    q.add_argument("--gamma", type=float, default=None)
    q.add_argument("--k", type=int, default=None, help="number of studies")
    q.add_argument("--pc-r", type=int, default=None,
                   help="wrap the combiner in a drop-smallest PC rule at this r")
    q.add_argument("--z-means", default=None,
                   help="comma list of per-study z means (0 = null study)")
    q.add_argument("--alphas", default="0.01,0.05")
    q.add_argument("--reps", type=int, default=100000)
    q.add_argument("--json", action="store_true")
    add_seed(q)
    q.set_defaults(func="cmd_oracle_validity")

    q = osub.add_parser("tpm-cdf", help="empirical truncated-product null CDF")
    q.add_argument("--l", type=int, required=True, help="number of uniforms")
    q.add_argument("--gamma", type=float, required=True)
    q.add_argument("--w", type=float, required=True)
    q.add_argument("--reps", type=int, default=1000000)
    q.add_argument("--json", action="store_true")
    add_seed(q)
    q.set_defaults(func="cmd_oracle_tpm")

    return parser


_parser = cache(build_parser)  # built by the first main() call


def main(argv=None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
            if hasattr(args, "seed") and args.seed is None:
                args.seed, args.seed_defaulted = _default_seed(), True
            if getattr(args, "seed", 0) < 0:
                raise InputValidationError(f"seed must be non-negative, got {args.seed}")
            return globals()[args.func](args)
        except SystemExit as exc:  # --help, once argparse printed the text
            return exc.code
        finally:  # also after --help, with its text still buffered
            sys.stdout.flush()
    except PcmetaError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3 if isinstance(exc, NonConvergenceError) else 2
    except BrokenPipeError:  # reader gone: the flush at exit goes to devnull
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
