"""In-memory span tracer for the traced run.

It wraps every public function of each ``pcmeta`` module, in the module
that defines it and in every module that imported it by name, plus the
``ProbValue.from_log`` / ``from_linear`` constructors.  So a span is
recorded at each boundary between layers, such as
``partial_conjunction -> combiners.combine`` or ``cli ->
partial_conjunction.pc_curve``.  Spans are aggregated by (name,
parent) into count, total time, self time and the longest span; a
span's self time is its duration minus that of its child spans.

Nothing in ``src/`` changes: the wrappers are installed by the
benchmark and removed again when it ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter
from typing import Any, Callable

import pcmeta
from pcmeta.numerics import ProbValue

# The layers: one per module of src/pcmeta.
LAYERS = ("cli", "io", "partial_conjunction", "combiners", "numerics", "oracle",
          "simulation", "counterexample")

# Work counts taken at the boundary: span name -> (counter, f(arguments, result)).
COUNTERS: dict[str, tuple[str, Callable[[dict, Any], int]]] = {
    "partial_conjunction.gbhpc_enumerate": (
        "subsets", lambda a, _: math.comb(len(a["ps"]), a["r"] - 1)),
    "partial_conjunction.pc_curve": ("entries", lambda _, res: len(res.entries)),
    "oracle.mc_validity": ("rows", lambda a, _: a["reps"]),
    "simulation.run_power_map": ("cells", lambda _, res: len(res.cells)),
    "counterexample.power_grid_2d": ("points", lambda _, res: len(res.points)),
}


class Tracer:
    def __init__(self) -> None:
        # (name, parent name) -> [count, total s, self s, longest s]
        self.stats: dict[tuple[str, str], list] = {}
        self.counters: Counter[str] = Counter()
        self.active = False
        self._stack: list[list] = [["", 0.0]]  # [name, time in child spans]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats, stack, clock = self.stats, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = stats.get((name, parent[0]))
                if rec is None:
                    rec = stats[(name, parent[0])] = [0, 0.0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                rec[3] = max(rec[3], elapsed)
            if counter:
                bound = signature.bind(*args, **kwargs).arguments
                self.counters[f"{name}.{counter[0]}"] += counter[1](bound, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        self.active = True
        return self

    def __exit__(self, *exc) -> None:
        self.active = False

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(f"pcmeta.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in [pcmeta, *modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for attr in ("from_log", "from_linear"):
            fn = vars(ProbValue)[attr].__func__
            self._patch(ProbValue, attr,
                        staticmethod(self._wrap(f"numerics.ProbValue.{attr}", fn)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def by_name(self) -> dict[str, list]:
        """[count, total s, self s, longest s] per span name, over all parents."""
        out: dict[str, list] = {}
        for (name, _), (count, total, self_s, longest) in self.stats.items():
            rec = out.setdefault(name, [0, 0.0, 0.0, 0.0])
            rec[0] += count
            rec[1] += total
            rec[2] += self_s
            rec[3] = max(rec[3], longest)
        return out

    def table(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "count": c, "total_s": t, "self_s": s,
             "max_s": m}
            for (name, parent), (c, t, s, m) in sorted(
                self.stats.items(), key=lambda kv: -kv[1][2])
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, entries_used: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass over a workload's operations.

    A layer that did not run in the workload reports 0 for its counts
    and for its times per call.
    """
    spans = tracer.by_name()
    counters = tracer.counters

    def rec(name: str) -> list:
        return spans.get(name, [0, 0.0, 0.0, 0.0])

    def calls(name: str) -> int:
        return rec(name)[0]

    def us_per_call(name: str) -> float:
        return 1e6 * _ratio(rec(name)[1], rec(name)[0])

    def self_share(name: str) -> float:
        return _ratio(rec(name)[2], rec(name)[1])

    def layer_self_ms(layer: str) -> float:
        return 1e3 * sum(r[2] for name, r in spans.items() if name.startswith(layer + "."))

    pc = "partial_conjunction."
    enum, structured = pc + "gbhpc_enumerate", pc + "structured_gbhpc"
    subsets = counters[enum + ".subsets"]
    rows = counters["oracle.mc_validity.rows"]
    cells = counters["simulation.run_power_map.cells"]
    points = counters["counterexample.power_grid_2d.points"]
    return {
        enum + ".subsets": subsets,
        enum + ".us_per_subset": 1e6 * _ratio(rec(enum)[1], subsets),
        enum + ".self_share": self_share(enum),
        structured + ".calls": calls(structured),
        structured + ".us_per_call": us_per_call(structured),
        structured + ".max_ms": 1e3 * rec(structured)[3],
        pc + "bhpc.us_per_call": us_per_call(pc + "bhpc"),
        pc + "pc_curve.ms_per_call": 1e-3 * us_per_call(pc + "pc_curve"),
        "cli.pc.entries_used_per_computed": _ratio(
            entries_used, counters[pc + "pc_curve.entries"]),
        "oracle.mc_validity.rows": rows,
        "oracle.mc_validity.rows_per_s": _ratio(rows, rec("oracle.mc_validity")[1]),
        "oracle.mc_validity.self_share": self_share("oracle.mc_validity"),
        "numerics.ProbValue.constructions": (
            calls("numerics.ProbValue.from_log") + calls("numerics.ProbValue.from_linear")),
        "combiners.combine.calls": calls("combiners.combine"),
        "combiners.combine.us_per_call": us_per_call("combiners.combine"),
        "combiners.log_fisher.calls": calls("combiners.log_fisher"),
        "combiners.log_fisher.us_per_call": us_per_call("combiners.log_fisher"),
        "combiners.combine_stouffer_weighted.us_per_call": us_per_call(
            "combiners.combine_stouffer_weighted"),
        "numerics.std_normal_quantile.us_per_call": us_per_call(
            "numerics.std_normal_quantile"),
        "numerics.log_sum_exp.us_per_call": us_per_call("numerics.log_sum_exp"),
        "combiners.fisher_exact_2x2.us_per_call": us_per_call("combiners.fisher_exact_2x2"),
        "io.read_study_csv.us_per_call": us_per_call("io.read_study_csv"),
        "io.self_ms": layer_self_ms("io"),
        "cli.self_ms": layer_self_ms("cli"),
        "simulation.run_power_map.cells": cells,
        "simulation.run_power_map.cells_per_s": _ratio(
            cells, rec("simulation.run_power_map")[1]),
        "counterexample.power_grid_2d.points": points,
        "counterexample.power_grid_2d.points_per_s": _ratio(
            points, rec("counterexample.power_grid_2d")[1]),
    }
