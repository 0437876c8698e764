"""Study-record CSV ingestion, result serialization, and the bundled
anticoagulant subgroup dataset.

The CSV column contract: ``study_id`` is required; a row carries either
a probability in ``p`` or a complete 2x2 count set
(``events_a,total_a,events_b,total_b``), never both; ``group_factor``
labels independence blocks and must be present on all rows or none;
``n_sample`` and ``sigma`` feed weighted combining (sigma defaults
to 1).

The bundled dataset keeps both the counts and the published per-row
p-values in one versioned file; ``load_bundled_records`` exposes it as
either a p-value view or a counts view so it can flow through the same
ingestion paths as user data.

Every CSV written here has one layout, ``_csv_text``: a header row, then
the rows, with "\\n" line endings.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from collections import Counter
from dataclasses import dataclass
from numbers import Integral, Real
from typing import TYPE_CHECKING, Iterable, Sequence

from .combiners import CountTable2x2, fisher_exact_2x2
from .errors import InputValidationError, _check_kind
from .numerics import ProbValue
from .partial_conjunction import GroupPartition, PcCurve

if TYPE_CHECKING:
    from .counterexample import CounterexamplePowerGrid
    from .simulation import PowerGrid

__all__ = [
    "StudyRecord",
    "read_study_csv",
    "parse_study_rows",
    "records_to_pvalues",
    "partition_from_records",
    "stouffer_weights_from_records",
    "load_bundled_records",
    "bundled_dataset_text",
    "BUNDLED_DATASET",
    "curve_to_json_dict",
    "curve_to_csv",
    "power_grid_to_csv",
    "counterexample_grid_to_csv",
    "read_power_grid_csv",
]

BUNDLED_DATASET = "noac_subgroups"

_COUNT_FIELDS = ("events_a", "total_a", "events_b", "total_b")


@dataclass(frozen=True)
class StudyRecord:
    """One study/subgroup row: either a p-value or a 2x2 count table."""

    study_id: str
    group_factor: str | None = None
    p: float | None = None
    events_a: int | None = None
    total_a: int | None = None
    events_b: int | None = None
    total_b: int | None = None
    n_sample: int | None = None
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not self.study_id:
            raise InputValidationError("study_id must be nonempty")
        counts = [getattr(self, f) for f in _COUNT_FIELDS]
        has_counts = any(c is not None for c in counts)
        if has_counts and any(c is None for c in counts):
            raise InputValidationError(
                f"{self.study_id}: counts must be complete ({', '.join(_COUNT_FIELDS)})"
            )
        if (self.p is None) == (not has_counts):
            raise InputValidationError(
                f"{self.study_id}: exactly one of a p-value or a count table is required"
            )
        if self.p is not None:
            _check_kind(f"{self.study_id}: p", self.p, Real, low=0, high=1)
        if self.n_sample is not None:  # its square root weighs the z-rule, so exact as a double
            _check_kind(f"{self.study_id}: n_sample", self.n_sample, Integral, low=1, high=2**53)
        if not 0.0 < self.sigma < math.inf:
            raise InputValidationError(f"{self.study_id}: sigma must be finite and > 0")

    @property
    def has_counts(self) -> bool:
        return self.events_a is not None

    def count_table(self) -> CountTable2x2:
        if not self.has_counts:
            raise InputValidationError(f"{self.study_id}: no counts on this row")
        return CountTable2x2(self.events_a, self.total_a, self.events_b, self.total_b)


def _parse_optional(raw: str | None, kind, field: str, study: str):
    if raw is None or raw.strip() == "":
        return None
    try:
        if kind is int:
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise InputValidationError(f"{study}: bad {field} value {raw!r}") from exc


def _parse_p(raw: str | None, study: str) -> float | None:
    """The p column.  A nonzero literal that underflows to 0 is refused:
    a p of 0 claims infinite evidence."""
    p = _parse_optional(raw, float, "p", study)
    if p == 0.0 and any(c in "123456789" for c in raw.lower().partition("e")[0]):
        raise InputValidationError(f"{study}: p value {raw.strip()!r} underflows to 0")
    return p


def parse_study_rows(rows: Iterable[dict[str, str]]) -> list[StudyRecord]:
    records = []
    for i, row in enumerate(rows):
        study = (row.get("study_id") or "").strip() or f"row{i + 1}"
        if not (row.get("study_id") or "").strip():
            raise InputValidationError(f"{study}: missing study_id")
        group = (row.get("group_factor") or "").strip() or None
        sigma = _parse_optional(row.get("sigma"), float, "sigma", study)
        p = _parse_p(row.get("p"), study)
        counts = {f: _parse_optional(row.get(f), int, f, study)
                  for f in (*_COUNT_FIELDS, "n_sample")}
        records.append(StudyRecord(study_id=study, group_factor=group, p=p,
                                   sigma=1.0 if sigma is None else sigma, **counts))
    if not records:
        raise InputValidationError("input contains no data rows")
    dups = sorted(s for s, c in Counter(r.study_id for r in records).items() if c > 1)
    if dups:
        raise InputValidationError(f"duplicate study_id: {', '.join(dups)}")
    labelled = [r.group_factor is not None for r in records]
    if any(labelled) and not all(labelled):
        raise InputValidationError("group_factor must be present on all rows or none")
    return records


def read_study_csv(path: str) -> list[StudyRecord]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "study_id" not in reader.fieldnames:
                raise InputValidationError(f"{path}: missing study_id column")
            return parse_study_rows(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputValidationError(f"cannot read {path}: {exc}") from exc


def records_to_pvalues(records: Sequence[StudyRecord]) -> list[ProbValue]:
    """Per-record p-values; counts rows go through the 2x2 exact test.

    Mixing p rows and count rows in one input is rejected.
    """
    kinds = {r.has_counts for r in records}
    if len(kinds) > 1:
        raise InputValidationError("input mixes p-value rows and count rows")
    if kinds == {True}:
        return [fisher_exact_2x2(r.count_table()).p_value for r in records]
    return [ProbValue.from_linear(r.p) for r in records]


def partition_from_records(records: Sequence[StudyRecord]) -> GroupPartition:
    if any(r.group_factor is None for r in records):
        raise InputValidationError("grouped analysis requires group_factor on every row")
    return GroupPartition.from_labels([r.group_factor for r in records])


def stouffer_weights_from_records(records: Sequence[StudyRecord]) -> tuple[float, ...]:
    """Weights sqrt(n_sample)/sigma, requiring n_sample on every row."""
    missing = [r.study_id for r in records if r.n_sample is None]
    if missing:
        raise InputValidationError(f"n_sample missing on rows: {', '.join(missing)}")
    return tuple((r.n_sample**0.5) / r.sigma for r in records)


def bundled_dataset_text() -> str:
    from importlib import resources
    return (
        resources.files("pcmeta.data").joinpath(f"{BUNDLED_DATASET}.csv").read_text()
    )


def load_bundled_records(view: str = "pvalues") -> list[StudyRecord]:
    """The bundled 18-subgroup dataset.

    The versioned file carries both the 2x2 event counts and the
    published per-row p-values; ``view`` selects which flavor of
    records to materialize ("pvalues" or "counts").
    """
    if view not in ("pvalues", "counts"):
        raise InputValidationError(f"unknown view {view!r}")
    reader = csv.DictReader(_io.StringIO(bundled_dataset_text()))
    rows = []
    for row in reader:
        row = dict(row)
        if view == "pvalues":
            for f in _COUNT_FIELDS:
                row[f] = ""
        else:
            row["p"] = ""
        rows.append(row)
    return parse_study_rows(rows)


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of the header row and then ``rows``."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def export_bundled_csv(view: str) -> str:
    """The bundled dataset rendered as CSV text for the given view."""
    if view == "full":
        return bundled_dataset_text()
    records = load_bundled_records(view)
    if view == "pvalues":
        fields = ["study_id", "group_factor", "n_sample", "p"]
    else:
        fields = ["study_id", "group_factor", *_COUNT_FIELDS, "n_sample"]
    return _csv_text(fields, ([getattr(r, f) for f in fields] for r in records))


def curve_warnings(curve: PcCurve) -> list[str]:
    return [
        f"p-value curve dips: p_{{{r}/{curve.n}}} < p_{{{r - 1}/{curve.n}}}"
        for r in curve.dips
    ]


def curve_to_json_dict(curve: PcCurve) -> dict:
    return {
        "method": curve.method,
        "n": curve.n,
        "entries": [
            {"r": e.r, "p": e.p.linear, "log_p": e.p.log_value} for e in curve.entries
        ],
        "alpha": curve.alpha,
        "confidence_set": sorted(curve.confidence_set),
        "r_hat": curve.r_hat,
        "warnings": curve_warnings(curve),
    }


def curve_to_csv(curve: PcCurve) -> str:
    return _csv_text(
        ["r", "p", "log_p", "method", "alpha", "rejected"],
        ([e.r, repr(e.p.linear), repr(e.p.log_value), curve.method, repr(curve.alpha),
          int(e.r in curve.confidence_set)] for e in curve.entries),
    )


def power_grid_to_csv(grid: PowerGrid) -> str:
    return _csv_text(
        ["mu0", "sigma0", "method", "r0", "power", "se"],
        ([repr(c.mu0), repr(c.sigma0), c.method, c.r0, repr(c.power), repr(c.se)]
         for c in grid.cells),
    )


def read_power_grid_csv(text: str) -> list[dict]:
    rows = []
    for row in csv.DictReader(_io.StringIO(text)):
        rows.append(
            {
                "mu0": float(row["mu0"]),
                "sigma0": float(row["sigma0"]),
                "method": row["method"],
                "r0": int(row["r0"]),
                "power": float(row["power"]),
                "se": float(row["se"]),
            }
        )
    return rows


def counterexample_grid_to_csv(grids: Sequence[CounterexamplePowerGrid]) -> str:
    return _csv_text(
        ["mu1", "mu2", "test", "power", "se"],
        ([repr(pt.mu1), repr(pt.mu2), pt.test, repr(pt.power), repr(pt.se)]
         for grid in grids for pt in grid.points),
    )


def format_prob(p: ProbValue) -> str:
    return f"{p.linear:.6g} (log {p.log_value:.6g})"


def json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)
