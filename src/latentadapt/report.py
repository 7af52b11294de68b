"""Per-sample run records, CSV emission, and summary aggregation.

The per-sample CSV is deterministic except for the trailing wall-clock
column, which is excluded from any byte comparison. Aggregates are always
recomputed from the rows rather than carried separately.
"""

from __future__ import annotations

import csv
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from .fileio import atomic_open


@dataclass(frozen=True)
class SampleRecord:
    """One row of the per-sample CSV. The fields, in order, are its columns:
    each cell is written by :func:`cell` (a float field in the format of its
    ``format`` metadata) and read back with the field's type."""

    index: int
    true_label: int           # -1 when the target file carries no labels
    noadapt_class: int
    noadapt_entropy: float
    adapted_class: int
    adapted_entropy: float
    evaluations: int
    status: str               # "ok" or an error tag
    wall_ms: float = field(metadata={"format": ".3f"})


_TYPES = typing.get_type_hints(SampleRecord)
_COLUMNS = [(f.name, _TYPES[f.name], f.metadata.get("format", ".17g"))
            for f in fields(SampleRecord)]
CSV_COLUMNS = [name for name, _, _ in _COLUMNS]


@dataclass(frozen=True)
class Summary:
    samples: int
    failed: int
    labeled: bool
    accuracy_noadapt: Optional[float]   # percent
    accuracy_adapted: Optional[float]   # percent
    mean_entropy_noadapt: float
    mean_entropy_adapted: float
    mean_wall_ms: float


def summarize(records: list[SampleRecord]) -> Summary:
    ok = [r for r in records if r.status == "ok"]
    failed = len(records) - len(ok)
    labeled = bool(ok) and all(r.true_label >= 0 for r in ok)
    if not ok:
        return Summary(
            samples=len(records),
            failed=failed,
            labeled=False,
            accuracy_noadapt=None,
            accuracy_adapted=None,
            mean_entropy_noadapt=float("nan"),
            mean_entropy_adapted=float("nan"),
            mean_wall_ms=float("nan"),
        )
    acc_no = acc_ad = None
    if labeled:
        acc_no = 100.0 * sum(r.noadapt_class == r.true_label for r in ok) / len(ok)
        acc_ad = 100.0 * sum(r.adapted_class == r.true_label for r in ok) / len(ok)
    return Summary(
        samples=len(records),
        failed=failed,
        labeled=labeled,
        accuracy_noadapt=acc_no,
        accuracy_adapted=acc_ad,
        mean_entropy_noadapt=sum(r.noadapt_entropy for r in ok) / len(ok),
        mean_entropy_adapted=sum(r.adapted_entropy for r in ok) / len(ok),
        mean_wall_ms=sum(r.wall_ms for r in ok) / len(ok),
    )


def cell(value, spec: str = ".17g") -> str:
    """The CSV text of a value: empty for None, a float in ``spec``, anything
    else as ``str``."""
    if value is None:
        return ""
    return format(value, spec) if isinstance(value, float) else str(value)


def write_csv(path: str | Path, records: list[SampleRecord]) -> None:
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([cell(kind(getattr(r, name)), spec) for name, kind, spec in _COLUMNS])


def read_csv(path: str | Path) -> list[SampleRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {reader.fieldnames}")
        for row in reader:
            # DictReader files extra fields under None and fills missing ones with None
            if None in row or None in row.values():
                raise ValueError(
                    f"{path}: line {reader.line_num}: expected {len(CSV_COLUMNS)} fields"
                )
            records.append(SampleRecord(*(kind(row[name]) for name, kind, _ in _COLUMNS)))
    return records


def summary_text(summary: Summary, header: str = "") -> str:
    lines = []
    if header:
        lines.append(header)
    lines.append(f"samples: {summary.samples} (failed: {summary.failed})")
    if summary.labeled:
        lines.append(f"accuracy no-adapt: {summary.accuracy_noadapt:.2f}%")
        lines.append(f"accuracy adapted:  {summary.accuracy_adapted:.2f}%")
        gain = summary.accuracy_adapted - summary.accuracy_noadapt
        lines.append(f"accuracy gain:     {gain:+.2f} points")
    else:
        lines.append("accuracy: n/a (unlabeled target)")
    lines.append(f"mean entropy no-adapt: {summary.mean_entropy_noadapt:.6f}")
    lines.append(f"mean entropy adapted:  {summary.mean_entropy_adapted:.6f}")
    lines.append(f"mean wall-clock per sample: {summary.mean_wall_ms:.3f} ms")
    return "\n".join(lines) + "\n"
