"""Per-sample run records, CSV emission, and summary aggregation.

The per-sample CSV is deterministic except for the trailing wall-clock
column, which is excluded from any byte comparison. Aggregates are always
recomputed from the rows rather than carried separately.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .fileio import atomic_open

CSV_COLUMNS = [
    "index",
    "true_label",
    "noadapt_class",
    "noadapt_entropy",
    "adapted_class",
    "adapted_entropy",
    "evaluations",
    "status",
    "wall_ms",
]

@dataclass(frozen=True)
class SampleRecord:
    index: int
    true_label: int           # -1 when the target file carries no labels
    noadapt_class: int
    noadapt_entropy: float
    adapted_class: int
    adapted_entropy: float
    evaluations: int
    status: str               # "ok" or an error tag
    wall_ms: float


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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path: str | Path, records: list[SampleRecord]) -> None:
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.index,
                    r.true_label,
                    r.noadapt_class,
                    _fmt(r.noadapt_entropy),
                    r.adapted_class,
                    _fmt(r.adapted_entropy),
                    r.evaluations,
                    r.status,
                    f"{r.wall_ms:.3f}",
                ]
            )


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
            records.append(
                SampleRecord(
                    index=int(row["index"]),
                    true_label=int(row["true_label"]),
                    noadapt_class=int(row["noadapt_class"]),
                    noadapt_entropy=float(row["noadapt_entropy"]),
                    adapted_class=int(row["adapted_class"]),
                    adapted_entropy=float(row["adapted_entropy"]),
                    evaluations=int(row["evaluations"]),
                    status=row["status"],
                    wall_ms=float(row["wall_ms"]),
                )
            )
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
