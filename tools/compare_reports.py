"""Check that two per-sample reports are identical apart from wall-clock time.

    python3 tools/compare_reports.py A.csv B.csv

Exits 0 when both CSVs have the same header and the same rows with every
column but ``wall_ms`` equal as text and, where both have a ``.txt`` summary
beside them, the summaries have the same lines apart from the mean
wall-clock one; exits 1 and prints the first difference otherwise; exits 2
with one line naming the file when an input cannot be read as text or CSV.
The saturation and clamp counts of fixed mode are only in the summary.
Standard library only, so it runs against any checkout.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from itertools import zip_longest
from pathlib import Path

IGNORED = ("wall_ms",)  # the wall-clock column of latentadapt.report.CSV_COLUMNS
IGNORED_LINE = "mean wall-clock per sample:"  # the wall-clock line of the summary


class Unreadable(Exception):
    """An input that cannot be read; the message names the file."""


def _text(path: str | Path) -> str:
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise Unreadable(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise Unreadable(f"{path}: cannot read: {exc.reason} at byte {exc.start}") from exc


def _read(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        rows = list(csv.reader(io.StringIO(_text(path), newline="")))
    except csv.Error as exc:
        raise Unreadable(f"{path}: cannot read: {exc}") from exc
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _summary(path: str) -> Path:
    return Path(path).with_suffix(".txt")


def _summary_lines(path: Path) -> list[tuple[int, str]]:
    lines = _text(path).splitlines()
    return [(number, line) for number, line in enumerate(lines, start=1)
            if not line.startswith(IGNORED_LINE)]


def summary_difference(a_path: str, b_path: str) -> str | None:
    """Describe the first difference between the summaries beside two
    reports, or None if they match or either has none."""
    a_txt, b_txt = _summary(a_path), _summary(b_path)
    if not (a_txt.is_file() and b_txt.is_file()):
        return None
    for a_line, b_line in zip_longest(_summary_lines(a_txt), _summary_lines(b_txt)):
        if a_line is None or b_line is None or a_line[1] != b_line[1]:
            return (f"summaries differ:\n  {a_txt}: {_describe(a_line)}\n"
                    f"  {b_txt}: {_describe(b_line)}")
    return None


def _describe(line: tuple[int, str] | None) -> str:
    return "(no more lines)" if line is None else f"line {line[0]}: {line[1]}"


def first_difference(a_path: str, b_path: str) -> str | None:
    """Describe the first difference between two reports, or None if none."""
    a_header, a_rows = _read(a_path)
    b_header, b_rows = _read(b_path)
    if a_header != b_header:
        return f"headers differ:\n  {a_path}: {a_header}\n  {b_path}: {b_header}"
    keep = [i for i, name in enumerate(a_header) if name not in IGNORED]
    for line, (a_row, b_row) in enumerate(zip_longest(a_rows, b_rows), start=2):
        if a_row is None or b_row is None:
            return (f"row counts differ: {len(a_rows)} in {a_path}, "
                    f"{len(b_rows)} in {b_path}")
        if len(a_row) != len(b_row) or any(a_row[i] != b_row[i] for i in keep):
            return (f"line {line} differs:\n  {a_path}: {','.join(a_row)}\n"
                    f"  {b_path}: {','.join(b_row)}")
    return summary_difference(a_path, b_path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    try:
        difference = first_difference(args.a, args.b)
    except Unreadable as exc:
        print(exc, file=sys.stderr)
        return 2
    if difference is None:
        summaries = _summary(args.a).is_file() and _summary(args.b).is_file()
        also = f" and the summaries' {IGNORED_LINE[:-1]!r} line" if summaries else ""
        print(f"identical apart from {', '.join(IGNORED)}{also}: {args.a} {args.b}")
        return 0
    print(difference)
    return 1


if __name__ == "__main__":
    sys.exit(main())
