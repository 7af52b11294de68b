"""Check that two per-sample report CSVs are identical apart from ``wall_ms``.

    python3 tools/compare_reports.py A.csv B.csv

Exits 0 when both files have the same header and the same rows with every
column but ``wall_ms`` equal as text; exits 1 and prints the first differing
row otherwise. Standard library only, so it runs against any checkout.
"""

from __future__ import annotations

import argparse
import csv
import sys
from itertools import zip_longest

IGNORED = ("wall_ms",)  # the wall-clock column of latentadapt.report.CSV_COLUMNS


def _read(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


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
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    difference = first_difference(args.a, args.b)
    if difference is None:
        print(f"identical apart from {', '.join(IGNORED)}: {args.a} {args.b}")
        return 0
    print(difference)
    return 1


if __name__ == "__main__":
    sys.exit(main())
