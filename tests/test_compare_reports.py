import dataclasses
import importlib.util
from pathlib import Path

import pytest

from latentadapt import report
from latentadapt.report import SampleRecord, write_csv

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _TOOL)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def _records():
    return [
        SampleRecord(i, i % 3, i % 3, 0.5 + i, (i + 1) % 3, 0.25 + i, 97, "ok", 40.0 + i)
        for i in range(4)
    ]


def _write(tmp_path, name, records):
    path = tmp_path / name
    write_csv(path, records)
    return str(path)


def test_ignored_columns_match_the_report_module():
    # the tool stands alone, so it names the report's wall-clock column itself
    assert compare_reports.IGNORED == ("wall_ms",)
    assert report.CSV_COLUMNS[-1] == "wall_ms"


def test_reports_differing_only_in_wall_ms_are_identical(tmp_path, capsys):
    records = _records()
    slower = [dataclasses.replace(r, wall_ms=r.wall_ms * 3) for r in records]
    a = _write(tmp_path, "a.csv", records)
    b = _write(tmp_path, "b.csv", slower)
    assert compare_reports.main([a, b]) == 0
    assert "identical" in capsys.readouterr().out


def test_first_differing_row_is_reported(tmp_path, capsys):
    records = _records()
    changed = list(records)
    changed[2] = dataclasses.replace(records[2], adapted_entropy=records[2].adapted_entropy * 2)
    changed[3] = dataclasses.replace(records[3], status="error")
    a = _write(tmp_path, "a.csv", records)
    b = _write(tmp_path, "b.csv", changed)
    assert compare_reports.main([a, b]) == 1
    out = capsys.readouterr().out
    assert out.startswith("line 4 differs")
    assert "error" not in out


def test_row_count_and_header_differences(tmp_path):
    records = _records()
    a = _write(tmp_path, "a.csv", records)
    shorter = _write(tmp_path, "b.csv", records[:3])
    assert "row counts differ" in compare_reports.first_difference(a, shorter)
    other = tmp_path / "c.csv"
    other.write_text("index,status\n0,ok\n")
    assert "headers differ" in compare_reports.first_difference(a, str(other))


def _write_summary(csv_path, records, extra=""):
    """The summary the CLI writes beside a report, with ``extra`` lines after it."""
    path = Path(csv_path).with_suffix(".txt")
    path.write_text(report.summary_text(report.summarize(records), header="mode=fixed") + extra)
    return path


def test_ignored_summary_line_matches_the_report_module():
    text = report.summary_text(report.summarize(_records()))
    wall = [line for line in text.splitlines() if line.startswith(compare_reports.IGNORED_LINE)]
    assert len(wall) == 1


def test_summaries_differing_only_in_wall_clock_are_identical(tmp_path, capsys):
    records = _records()
    slower = [dataclasses.replace(r, wall_ms=r.wall_ms * 3) for r in records]
    a = _write(tmp_path, "a.csv", records)
    b = _write(tmp_path, "b.csv", slower)
    counts = "saturation events: 7317 (sigma clamps: 0, eigenvalue clamps: 0)\n"
    _write_summary(a, records, counts)
    _write_summary(b, slower, counts)
    assert compare_reports.main([a, b]) == 0
    assert "summaries'" in capsys.readouterr().out


def test_a_summary_line_that_differs_is_reported(tmp_path, capsys):
    # equal CSVs, but a saturation count that moved: only the summary shows it
    records = _records()
    a = _write(tmp_path, "a.csv", records)
    b = _write(tmp_path, "b.csv", records)
    _write_summary(a, records, "saturation events: 7317 (sigma clamps: 0, eigenvalue clamps: 0)\n")
    b_txt = _write_summary(b, records,
                           "saturation events: 7318 (sigma clamps: 0, eigenvalue clamps: 0)\n")
    assert compare_reports.main([a, b]) == 1
    out = capsys.readouterr().out
    assert out.startswith("summaries differ")
    assert "line 9: saturation events: 7318" in out
    b_txt.write_text(b_txt.read_text().replace("saturation events: 7318", "saturation events: 7317")
                     + "one more line\n")
    assert "(no more lines)" in compare_reports.first_difference(a, b)


def test_summaries_are_compared_only_when_both_exist(tmp_path, capsys):
    records = _records()
    a = _write(tmp_path, "a.csv", records)
    b = _write(tmp_path, "b.csv", records)
    _write_summary(a, records, "saturation events: 1 (sigma clamps: 0, eigenvalue clamps: 0)\n")
    assert compare_reports.main([a, b]) == 0
    assert "summaries'" not in capsys.readouterr().out


@pytest.mark.parametrize("which", ["missing", "directory", "not-utf8", "summary-not-utf8"])
def test_an_unreadable_input_exits_2_naming_the_file(tmp_path, capsys, which):
    # each used to end in a traceback with exit 1, the code of "reports differ"
    records = _records()
    a = _write(tmp_path, "a.csv", records)
    b = tmp_path / "b.csv"
    bad = b
    if which == "directory":
        b.mkdir()
    elif which == "not-utf8":
        b.write_bytes(b"index\n\xff\xfe\n")
    elif which == "summary-not-utf8":
        write_csv(b, records)
        _write_summary(a, records)
        bad = b.with_suffix(".txt")
        bad.write_bytes(b"\xff\xfe\n")
    assert compare_reports.main([a, str(b)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{bad}: cannot read: ")
    assert captured.err.count("\n") == 1
