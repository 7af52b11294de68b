import dataclasses
import importlib.util
from pathlib import Path

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
