import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentadapt import report


def _record(i, true, no_cls, no_ent, ad_cls, ad_ent, status="ok"):
    return report.SampleRecord(
        index=i,
        true_label=true,
        noadapt_class=no_cls,
        noadapt_entropy=no_ent,
        adapted_class=ad_cls,
        adapted_entropy=ad_ent,
        evaluations=97,
        status=status,
        wall_ms=1.25,
    )


def test_summary_aggregates_match_rows():
    records = [
        _record(0, 1, 1, 0.5, 1, 0.2),
        _record(1, 0, 2, 0.9, 0, 0.1),
        _record(2, 2, 2, 0.4, 2, 0.4),
        _record(3, 1, 0, 1.1, 0, 0.8),
    ]
    s = report.summarize(records)
    assert s.samples == 4
    assert s.accuracy_noadapt == 50.0
    assert s.accuracy_adapted == 75.0
    assert abs(s.mean_entropy_noadapt - (0.5 + 0.9 + 0.4 + 1.1) / 4) < 1e-12
    assert abs(s.mean_entropy_adapted - (0.2 + 0.1 + 0.4 + 0.8) / 4) < 1e-12


def test_summary_unlabeled_has_no_accuracy():
    records = [_record(0, -1, 1, 0.5, 1, 0.2)]
    s = report.summarize(records)
    assert not s.labeled
    assert s.accuracy_noadapt is None


def test_summary_skips_failed_rows():
    records = [
        _record(0, 1, 1, 0.5, 1, 0.2),
        _record(1, 1, -1, math.nan, -1, math.nan, status="error:ContractViolation"),
    ]
    s = report.summarize(records)
    assert s.failed == 1
    assert s.accuracy_noadapt == 100.0


def test_csv_roundtrip(tmp_path):
    records = [_record(i, i % 3, i % 3, 0.6, (i + 1) % 3, 0.3) for i in range(5)]
    path = tmp_path / "run.csv"
    report.write_csv(path, records)
    back = report.read_csv(path)
    assert back == [
        report.SampleRecord(
            index=r.index,
            true_label=r.true_label,
            noadapt_class=r.noadapt_class,
            noadapt_entropy=r.noadapt_entropy,
            adapted_class=r.adapted_class,
            adapted_entropy=r.adapted_entropy,
            evaluations=r.evaluations,
            status=r.status,
            wall_ms=r.wall_ms,
        )
        for r in records
    ]


def test_summary_text_mentions_gain():
    records = [_record(0, 1, 0, 0.5, 1, 0.2)]
    text = report.summary_text(report.summarize(records), header="h")
    assert "accuracy gain" in text
    assert text.startswith("h\n")


def test_the_columns_are_the_record_fields():
    assert report.CSV_COLUMNS == list(report.SampleRecord.__dataclass_fields__)


_INTS = st.integers(-(2 ** 63), 2 ** 64)
_RECORDS = st.lists(st.builds(
    report.SampleRecord, _INTS, st.one_of(st.just(-1), _INTS), _INTS, st.floats(), _INTS,
    st.floats(), _INTS, st.text(), st.floats(),
), max_size=5)


@settings(max_examples=200, deadline=None)
@given(records=_RECORDS)
def test_any_records_read_back_as_written(records):
    # every field but wall_ms comes back exactly (floats by repr, so -0.0 and
    # the infinities too, and NaN as NaN); wall_ms to its 3 written decimals
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "r.csv"
        report.write_csv(path, records)
        back = report.read_csv(path)
    assert len(back) == len(records)
    for r, b in zip(records, back):
        for name in report.CSV_COLUMNS[:-1]:
            assert repr(getattr(b, name)) == repr(getattr(r, name)), name
        assert repr(b.wall_ms) == repr(float(f"{r.wall_ms:.3f}"))


_HEADER = ",".join(report.CSV_COLUMNS)
_ROW = "0,1,1,0.5,1,0.25,9,ok,1.5"


def test_a_blank_line_is_skipped(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text(f"{_HEADER}\n{_ROW}\n\n{_ROW}\n")
    assert len(report.read_csv(path)) == 2


@pytest.mark.parametrize("row", [_ROW.rsplit(",", 1)[0], _ROW + ",7"], ids=["short", "extra"])
def test_a_row_with_a_missing_or_extra_field_is_refused_naming_its_line(tmp_path, row):
    path = tmp_path / "r.csv"
    path.write_text(f"{_HEADER}\n{_ROW}\n{row}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: expected 9 fields")):
        report.read_csv(path)
