import math

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
