"""The Table 2/3/4 harnesses produce complete, sane rows."""
import pytest

from repro.tables import table2, table3, table4
from repro.tables.table4 import (
    PAPER_TABLE4,
    VARIANT_ORDER,
    format_table,
    run_query_experiment,
)


def test_paper_reference_numbers_complete():
    assert set(PAPER_TABLE4) == {
        "flights-q1", "flights-q2", "flights-q3", "flights-q4",
        "taxi-q1", "taxi-q2", "police-q1", "police-q2", "police-q3",
    }
    for row in PAPER_TABLE4.values():
        assert set(row) == {"scan_s", *VARIANT_ORDER}


def test_table2_rows():
    rows = table2.rows(sf=0.002)
    assert [r["dataset"] for r in rows] == ["FLIGHTS", "TAXI", "POLICE"]
    for r in rows:
        assert r["ours_tuples"] == 12_000
        assert r["ours_blocks"] > 0
    txt = table2.format_table(rows)
    assert "FLIGHTS" in txt and "604,000,000" in txt


def test_table3_rows():
    rows = table3.rows(sf=0.002)
    assert len(rows) == 9
    by_q = {r["query"]: r for r in rows}
    assert by_q["taxi-q1"]["vz_paper"] == 7548
    assert by_q["taxi-q1"]["vz_ours"] == 3072
    assert by_q["flights-q1"]["vx_ours"] == 24
    assert "closest to uniform" in by_q["police-q1"]["target_ours"]
    txt = table3.format_table(rows)
    assert "flights-q1" in txt


def test_run_query_experiment_structure(prepared):
    exp = run_query_experiment(prepared["police-q1"], n_runs=2, seed=3)
    assert set(exp.variants) == set(VARIANT_ORDER)
    for v in exp.variants.values():
        assert v.seconds == pytest.approx(sum(r.wall for r in v.runs) / 2)
        assert v.speedup == pytest.approx(exp.scan_seconds / v.seconds)
        assert 0 < v.read_fraction <= 1.0
        assert 0 <= v.time_fetch <= v.seconds
        assert len(v.runs) == 2
        assert sum(v.stop_reasons.values()) == 2
        assert set(v.stop_reasons) <= {"sum_delta", "max_delta", "exhausted"}
        assert v.guarantee_violations == 0
    assert exp.scan_seconds > 0
    txt = format_table([exp])
    assert "police-q1" in txt
    assert "guarantee violations: 0/8 runs" in txt


def test_run_query_experiment_variant_subset(prepared):
    exp = run_query_experiment(
        prepared["police-q1"], n_runs=1, seed=3, variants=["fastmatch"]
    )
    assert set(exp.variants) == {"fastmatch"}
