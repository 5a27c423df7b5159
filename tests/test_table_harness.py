"""The Table 2/3/4 harnesses produce complete, sane rows."""
import pytest

from repro.engine.runner import APPROX_VARIANTS
from repro.storage.blocks import BLOCK_COL
from repro.tables import table2, table3, table4
from repro.tables.table4 import PAPER_TABLE4, format_table, run_query_experiment
from repro.workloads import datasets, queries


def test_paper_reference_numbers_complete():
    assert set(PAPER_TABLE4) == {
        "flights-q1", "flights-q2", "flights-q3", "flights-q4",
        "taxi-q1", "taxi-q2", "police-q1", "police-q2", "police-q3",
    }
    for row in PAPER_TABLE4.values():
        assert set(row) == {"scan_s", *APPROX_VARIANTS}


def test_table2_rows(monkeypatch):
    """Table 2 draws no dataset, and the tuples, attributes, blocks and
    cardinalities of each row equal those of ``generate``'s frame: at SF 0.002, and at SF
    0.001, where police's final block is partial."""
    with monkeypatch.context() as m:
        m.setattr(datasets, "draw", lambda *a, **k: pytest.fail("table2.rows drew a dataset"))
        rows, small = table2.rows(sf=0.002), table2.rows(sf=0.001)
    assert [r["dataset"] for r in rows] == ["FLIGHTS", "TAXI", "POLICE"]
    for r in rows:
        assert r["ours_tuples"] == 12_000
    txt = table2.format_table(rows)
    assert "FLIGHTS" in txt and "604,000,000" in txt
    police = small[-1]
    assert police["ours_tuples"] % police["tuples_per_block"] != 0
    for sf, rs in ((0.002, rows), (0.001, small)):
        for r in rs:
            pdf, meta = datasets.generate(r["dataset"].lower(), sf=sf)
            assert r["ours_tuples"] == len(pdf)
            assert r["ours_attrs"] == len(pdf.columns.drop(BLOCK_COL))
            assert r["ours_blocks"] == pdf[BLOCK_COL].iloc[-1] + 1
            assert r["cardinalities"] == {c: len(v) for c, v in meta.value_sets.items()}


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
    assert list(exp.variants) == list(APPROX_VARIANTS)
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


def test_table4_rejects_unknown_query_ids(monkeypatch):
    """A mistyped query id raises, naming the valid ids, before any draw,
    rather than running an empty grid with no violations."""
    monkeypatch.setattr(queries, "draw", lambda *a, **k: pytest.fail("drew a dataset"))
    with pytest.raises(ValueError, match="taxi-q3.*flights-q1"):
        table4.rows(sf=0.001, n_runs=1, queries=["taxi-q3"])


def test_table4_rejects_zero_runs_before_drawing(monkeypatch):
    monkeypatch.setattr(queries, "draw", lambda *a, **k: pytest.fail("drew a dataset"))
    with pytest.raises(ValueError, match="n_runs must be >= 1, got 0"):
        table4.rows(sf=0.001, n_runs=0, queries=["police-q1"])
