"""The command-line jobs, run as scripts with no Spark, print what the
library computes, and reject unknown query ids and bad arguments before
drawing anything."""
import runpy
import sys
from pathlib import Path

import pytest

from repro.tables import table2, table3, table4
from repro.workloads import datasets, queries
from repro.workloads.queries import load_dataset, prepare

JOBS = Path(__file__).resolve().parent.parent / "jobs"


@pytest.fixture
def job(monkeypatch, capsys):
    """Run ``jobs/<name>`` as ``__main__`` with the given arguments and
    return what it printed."""

    def run(name: str, *argv: str) -> str:
        monkeypatch.setattr(sys, "argv", [name, *argv])
        runpy.run_path(str(JOBS / name), run_name="__main__")
        return capsys.readouterr().out

    return run


def test_table2_job(job):
    assert job("table2.py", "--sf", "0.002") == table2.format_table(table2.rows(sf=0.002)) + "\n"


def test_table3_job(job):
    assert job("table3.py", "--sf", "0.001") == table3.format_table(table3.rows(sf=0.001)) + "\n"


def test_table4_job(job):
    out = job("table4.py", "--sf", "0.001", "--runs", "1", "--queries", "police-q1")
    assert "guarantee violations: 0/4 runs" in out
    (exp,) = table4.rows(sf=0.001, n_runs=1, queries=["police-q1"])
    for v, s in exp.variants.items():  # read fractions do not depend on timing
        assert f"police-q1   {v:<10} read={s.read_fraction:7.1%} " in out


def test_run_query_scan_job(job):
    out = job("run_query.py", "police-q1", "scan", "--sf", "0.001")
    pq = prepare(load_dataset(None, "police", sf=0.001), queries.QUERIES["police-q1"])
    assert f"top-k: {[pq.z_values[i] for i in pq.true_topk()]}\n" in out


def test_run_query_variant_job(job):
    """``--seed s`` starts where Table 4's first run with seed ``s`` does."""
    out = job("run_query.py", "police-q1", "fastmatch", "--sf", "0.001", "--seed", "1")
    assert "guarantee1=True guarantee2=True " in out
    (exp,) = table4.rows(sf=0.001, n_runs=1, seed=1, queries=["police-q1"])
    assert f" start={exp.variants['fastmatch'].runs[0].start_block} " in out


@pytest.mark.parametrize(
    "name,argv",
    [
        ("run_query.py", ["taxi-q3", "scan", "--sf", "0.001"]),
        ("table4.py", ["--sf", "0.001", "--queries", "taxi-q3"]),
    ],
)
def test_jobs_reject_unknown_query_ids(name, argv, job, monkeypatch, capsys):
    monkeypatch.setattr(queries, "draw", lambda *a, **k: pytest.fail("drew a dataset"))
    with pytest.raises(SystemExit) as exc:
        job(name, *argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'taxi-q3'" in err and "flights-q1" in err


RUN_QUERY = ["police-q1", "fastmatch", "--sf", "0.001"]
BAD_ARGUMENTS = {  # id → (job, arguments, what its usage error says)
    "start-and-seed": ("run_query.py", [*RUN_QUERY, "--start", "0", "--seed", "5"],
                       "not allowed with argument"),
    "zero-runs": ("table4.py", ["--sf", "0.001", "--runs", "0", "--queries", "police-q1"],
                  "--runs must be >= 1"),
    **{f"{name[:-3]}-sf={sf}": (name, ["--sf", sf], "argument --sf: sf must be finite and > 0")
       for name in ("table2.py", "table3.py", "table4.py") for sf in ("0", "-1", "nan")},
    "run_query-sf=0": ("run_query.py", ["police-q1", "fastmatch", "--sf", "0"],
                       "argument --sf: sf must be finite and > 0"),
    "zero-lookahead": ("run_query.py", [*RUN_QUERY, "--lookahead", "0"],
                       "--lookahead: must be >= 1, got 0"),
    "delta-above-1": ("run_query.py", [*RUN_QUERY, "--delta", "1.5"],
                      "--delta: must be in (0, 1), got 1.5"),
    "zero-eps": ("run_query.py", [*RUN_QUERY, "--eps", "0"], "--eps: must be > 0, got 0"),
    "start-past-end": ("run_query.py", [*RUN_QUERY, "--start", "999999"],
                       "--start must be in [0, 188) at --sf 0.001, got 999999"),
}


@pytest.mark.parametrize("name,argv,message", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_jobs_reject_bad_arguments(name, argv, message, job, monkeypatch, capsys):
    """A bad argument exits 2 with a usage message before a dataset is
    drawn: ``--start`` with ``--seed``, ``--runs 0``, an SF that
    ``n_rows_at`` rejects, ε, δ or lookahead outside the range the run
    enforces, or a start past the last block at that SF."""
    for module in (queries, datasets):
        monkeypatch.setattr(module, "draw", lambda *a, **k: pytest.fail("drew a dataset"))
    with pytest.raises(SystemExit) as exc:
        job(name, *argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
