"""The program names the benchmark wraps or reads, and the calls it
makes, still exist.

``perfbench/spans.py`` wraps its ``TARGETS`` by name and reads index
fields of each prepared query, and ``perfbench/run.py`` reads fields of
each prepared query and loaded dataset, calls the runner and the loaders
with keywords, and copies traced runs with ``dataclasses.replace``; a
name deleted or a signature changed in the program would otherwise break
only a benchmark run.  The modules are read or compiled from their
source, so the checks write nothing under ``perfbench/``.
"""
import ast
import dataclasses
import inspect
import types
from pathlib import Path

import numpy as np

from repro.engine import runner
from repro.workloads import datasets, queries

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
RUN = SPANS.with_name("run.py")


def _spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_span_targets_exist():
    """Every ``(owner, attr)`` the tracer wraps is defined on the owner
    itself, as ``Tracer.installed`` saves ``owner.__dict__[attr]``."""
    targets = _spans().TARGETS
    assert targets
    for owner, attr, _, _ in targets:
        assert attr in owner.__dict__, f"{getattr(owner, '__name__', owner)}.{attr}"


def test_prepared_query_has_layer_fields(prepared):
    """A prepared query has the fields ``layer_metrics`` reads."""
    pq = prepared["flights-q1"]
    idx = pq.counts_index
    for name in ("offsets", "cnt", "z_idx", "x_idx"):
        assert isinstance(getattr(idx, name), np.ndarray), name
    for name in ("bitmap", "bitmap_t"):
        assert isinstance(getattr(pq, name), np.ndarray), name


def _reads(path: Path) -> set:
    """``(kind, attr)`` for each ``pq.attr`` / ``pqs[...].attr`` (kind
    ``"pq"``) and ``ds.attr`` / ``<pq>.ds.attr`` (kind ``"ds"``) in the
    source at ``path``."""

    def kind(node):
        if isinstance(node, ast.Name) and node.id in ("pq", "ds"):
            return node.id
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            return "pq" if node.value.id == "pqs" else None
        if isinstance(node, ast.Attribute) and node.attr == "ds" and kind(node.value) == "pq":
            return "ds"
        return None

    return {
        (kind(node.value), node.attr)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and kind(node.value)
    }


def test_benchmark_reads_existing_fields(flights_pq):
    """Every attribute ``perfbench/run.py`` and ``perfbench/spans.py`` read
    from a prepared query or its dataset is a field, an attribute set at
    construction, or a property or method of its class (looked up without
    evaluating it, so no Spark relation is built)."""
    reads = _reads(RUN) | _reads(SPANS)
    assert {("pq", "z_values"), ("pq", "bitmap_t"), ("ds", "n_rows"), ("ds", "n_blocks"),
            ("ds", "sdf")} <= reads
    objs = {"pq": flights_pq, "ds": flights_pq.ds}
    for k, attr in sorted(reads):
        obj = objs[k]
        assert attr in vars(obj) or hasattr(type(obj), attr), f"{k}.{attr}"


def test_tracer_records_statistics_spans(flights_pq):
    """One replay run per batch shape (SyncMatch: one block, FastMatch:
    lookahead batches) under ``Tracer.installed`` records at least one
    span of each statistics layer the benchmark reports, so none of
    those metrics reads 0 because the program stopped calling its
    target; leaving the block restores every target."""
    spans = _spans()
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans.TARGETS]
    for variant in ("syncmatch", "fastmatch"):
        tracer = spans.Tracer()
        with tracer.installed():
            r = runner.run_variant(flights_pq, variant, start_block=3)
        names = [s[0] for s in tracer.spans]
        for name in ("core.iterate", "core.l1", "core.deviations", "core.bounds"):
            assert name in names, (variant, name)
        assert names.count("core.iterate") == r.n_stat_iters
        for owner, attr, fn in saved:
            assert owner.__dict__[attr] is fn, attr


def test_benchmark_calls_bind():
    """Every call ``perfbench/run.py`` makes to ``run_variant``,
    ``run_scan``, ``load_dataset`` or ``generate`` binds to the current
    signature: its positional and keyword arguments, by name."""
    functions = {f.__name__: f for f in (runner.run_variant, runner.run_scan,
                                         queries.load_dataset, datasets.generate)}
    seen = set()
    for node in ast.walk(ast.parse(RUN.read_text())):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name not in functions:
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
        assert all(k.arg for k in node.keywords), ast.unparse(node)
        inspect.signature(functions[name]).bind(
            *node.args, **{k.arg: k.value for k in node.keywords})
        seen.add(name)
    assert seen == set(functions)


def test_traced_copy_of_a_run(flights_pq):
    """The traced benchmark keeps each run as
    ``dataclasses.replace(res, topk_idx=None, tau_est=None,
    est_counts=None)``: the copy keeps the counters, and the run keeps
    its arrays."""
    res = runner.run_variant(flights_pq, "fastmatch", start_block=3)
    kept = dataclasses.replace(res, topk_idx=None, tau_est=None, est_counts=None)
    assert kept.topk_idx is kept.tau_est is kept.est_counts is None
    assert (kept.tuples_read, kept.blocks_read, kept.n_stat_iters) == (
        res.tuples_read, res.blocks_read, res.n_stat_iters)
    assert isinstance(res.topk_idx, np.ndarray)
