"""The program names the traced benchmark run wraps or reads still exist.

``perfbench/spans.py`` wraps its ``TARGETS`` by name and reads index
fields of each prepared query; a name deleted from the program would
otherwise break only ``perfbench/run.py --trace 1``.  The module is
compiled from its source, so the check writes nothing under
``perfbench/``.
"""
import types
from pathlib import Path

import numpy as np

from repro.engine import runner

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
