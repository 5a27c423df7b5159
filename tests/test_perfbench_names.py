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
