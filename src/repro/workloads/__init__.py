"""Workloads: synthetic analogs of the paper's datasets and queries.

* :mod:`repro.workloads.datasets` — FLIGHTS / TAXI / POLICE generators
  (Table 2 analogs), each ``(n, rng) → int32 codes``, run by ``draw``.
* :mod:`repro.workloads.queries` — the nine Table 3 query specs and
  target computation, plus :func:`repro.workloads.queries.prepare`
  which builds everything a run needs from the drawn codes, with
  no Spark job, as one frozen record (counts index, bitmap, ground truth).
"""
