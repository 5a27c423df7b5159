"""The paper's primary contribution: the HistSim algorithm.

Submodules:

* :mod:`repro.core.bounds` — Theorem 1 deviation bounds (and the
  Waggoner-style comparison bound from §3.4).
* :mod:`repro.core.distance` — normalized :math:`\\ell_1` histogram
  distance (numpy).
* :mod:`repro.core.deviations` — §3.3 split-point deviation selection.
* :mod:`repro.core.histsim` — the HistSim state machine of Algorithm 1.
"""
