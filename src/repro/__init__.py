"""Reproduction of "Adaptive Sampling for Rapidly Matching Histograms"
(Macke, Zhang, Huang, Parameswaran; PVLDB 11(10), 2018) in PySpark.

Subpackages: :mod:`repro.core` (HistSim), :mod:`repro.storage` (blocked
layout + bitmap index), :mod:`repro.engine` (FastMatch variants + the
exact Scan), :mod:`repro.workloads` (datasets + queries),
:mod:`repro.tables` (evaluation harnesses).  See DESIGN.md.
"""
