"""Evaluation-section reproduction: metrics (§5.3) and the Table 2/3/4
row generators.  Each ``tableN.py`` module exposes ``rows(...)`` (data)
and ``format_table(...)`` (the printable analog of the paper's table);
``jobs/tableN.py`` print them.
"""
