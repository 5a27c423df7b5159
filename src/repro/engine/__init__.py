"""The FastMatch engine: block-choice policies, the round loop for every
§5.2 variant (Scan / SlowMatch / ScanMatch / SyncMatch / FastMatch) and
the exact Scan, all timed in real wall clock (see DESIGN.md §2).
"""
