"""End-to-end and per-layer benchmark of the DSA simulator (see ``run.py``)."""
