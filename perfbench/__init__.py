"""End-to-end and per-layer benchmark of the dropintmle package (see README.md)."""
