"""End-to-end, layer-by-layer benchmark of the repro CLI and daemon.

See ``bench/README.md``; run with ``PYTHONPATH=src python -m bench``.
"""
