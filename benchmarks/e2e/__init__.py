"""End-to-end benchmark of ``repro``: three workloads, repeated timing,
correctness references and an outside-in per-layer split.

See ``benchmarks/e2e/README.md``; the command line is
:mod:`benchmarks.e2e.cli`.
"""
