"""Shared benchmark utilities.

Every experiment bench (E1–E12, see DESIGN.md §4):

* runs its harness once under ``benchmark.pedantic`` so
  ``pytest benchmarks/ --benchmark-only`` times the full experiment;
* renders its table with :func:`repro.analysis.sweep.format_table`;
* persists the table under ``benchmarks/results/`` (and prints it, so
  ``-s`` shows it live) — EXPERIMENTS.md quotes these files.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: Where benches write fresh ``BENCH_*.json`` documents (gitignored);
#: the committed baselines beside it change only by copying from here.
FRESH_DIR = RESULTS_DIR / "fresh"


@pytest.fixture
def save_table():
    """Persist + print an experiment's output table."""

    def _save(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save


@pytest.fixture
def save_bench_json():
    """Persist a machine-readable ``BENCH_<name>.json`` through the
    :mod:`repro.obs` exporters into :data:`FRESH_DIR`, where
    ``check_regression.py`` compares it against the committed baseline
    of the same name in ``benchmarks/results/``."""
    from repro.obs.exporters import export_bench_json

    def _save(name: str, rows, *, meta=None, registry=None) -> None:
        FRESH_DIR.mkdir(parents=True, exist_ok=True)
        path = export_bench_json(
            FRESH_DIR / f"BENCH_{name}.json", name, rows,
            meta=meta, registry=registry,
        )
        print(f"[bench json saved to {path}]")

    return _save
