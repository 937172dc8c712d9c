"""Determinism & causality static analysis (``repro lint``).

The reproduction's core guarantee — a run is a pure function of
``(config, seed)`` — and its causal-ordering semantics are enforced
here in two complementary layers:

* **Static rules** (:mod:`repro.lint.rules`): AST checks for wall-clock
  reads, ad-hoc RNG construction, hash-ordered iteration, total-order
  comparison of partial-order timestamps, mutable defaults, and active
  observability code.  Run them via :func:`lint_paths` or the
  ``repro lint`` CLI subcommand.

* **Whole-program dataflow rules** (:mod:`repro.lint.dataflow`): RNG
  provenance taint analysis, order-escape reachability, and static
  race rules over the :mod:`repro.lint.projgraph` call graph — the
  hazards that cross module boundaries and are invisible per-file.

An incremental finding cache (:mod:`repro.lint.cache`) keeps warm runs
cheap.  What only a run exposes — two same-seed runs firing tied
events in a different order — is labelled by
:func:`repro.trace.first_divergence` instead.

Rule catalogue, rationale, and suppression syntax:
``docs/static_analysis.md``.
"""

from repro.lint.cache import CACHE_VERSION, LintCache, project_digest, source_digest
from repro.lint.dataflow import PROJECT_RULES, ProjectRule
from repro.lint.engine import (
    JSON_SCHEMA_VERSION,
    LintReport,
    LintUsageError,
    iter_python_files,
    lint_paths,
    lint_source,
    parse_suppressions,
)
from repro.lint.findings import PARSE_ERROR_RULE, Finding
from repro.lint.projgraph import ProjectGraph, plane_of
from repro.lint.rules import RULES, LintContext, Rule

__all__ = [
    "CACHE_VERSION",
    "JSON_SCHEMA_VERSION",
    "PARSE_ERROR_RULE",
    "PROJECT_RULES",
    "RULES",
    "Finding",
    "LintCache",
    "LintContext",
    "LintReport",
    "LintUsageError",
    "ProjectGraph",
    "ProjectRule",
    "Rule",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
    "plane_of",
    "project_digest",
    "source_digest",
]
