"""Lint engine: file discovery, suppression, caching, and reporting.

Suppression syntax (documented in docs/static_analysis.md):

* ``# repro: noqa -- why`` — suppress every rule on this line.
* ``# repro: noqa SIM003 -- why`` — suppress the listed rule(s) on
  this line (comma/space separated).  The ``-- why`` reason text is
  required in spirit: the engine emits a warning for any directive
  without one.
* ``# repro: noqa-file SIM001 -- why`` — suppress the listed rule(s)
  for the whole file; bare ``noqa-file`` suppresses all rules.

Two rule layers run under one report: the per-file AST rules
(:mod:`repro.lint.rules`) and the whole-program dataflow rules
(:mod:`repro.lint.dataflow`) over the :class:`~repro.lint.projgraph.
ProjectGraph`.  ``lint_paths`` accepts an optional
:class:`~repro.lint.cache.LintCache` (raw findings keyed by content
digest — suppressions and warnings are always recomputed live, so
cached and uncached runs render byte-identical reports).

The engine walks paths deterministically (sorted), so output and exit
codes are stable — the linter holds itself to the invariant it checks.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.lint.cache import LintCache
from repro.lint.dataflow import PROJECT_RULES
from repro.lint.findings import PARSE_ERROR_RULE, Finding
from repro.lint.projgraph import ProjectGraph
from repro.lint.rules import RULES, LintContext

#: Bump when the JSON output schema changes shape.  v2 added
#: ``suppressed`` per-rule counts and ``warnings``; v3 dropped the
#: ``baselined`` counts along with the adoption baseline.
JSON_SCHEMA_VERSION = 3

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?P<file>-file)?"
    r"(?P<codes>(?:[ \t,]+[A-Z]+[0-9]+)*)"
    r"(?P<reason>[ \t]*--[ \t]*\S.*)?"
)
_CODE_RE = re.compile(r"[A-Z]+[0-9]+")


class LintUsageError(ValueError):
    """Raised for bad invocations (unknown rule id, missing path)."""


@dataclass(slots=True)
class Suppressions:
    """Per-file and per-line noqa directives parsed from source."""

    #: rule ids suppressed file-wide; ``None`` element means "all".
    file_level: set[str] = field(default_factory=set)
    file_all: bool = False
    #: line -> rule ids (empty set means "all rules on this line").
    lines: dict[int, set[str]] = field(default_factory=dict)
    #: lines whose directive carries no ``-- reason`` text.
    reasonless: list[int] = field(default_factory=list)

    def suppressed(self, finding: Finding) -> bool:
        if self.file_all or finding.rule in self.file_level:
            return True
        codes = self.lines.get(finding.line)
        if codes is None:
            return False
        return not codes or finding.rule in codes


def parse_suppressions(source: str) -> Suppressions:
    sup = Suppressions()
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(line)
        if m is None:
            continue
        codes = set(_CODE_RE.findall(m.group("codes") or ""))
        if not m.group("reason"):
            sup.reasonless.append(lineno)
        if m.group("file"):
            if codes:
                sup.file_level |= codes
            else:
                sup.file_all = True
        else:
            existing = sup.lines.get(lineno)
            if existing is None:
                sup.lines[lineno] = codes
            elif codes and existing:
                existing |= codes
            else:
                sup.lines[lineno] = set()  # a bare noqa wins
    return sup


# ---------------------------------------------------------------------------


def _module_name(path: Path) -> str:
    """Best-effort dotted module name: everything after a ``src``
    component if present, else the bare stem chain."""
    parts = list(path.parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _known_rules() -> dict[str, str]:
    """All rule ids -> layer ('file' or 'project')."""
    out = {rid: "file" for rid in RULES}
    out.update({rid: "project" for rid in PROJECT_RULES})
    return out


def _select_rules(select: Sequence[str] | None) -> list[str]:
    known = _known_rules()
    if select is None:
        return sorted(known)
    unknown = [r for r in select if r not in known]
    if unknown:
        raise LintUsageError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    return sorted(set(select))


def lint_source(
    source: str,
    path: str | Path = "<string>",
    *,
    select: Sequence[str] | None = None,
    respect_noqa: bool = True,
) -> list[Finding]:
    """Lint one in-memory module with the per-file rules; the backbone
    of the rule fixture tests.  Whole-program rules need the full file
    set and run only under :func:`lint_paths`."""
    path = Path(path)
    rule_ids = [r for r in _select_rules(select) if r in RULES]
    findings = _raw_file_findings(source, path, rule_ids)
    if respect_noqa:
        sup = parse_suppressions(source)
        findings = [f for f in findings if not sup.suppressed(f)]
    return sorted(findings, key=Finding.sort_key)


def _raw_file_findings(
    source: str, path: Path, rule_ids: Sequence[str]
) -> list[Finding]:
    """Per-file findings before suppression (the cacheable quantity)."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(
                rule=PARSE_ERROR_RULE,
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 0) or 1,
                message=f"cannot parse: {exc.msg}",
            )
        ]
    ctx = LintContext(tree, str(path), _module_name(path))
    findings = [f for rid in rule_ids for f in RULES[rid]().check(ctx)]
    return sorted(findings, key=Finding.sort_key)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic, sorted file list."""
    out: set[Path] = set()
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.update(p.rglob("*.py"))
        elif p.is_file():
            out.add(p)
        else:
            raise LintUsageError(f"no such file or directory: {p}")
    return iter(sorted(out))


@dataclass(slots=True)
class LintReport:
    """Outcome of one lint run over a set of paths."""

    findings: list[Finding]
    files_checked: int
    #: per-rule counts of findings silenced by ``noqa`` directives.
    suppressed: dict[str, int] = field(default_factory=dict)
    #: advisory messages (reason-less noqa, …); never affect exit code.
    warnings: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return dict(sorted(out.items()))

    def render_text(self) -> str:
        lines = [f.format() for f in self.findings]
        lines.extend(f"warning: {w}" for w in self.warnings)
        summary = (
            f"{len(self.findings)} finding(s) in {self.files_checked} file(s)"
            if self.findings
            else f"clean: {self.files_checked} file(s) checked"
        )
        lines.append(summary)
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "version": JSON_SCHEMA_VERSION,
            "tool": "repro-lint",
            "files_checked": self.files_checked,
            "clean": self.clean,
            "counts": self.counts(),
            "suppressed": dict(sorted(self.suppressed.items())),
            "warnings": list(self.warnings),
            "findings": [f.as_dict() for f in self.findings],
        }

    def render_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)


def lint_paths(
    paths: Iterable[str | Path],
    *,
    select: Sequence[str] | None = None,
    respect_noqa: bool = True,
    cache: LintCache | None = None,
) -> LintReport:
    """Lint files and directories; directories are walked recursively.

    Runs both rule layers: per-file rules on each module, then the
    whole-program dataflow rules over a :class:`ProjectGraph` of every
    file in this invocation.  With ``cache``, raw findings are reused
    for content-identical files (suppressions stay live, so reports
    are byte-identical either way).
    """
    rule_ids = _select_rules(select)
    file_ids = [r for r in rule_ids if r in RULES]
    proj_ids = [r for r in rule_ids if r in PROJECT_RULES]
    files = list(iter_python_files(paths))
    sources: dict[Path, str] = {
        p: p.read_text(encoding="utf-8") for p in files
    }

    raw: list[Finding] = []
    for p in files:
        cached = cache.get_file(str(p), sources[p], file_ids) if cache else None
        if cached is None:
            cached = _raw_file_findings(sources[p], p, file_ids)
            if cache is not None:
                cache.put_file(str(p), sources[p], file_ids, cached)
        raw.extend(cached)

    if proj_ids:
        str_sources = {str(p): s for p, s in sources.items()}
        proj = cache.get_project(str_sources, proj_ids) if cache else None
        if proj is None:
            graph = ProjectGraph.build(str_sources)
            proj = sorted(
                (
                    f
                    for rid in proj_ids
                    for f in PROJECT_RULES[rid]().check(graph)
                ),
                key=Finding.sort_key,
            )
            if cache is not None:
                cache.put_project(str_sources, proj_ids, proj)
        raw.extend(proj)

    if cache is not None:
        cache.save()

    sups = {str(p): parse_suppressions(s) for p, s in sources.items()}
    kept: list[Finding] = []
    suppressed: dict[str, int] = {}
    for f in sorted(raw, key=Finding.sort_key):
        sup = sups.get(f.path)
        if respect_noqa and sup is not None and sup.suppressed(f):
            suppressed[f.rule] = suppressed.get(f.rule, 0) + 1
        else:
            kept.append(f)

    warnings: list[str] = []
    if respect_noqa:
        for pstr in sorted(sups):
            for lineno in sups[pstr].reasonless:
                warnings.append(
                    f"{pstr}:{lineno}: noqa without `-- reason`; say why "
                    "the rule is wrong here so the audit trail survives"
                )

    return LintReport(
        findings=kept,
        files_checked=len(files),
        suppressed=dict(sorted(suppressed.items())),
        warnings=warnings,
    )


__all__ = [
    "JSON_SCHEMA_VERSION",
    "LintReport",
    "LintUsageError",
    "Suppressions",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
]
