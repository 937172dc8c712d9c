"""The repo holds itself to its own invariants: `repro lint src/` is
clean (after the PR-2 and PR-7 fix sweeps) — per-file AND
whole-program rules — and stays clean."""

from pathlib import Path

from repro.lint import lint_paths

SRC = Path(__file__).resolve().parents[2] / "src"


def test_src_tree_is_lint_clean():
    report = lint_paths([SRC])
    assert report.files_checked > 50
    assert report.findings == [], report.render_text()
    assert report.warnings == [], report.render_text()


def test_suppressions_in_src_are_reasoned():
    """Every noqa in src/ must carry a `--` reason — suppression without
    an audit trail defeats the point of the rule catalogue."""
    for path in sorted(SRC.rglob("*.py")):
        if path.parent.name == "lint":
            continue  # the linter's own docs spell out the bare syntax
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "repro: noqa" in line:
                assert "--" in line.split("repro: noqa", 1)[1], (
                    f"{path}:{lineno} suppression lacks a reason"
                )
