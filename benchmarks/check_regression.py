"""Compare fresh benchmark numbers against committed BENCH baselines.

Usage (CI's bench-smoke job, after re-running the benches, which write
fresh ``BENCH_*.json`` documents to ``benchmarks/results/fresh/``)::

    python benchmarks/check_regression.py BENCH_detector_throughput.json

The checker compares, per matching row key:

* wall-clock figures (``wall_s``) within ``--tolerance`` (default 3x —
  generous, because CI machines vary wildly; the point is to catch
  order-of-magnitude regressions, not jitter);
* correctness figures (``detections``, ``messages``, ``units``,
  ``events``, ``labels_digest``, ``findings``) **exactly** — a speedup
  that changes detections is a wrong answer, not a fast one.

Baselines are the committed files of the same name in
``benchmarks/results/``; re-recording one means copying it from
``fresh/``.  Exit codes: 0 ok, 1 regression/mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

RESULTS = pathlib.Path(__file__).parent / "results"
FRESH = RESULTS / "fresh"

#: Row fields that must match the baseline exactly.
EXACT_FIELDS = (
    "detections", "labels_digest", "messages", "units", "events", "findings",
)
#: Row fields compared as wall times within the tolerance factor.
WALL_FIELDS = ("wall_s",)
#: Fields identifying a row within its document.
KEY_FIELDS = ("detector", "m", "option", "params", "seed", "phase")

#: Same-machine throughput-gap floors: within ONE fresh bench document,
#: the ``slow`` row's wall time may exceed the ``fast`` row's by at most
#: the rule's ``max_gap``, or ``--max-gap`` when the rule sets none.
#: Because both rows come from the same run on the same machine, this
#: check is machine-independent — an absolute-wall regression that CI
#: jitter would absorb still fails when a gap reopens.  The rules pin:
#:
#: * the vector-strobe race machinery against the physical-clock scan
#:   (historically ~10x before the batched-kernel work; now ~2-4x);
#: * vector-strobe scaling from m=1000 to m=20000: linear is 20x, the
#:   dense O(m²·n) race kernel measured ~64x;
#: * online flush scaling over the same range: 30x is a per-record cost
#:   at most 1.5x the m=1000 one (the dense per-flush block it replaced
#:   grew it ~1.7x from m=1000 to m=20000; the chain walk, ~1.1x).
GAP_RULES = (
    {
        "file": "BENCH_detector_throughput.json",
        "slow": {"detector": "vector_strobe", "m": 1000},
        "fast": {"detector": "physical", "m": 1000},
    },
    {
        "file": "BENCH_detector_throughput.json",
        "slow": {"detector": "vector_strobe", "m": 20000},
        "fast": {"detector": "vector_strobe", "m": 1000},
        "max_gap": 40.0,
    },
    {
        "file": "BENCH_detector_phases.json",
        "slow": {"detector": "online_vector_strobe", "m": 20000, "phase": "flush"},
        "fast": {"detector": "online_vector_strobe", "m": 1000, "phase": "flush"},
        "max_gap": 30.0,
    },
)


def row_key(row: dict) -> str:
    return json.dumps(
        {k: row[k] for k in KEY_FIELDS if k in row}, sort_keys=True
    )


def load_json(path: pathlib.Path, what: str) -> dict:
    """Parse one BENCH document; a corrupt file exits 2 with a one-line
    diagnostic naming it, so CI logs point straight at the cause."""
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        print(f"check_regression: corrupt {what} {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def compare(name: str, fresh: dict, baseline: dict, tolerance: float) -> list[dict]:
    """One problem record per offending metric.

    Each record carries the full diagnosis — file, row key, metric
    name, baseline value, observed value, and what was allowed — so
    a CI failure names every number needed to judge it without
    re-running the bench locally.
    """
    problems: list[dict] = []
    base_rows = {row_key(r): r for r in baseline.get("rows", [])}
    for row in fresh.get("rows", []):
        key = row_key(row)
        base = base_rows.get(key)
        if base is None:
            continue        # new configuration: nothing to compare against
        for f in EXACT_FIELDS:
            if f in base and f in row and row[f] != base[f]:
                problems.append({
                    "file": name, "row": key, "metric": f,
                    "baseline": base[f], "observed": row[f],
                    "allowed": "exact match (correctness field)",
                })
        for f in WALL_FIELDS:
            if f in base and f in row and base[f] and row[f]:
                ratio = float(row[f]) / float(base[f])
                if ratio > tolerance:
                    problems.append({
                        "file": name, "row": key, "metric": f,
                        "baseline": base[f], "observed": row[f],
                        "ratio": ratio,
                        "allowed": f"<= {tolerance:g}x baseline wall time",
                    })
    return problems


def _find_row(rows: list[dict], want: dict) -> dict | None:
    for row in rows:
        if all(row.get(k) == v for k, v in want.items()):
            return row
    return None


def check_gaps(name: str, fresh: dict, max_gap: float) -> list[dict]:
    """Enforce :data:`GAP_RULES` on a fresh document (no baseline needed:
    both sides of each ratio come from the same run)."""
    problems: list[dict] = []
    rows = fresh.get("rows", [])
    for rule in GAP_RULES:
        if rule["file"] != name:
            continue
        slow = _find_row(rows, rule["slow"])
        fast = _find_row(rows, rule["fast"])
        if slow is None or fast is None:
            problems.append({
                "file": name,
                "row": json.dumps(rule["slow"], sort_keys=True),
                "metric": "wall_s gap",
                "baseline": rule["fast"],
                "observed": "row missing from fresh document",
                "allowed": "both gap-rule rows must be present",
            })
            continue
        if not slow.get("wall_s") or not fast.get("wall_s"):
            continue
        ratio = float(slow["wall_s"]) / float(fast["wall_s"])
        allowed = rule.get("max_gap", max_gap)
        if ratio > allowed:
            problems.append({
                "file": name, "row": row_key(slow), "metric": "wall_s gap",
                "baseline": fast["wall_s"], "observed": slow["wall_s"],
                "ratio": ratio,
                "allowed": (
                    f"<= {allowed:g}x the {row_key(fast)} row's "
                    "wall time (same-machine gap floor)"
                ),
            })
    return problems


def format_problem(p: dict) -> str:
    """Multi-line rendering: metric, baseline, observed, allowed."""
    lines = [f"{p['file']} {p['row']}", f"    metric:   {p['metric']}"]
    if "ratio" in p:
        lines += [
            f"    baseline: {p['baseline']:.4g}s",
            f"    observed: {p['observed']:.4g}s ({p['ratio']:.2f}x baseline)",
        ]
    else:
        lines += [
            f"    baseline: {p['baseline']!r}",
            f"    observed: {p['observed']!r}",
        ]
    lines.append(f"    allowed:  {p['allowed']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+",
                        help="BENCH_*.json file names under benchmarks/results/fresh/")
    parser.add_argument("--tolerance", type=float, default=3.0,
                        help="max allowed fresh/baseline wall-time ratio")
    parser.add_argument("--max-gap", type=float, default=6.0,
                        help="max allowed same-run wall-time ratio for "
                             "GAP_RULES pairs without their own max_gap")
    args = parser.parse_args(argv)
    if args.tolerance <= 0 or args.max_gap <= 0:
        print("check_regression: tolerance/max-gap must be positive",
              file=sys.stderr)
        return 2

    problems: list[dict] = []
    compared = 0
    for name in args.files:
        fresh_path = FRESH / name
        if not fresh_path.exists():
            print(f"check_regression: missing fresh file {fresh_path}",
                  file=sys.stderr)
            return 2
        fresh = load_json(fresh_path, "fresh file")
        problems += check_gaps(name, fresh, args.max_gap)
        base_path = RESULTS / name
        if not base_path.exists():
            print(f"{name}: no committed baseline; skipping")
            continue
        compared += 1
        problems += compare(name, fresh, load_json(base_path, "baseline"),
                            args.tolerance)

    if problems:
        n_exact = sum(1 for p in problems if "ratio" not in p)
        n_wall = len(problems) - n_exact
        print(f"{len(problems)} offending metric(s) "
              f"({n_exact} correctness, {n_wall} wall-time):")
        for p in problems:
            print("  " + format_problem(p).replace("\n", "\n  "))
        return 1
    print(f"ok: {compared} baseline file(s) within {args.tolerance:g}x "
          "wall tolerance, correctness fields exact, same-run gaps within "
          "their ceilings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
