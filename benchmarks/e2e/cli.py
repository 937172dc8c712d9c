"""Command line of the end-to-end benchmark.

::

    PYTHONPATH=src python -m benchmarks.e2e run [--seed N] [--trace] [--out FILE] [--spans DIR]
    PYTHONPATH=src python -m benchmarks.e2e compare A.json B.json
    PYTHONPATH=src python -m benchmarks.e2e baseline A.json B.json --out FILE
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

``run`` measures the three workloads one after another and prints every
metric by name with its unit; ``run.py`` measures one workload and ends
its output with one JSON line (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics, or with ``--trace 1`` the
per-layer ones.

A measurement runs in fresh subprocesses, one after another: one that
prepares inputs and references, ``SETUP_PROBES`` set-up probes, the
timed worker and, when traced, the traced worker.  This module imports
nothing from ``repro`` itself, so a probe's clock starts before the
first ``repro`` import.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e import config


class BenchError(RuntimeError):
    """A measurement could not complete."""


# ---------------------------------------------------------------------------
# Statistics and metric assembly
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """The median as the metric's value, with quartiles
    (``statistics.quantiles(n=4)``), count, and ``spread`` (the
    interquartile range over the median) beside it."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"value": med, "median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(med)}


def fastest_rate(ops: int, segments: list[list[float]]) -> float:
    """Operations per second of a rep made of each segment's fastest
    time over ``segments`` (one list of segment walls per rep)."""
    return ops / sum(min(walls) for walls in zip(*segments))


def throughput(worker: dict) -> dict:
    """The fastest-segment rate over all reps as the value.  ``lo`` and
    ``hi`` are the same rate over the even and the odd reps alone, and
    ``spread`` their distance over the value: how well the run found
    each segment's floor.  ``rep_median`` is the median per-rep rate."""
    segments, ops = worker["segments"], worker["ops"]
    if not segments:
        raise BenchError("no rep completed")
    value = fastest_rate(ops[0], segments)
    halves = [fastest_rate(ops[0], segments[i::2] or segments) for i in (0, 1)]
    return {"value": value, "lo": min(halves), "hi": max(halves), "n": len(segments),
            "spread": (max(halves) - min(halves)) / value,
            "rep_median": statistics.median(n / sum(w) for n, w in zip(ops, segments))}


def end_to_end(setup_values: list[float], worker: dict) -> dict:
    """Set-up is the median probe, throughput the fastest-segment rate."""
    return {
        "setup_s": summary(setup_values),
        "throughput_per_s": throughput(worker),
        "peak_rss_mb": summary([worker["peak_rss_mb"]]),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    values = dict(traced["layers"])
    values["traced_wall_s"] = traced["wall"]
    walls = [sum(w) for w in untraced["segments"]]
    values["trace_overhead"] = traced["wall"] / statistics.median(walls) - 1.0
    return {name: {"value": v} for name, v in values.items()}


def with_units(values: dict, kind: str) -> dict:
    """Attach declared units; refuse a metric set that differs from
    the ``kind`` section of ``BENCHMARK.json``."""
    declared = config.declared(kind)
    if set(values) != set(declared):
        raise BenchError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(set(values) - set(declared))}, "
            f"missing {sorted(set(declared) - set(values))}"
        )
    return {name: {**values[name], "unit": declared[name]["unit"]}
            for name in declared}


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """``ok``/``better``/``worse`` for B against A by relative change
    of the value beyond ``bound``; ``unresolved`` when either side's
    ``spread`` is wider."""
    if any(s["spread"] > bound for s in (a, b)):
        return "unresolved"
    gain = (b["value"] - a["value"]) / abs(a["value"])
    if better == "lower":
        gain = -gain
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "ok"


# ---------------------------------------------------------------------------
# Subprocesses
# ---------------------------------------------------------------------------

def _child(args: list[str], deadline: float) -> dict:
    """Run ``python -m benchmarks.e2e <args>`` in its own session and
    return the JSON object on its last stdout line.  On timeout or
    interrupt the child's whole session is killed and reaped before the
    error propagates."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(config.ROOT / "src"), str(config.ROOT), env.get("PYTHONPATH"))
        if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e", *args], cwd=config.ROOT,
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} {' '.join(args[1:5])} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{args[0]} printed no result")
    return json.loads(lines[-1])


@contextlib.contextmanager
def _workdir(name: str, seed: int):
    path = config.WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            config.WORK_DIR.rmdir()


def measure(name: str, seed: int, seconds: float, *, setup: bool, trace: bool,
            deadline: float, spans: "Path | None" = None) -> dict:
    """One workload's end-to-end metrics (``setup``) and per-layer
    metrics (``trace``), each run's correctness folded into
    ``attempted``/``failed``."""
    with _workdir(name, seed) as work:
        common = ["--workload", name, "--seed", str(seed),
                  "--inputs", str(work / "inputs.json"), "--work", str(work)]
        _child(["_prepare", *common], deadline)
        probes = [_child(["_setup", *common], deadline)["setup_s"]
                  for _ in range(config.SETUP_PROBES if setup else 0)]
        worker = _child(["_worker", *common, "--seconds", str(seconds)], deadline)
        result = {"workload": name, "seed": seed, "checks": worker["checks"],
                  "machine": worker["machine"]}
        attempted, failed = worker["attempted"], worker["failed"]
        if setup:
            result["metrics"] = with_units(end_to_end(probes, worker), "end_to_end")
        if trace:
            extra = [] if spans is None else ["--spans", str(spans / f"{name}.spans.jsonl")]
            traced = _child(["_worker", *common, "--traced", *extra], deadline)
            result["layers"] = with_units(per_layer(traced, worker), "per_layer")
            attempted += traced["attempted"]
            failed += traced["failed"]
    result.update(attempted=attempted, failed=failed,
                  error_rate=failed / attempted, correct=failed == 0)
    return result


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.6g}"


def print_result(result: dict) -> None:
    print(f"{result['workload']}  seed {result['seed']}  attempted "
          f"{result['attempted']}  failed {result['failed']}  "
          f"error_rate {_fmt(result['error_rate'])}")
    for name, m in result.get("metrics", {}).items():
        print(f"  {name:<30} {_fmt(m['value']):>12} {m['unit']:<9} "
              f"spread {m['spread']:.1%}  n {m['n']}")
    for name, m in result.get("layers", {}).items():
        print(f"  {name:<30} {_fmt(m['value']):>12} {m['unit']}")


def _filesystem(path: Path) -> str:
    """Filesystem type holding ``path`` (where serve_wal writes)."""
    best, fstype = "", "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/mounts").read_text().splitlines():
            mount, kind = line.split()[1:3]
            if path.resolve().is_relative_to(mount) and len(mount) > len(best):
                best, fstype = mount, kind
    return fstype


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_one(args) -> int:
    deadline = time.monotonic() + config.ONE_RUN_BUDGET_S
    trace = bool(args.trace)
    result = measure(args.workload, args.seed, args.seconds, setup=not trace,
                     trace=trace, deadline=deadline)
    print_result(result)
    section = result["layers"] if trace else result["metrics"]
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in section.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def cmd_run(args) -> int:
    seconds = config.load_spec()["run_seconds"]
    if args.spans is not None:
        args.spans.mkdir(parents=True, exist_ok=True)
    doc: dict = {"seed": args.seed, "seconds": seconds,
                 "serve_filesystem": _filesystem(config.WORK_DIR), "workloads": {}}
    for name in config.WORKLOADS:
        deadline = time.monotonic() + config.ONE_RUN_BUDGET_S
        result = measure(name, args.seed, seconds, setup=True, trace=args.trace,
                         deadline=deadline, spans=args.spans)
        print_result(result)
        doc["machine"] = result.pop("machine")
        doc["workloads"][name] = result
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in doc["workloads"].values()) else 1


def compare(a: dict, b: dict) -> tuple[list[dict], bool]:
    """Rows per (workload, end-to-end metric) of two ``run --out``
    documents, and whether B regressed (a ``worse`` verdict or a
    higher error rate)."""
    rows, regressed = [], False
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, decl in config.declared("end_to_end").items():
            ma, mb = wa["metrics"][metric], wb["metrics"][metric]
            v = verdict(ma, mb, decl["bound"], decl["better"])
            regressed |= v == "worse"
            rows.append({"workload": name, "metric": metric, "a": ma, "b": mb,
                         "change": (mb["value"] - ma["value"]) / abs(ma["value"]),
                         "bound": decl["bound"], "verdict": v})
        v = "worse" if wb["error_rate"] > wa["error_rate"] else "ok"
        regressed |= v == "worse"
        rows.append({"workload": name, "metric": "error_rate",
                     "a": {"value": wa["error_rate"]}, "b": {"value": wb["error_rate"]},
                     "change": wb["error_rate"] - wa["error_rate"], "bound": 0.0,
                     "verdict": v})
    return rows, regressed


def cmd_compare(args) -> int:
    rows, regressed = compare(json.loads(args.a.read_text()),
                              json.loads(args.b.read_text()))
    for r in rows:
        a, b = r["a"], r["b"]
        spread = (f"  spread {a['spread']:.1%} -> {b['spread']:.1%}"
                  if "spread" in a else "")
        print(f"{r['workload']:<15} {r['metric']:<17} {_fmt(a['value']):>10} -> "
              f"{_fmt(b['value']):<10} {r['change']:+7.2%} (bound {r['bound']:.0%}) "
              f"{r['verdict']:<10}{spread}")
    return 1 if regressed else 0


def cmd_baseline(args) -> int:
    sets = [json.loads(p.read_text()) for p in args.sets]
    doc = {
        "machine": sets[0]["machine"],
        "serve_filesystem": sets[0]["serve_filesystem"],
        "seconds": sets[0]["seconds"],
        "sets": [{"seed": s["seed"],
                  "workloads": {w: {"metrics": r["metrics"], "error_rate": r["error_rate"]}
                                for w, r in s["workloads"].items()}}
                 for s in sets],
        "trace_overhead": {w: [s["workloads"][w]["layers"]["trace_overhead"]["value"]
                               for s in sets if "layers" in s["workloads"][w]]
                           for w in config.WORKLOADS},
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


# -- subprocess entry points --------------------------------------------------

def _make(args):
    from benchmarks.e2e import workloads

    inputs = json.loads(args.inputs.read_text())
    references = json.loads(config.REFERENCES_PATH.read_text())
    return workloads.make(args.workload, args.seed, config.SIZES[args.workload],
                          inputs, args.work, references)


def cmd_prepare(args) -> int:
    from benchmarks.e2e.workloads import WORKLOAD_CLASSES

    data = WORKLOAD_CLASSES[args.workload].prepare(args.seed, config.SIZES[args.workload])
    args.inputs.write_text(json.dumps(data))
    print("{}")
    return 0


def cmd_setup(args) -> int:
    inputs = json.loads(args.inputs.read_text())
    t0 = time.perf_counter()
    from benchmarks.e2e import workloads

    workloads.make(args.workload, args.seed, config.SIZES[args.workload],
                   inputs, args.work, {}).setup()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def cmd_worker(args) -> int:
    from benchmarks.e2e import harness

    wl = _make(args)
    res = (harness.traced(wl, spans=args.spans) if args.traced
           else harness.measure(wl, args.seconds))
    res["peak_rss_mb"] = harness.peak_rss_mb()
    res["machine"] = harness.machine()
    print(json.dumps(res))
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                description="End-to-end benchmark of repro.")
    sub = p.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--trace", action="store_true", help="add a traced run per workload")
    run.add_argument("--out", type=Path, default=None, help="write results as JSON")
    run.add_argument("--spans", type=Path, default=None,
                     help="directory for <workload>.spans.jsonl of traced runs")
    run.set_defaults(fn=cmd_run)

    one = sub.add_parser("one", help="measure one workload; last line is JSON")
    one.add_argument("--workload", required=True, choices=config.WORKLOADS)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.set_defaults(fn=cmd_one)

    cmp_ = sub.add_parser("compare", help="verdict per (workload, metric) of two runs")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    cmp_.set_defaults(fn=cmd_compare)

    base = sub.add_parser("baseline", help="combine calibration runs into a baseline")
    base.add_argument("sets", type=Path, nargs=2)
    base.add_argument("--out", type=Path, required=True)
    base.set_defaults(fn=cmd_baseline)

    for name, fn in (("_prepare", cmd_prepare), ("_setup", cmd_setup),
                     ("_worker", cmd_worker)):
        c = sub.add_parser(name)
        c.add_argument("--workload", required=True, choices=config.WORKLOADS)
        c.add_argument("--seed", type=int, required=True)
        c.add_argument("--inputs", type=Path, required=True)
        c.add_argument("--work", type=Path, required=True)
        c.add_argument("--seconds", type=float, default=0.0)
        c.add_argument("--traced", action="store_true")
        c.add_argument("--spans", type=Path, default=None)
        c.set_defaults(fn=fn)
    return p


def _terminate(signum, frame) -> None:
    # Unwind through _child, which kills and reaps the child's session.
    sys.exit(128 + signum)


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return args.fn(args)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmarks.e2e: {exc}", file=sys.stderr)
        return 1
