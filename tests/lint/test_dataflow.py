"""Whole-program rules: one seeded cross-module violation per rule.

Every fixture is a tiny multi-file project (written to tmp_path under
``src/repro/...`` so plane/module inference works) whose hazard is
invisible to any single-file pass — the point of the project graph.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import PROJECT_RULES, ProjectGraph, lint_paths, plane_of
from repro.lint.dataflow import _propagate_taint


def _project(tmp_path, files: dict[str, str]) -> Path:
    root = tmp_path / "src"
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    return root


def _rules(root, *rule_ids):
    report = lint_paths([root], select=list(rule_ids))
    return report.findings


# ---------------------------------------------------------------------------
# DET002 — RNG provenance
# ---------------------------------------------------------------------------


def test_det002_cross_plane_handoff_through_call_edge(tmp_path):
    """A Generator built in one plane and passed (through a resolved
    call edge) into another plane is flagged at the hand-off."""
    root = _project(tmp_path, {
        "repro/faults/boom.py": """
            import numpy as np
            from repro.net.sink import consume

            def arm(seed):
                rng = np.random.default_rng(seed)
                consume(rng)
            """,
        "repro/net/sink.py": """
            def consume(rng):
                return rng.random()
            """,
    })
    findings = _rules(root, "DET002")
    assert [f.rule for f in findings] == ["DET002"]
    (f,) = findings
    assert f.path.endswith("repro/faults/boom.py")
    assert "faults→net" in f.message


def test_det002_module_level_stream(tmp_path):
    root = _project(tmp_path, {
        "repro/net/glob.py": """
            import numpy as np
            RNG = np.random.default_rng(0)
            """,
    })
    (f,) = _rules(root, "DET002")
    assert "process-wide stream" in f.message


def test_det002_one_stream_many_consumers(tmp_path):
    root = _project(tmp_path, {
        "repro/net/fan.py": """
            import numpy as np

            def jitter(rng):
                return rng.random()

            def backoff(rng):
                return rng.random()

            def run(seed):
                rng = np.random.default_rng(seed)
                a = jitter(rng)
                b = backoff(rng)
                return a + b
            """,
    })
    findings = _rules(root, "DET002")
    assert any("multiple consumers" in f.message for f in findings)


def test_det002_reseed_mid_run(tmp_path):
    root = _project(tmp_path, {
        "repro/net/reseed.py": """
            import numpy as np

            def run():
                rng = np.random.default_rng(0)
                rng.seed(7)
                return rng
            """,
    })
    findings = _rules(root, "DET002")
    assert any("re-seeding" in f.message for f in findings)


def test_det002_literal_seed_into_stream_constructor(tmp_path):
    """A literal seed flowing cross-module into a function that builds
    a stream from it — no single file shows both halves."""
    root = _project(tmp_path, {
        "repro/net/maker.py": """
            import numpy as np

            def make_stream(seed):
                return np.random.default_rng(seed)
            """,
        "repro/net/user.py": """
            from repro.net.maker import make_stream

            def run():
                return make_stream(42)
            """,
    })
    findings = _rules(root, "DET002")
    assert any("literal seed 42" in f.message for f in findings)


def test_det002_registry_streams_are_clean(tmp_path):
    """Streams with registry provenance never taint, even handed
    across a call edge within one plane."""
    root = _project(tmp_path, {
        "repro/net/ok.py": """
            from repro.sim.rng import RngRegistry

            def jitter(rng):
                return rng.random()

            def run(seed):
                rngs = RngRegistry(seed)
                return jitter(rngs.get("net", "jitter"))
            """,
    })
    assert _rules(root, "DET002") == []


# ---------------------------------------------------------------------------
# DET003 — order escape
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("body, line", [
    ("""
        import json

        def emit(doc):
            return json.dumps(doc)
        """, 5),
    ("""
        import json
        doc = json.dumps({"b": 1, "a": 2})
        """, 3),
    ("""
        import json as _json
        doc = _json.dumps({"a": 2}, indent=1)
        """, 3),
    ("""
        import json
        doc = json.dumps(
            {"a": 2},
            indent=1,
        )
        """, 3),
], ids=["param", "literal", "aliased", "multiline"])
def test_det003_dumps_without_sort_keys(tmp_path, body, line):
    root = _project(tmp_path, {"repro/obs/out.py": body})
    (f,) = _rules(root, "DET003")
    assert f.line == line
    assert "sort_keys" in f.message


def test_det003_set_order_escapes_into_scheduling(tmp_path):
    """Set iteration whose body calls — transitively — a scheduler:
    per-file SIM003 sees the loop, but only the graph sees the sink."""
    root = _project(tmp_path, {
        "repro/core/loopy.py": """
            from repro.core.emitter import announce

            def kick(sim, pids):
                for pid in set(pids):
                    announce(sim, pid)
            """,
        "repro/core/emitter.py": """
            def announce(sim, pid):
                sim.schedule_after(0.0, lambda: pid)
            """,
    })
    findings = _rules(root, "DET003")
    assert any("escapes into" in f.message for f in findings)


def test_det003_pure_set_loop_is_clean(tmp_path):
    root = _project(tmp_path, {
        "repro/core/pure.py": """
            def total(xs):
                acc = 0
                for x in set(xs):
                    acc += x
                return acc
            """,
    })
    assert _rules(root, "DET003") == []


# ---------------------------------------------------------------------------
# RACE001 — cross-process mutation outside kernel events
# ---------------------------------------------------------------------------

_PROCESS_STUB = """
    class SensorProcess:
        def crash(self, mode="recover"):
            pass

        def on_sense(self, var, value):
            pass
    """


def test_race001_unscheduled_cross_process_mutation(tmp_path):
    root = _project(tmp_path, {
        "repro/core/process.py": _PROCESS_STUB,
        "repro/faults/rogue.py": """
            from repro.core.process import SensorProcess

            def sabotage(victim: SensorProcess):
                victim.crash(mode="permanent")
            """,
    })
    (f,) = _rules(root, "RACE001")
    assert f.path.endswith("repro/faults/rogue.py")
    assert "kernel-scheduled" in f.message


def test_race001_scheduled_mutation_is_clean(tmp_path):
    """The same mutation reached through schedule_at (the injector
    pattern, lambda and all) is kernel-ordered and passes."""
    root = _project(tmp_path, {
        "repro/core/process.py": _PROCESS_STUB,
        "repro/faults/polite.py": """
            from repro.core.process import SensorProcess

            def apply_crash(victim: SensorProcess):
                victim.crash()

            def arm(sim, victim: SensorProcess):
                sim.schedule_at(1.0, lambda v=victim: apply_crash(v))
            """,
    })
    assert _rules(root, "RACE001") == []


# ---------------------------------------------------------------------------
# RACE002 — world reads outside the sense path
# ---------------------------------------------------------------------------


def test_race002_world_read_from_model_code(tmp_path):
    root = _project(tmp_path, {
        "repro/detect/peek.py": """
            def cheat(world, obj):
                return world.get(obj)
            """,
    })
    (f,) = _rules(root, "RACE002")
    assert "sense path" in f.message


def test_race002_oracle_side_read_is_allowed(tmp_path):
    root = _project(tmp_path, {
        "repro/analysis/judge.py": """
            def score(world, obj):
                return world.get(obj)
            """,
    })
    assert _rules(root, "RACE002") == []


# ---------------------------------------------------------------------------
# Graph/taint unit checks + src-level regression guards
# ---------------------------------------------------------------------------


def test_plane_of():
    assert plane_of("repro.net.transport") == "net"
    assert plane_of("repro.cli") == "cli"
    assert plane_of("repro") is None


def test_taint_propagates_through_call_chain(tmp_path):
    root = _project(tmp_path, {
        "repro/net/chain.py": """
            import numpy as np

            def c(rng):
                return rng.random()

            def b(stream):
                return c(stream)

            def a(seed):
                rng = np.random.default_rng(seed)
                return b(rng)
            """,
    })
    sources = {
        str(p): p.read_text() for p in sorted(Path(root).rglob("*.py"))
    }
    graph = ProjectGraph.build(sources)
    state = _propagate_taint(graph)
    assert "stream" in state.params.get("repro.net.chain.b", {})
    assert "rng" in state.params.get("repro.net.chain.c", {})


def test_project_rule_registry_is_complete():
    assert sorted(PROJECT_RULES) == ["DET002", "DET003", "RACE001", "RACE002"]


SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("rule", sorted(["DET002", "DET003", "RACE001", "RACE002"]))
def test_src_is_clean_per_project_rule(rule):
    """The fix sweep holds rule-by-rule (sharper failure than the
    aggregate self-clean test when one rule regresses)."""
    report = lint_paths([SRC], select=[rule])
    assert report.findings == [], report.render_text()
