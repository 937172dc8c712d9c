"""Per-rule fixtures: one snippet that triggers each rule, one that is
clean — the contract demanded by docs/static_analysis.md."""

import textwrap

import pytest

from repro.lint import lint_source


def findings(source, path="src/repro/fake/mod.py", **kw):
    return lint_source(textwrap.dedent(source), path, **kw)


def rule_ids(source, path="src/repro/fake/mod.py", **kw):
    return [f.rule for f in findings(source, path, **kw)]


# ---------------------------------------------------------------------------
# SIM001 — wall clock / global RNG
# ---------------------------------------------------------------------------

class TestSIM001:
    def test_time_time_flagged(self):
        out = findings("""
            import time
            def stamp():
                return time.time()
        """)
        assert [f.rule for f in out] == ["SIM001"]
        assert out[0].line == 4

    def test_from_import_alias_flagged(self):
        assert rule_ids("""
            from time import perf_counter as pc
            t0 = pc()
        """) == ["SIM001"]

    def test_datetime_now_flagged(self):
        assert rule_ids("""
            from datetime import datetime
            stamp = datetime.now()
        """) == ["SIM001"]

    def test_global_random_flagged(self):
        assert rule_ids("""
            import random
            x = random.random()
        """) == ["SIM001"]

    def test_legacy_numpy_global_flagged(self):
        assert rule_ids("""
            import numpy as np
            x = np.random.rand(3)
        """) == ["SIM001"]

    def test_obs_package_allowlisted(self):
        assert rule_ids("""
            import time
            t_wall = time.time()
        """, path="src/repro/obs/exporters.py") == []

    def test_sim_time_clean(self):
        assert rule_ids("""
            def stamp(sim):
                return sim.now
        """) == []


# ---------------------------------------------------------------------------
# SIM002 — ad-hoc RNG construction
# ---------------------------------------------------------------------------

class TestSIM002:
    @pytest.mark.parametrize("source, line", [
        ("""
            import numpy as np
            rng = np.random.default_rng(7)
        """, 3),
        ("""
            import numpy as np

            def build(seed):
                return np.random.default_rng(seed)
        """, 5),
    ], ids=["literal-seed", "seed-param"])
    def test_default_rng_literal_seed_flagged(self, source, line):
        assert [(f.rule, f.line) for f in findings(source)] == [("SIM002", line)]

    def test_random_random_instance_flagged(self):
        assert rule_ids("""
            import random
            rng = random.Random(3)
        """) == ["SIM002"]

    def test_substream_seeded_clean(self):
        assert rule_ids("""
            import numpy as np
            from repro.sim.rng import substream_seed
            rng = np.random.default_rng(substream_seed(0, "net", "delay"))
        """) == []

    def test_rng_module_itself_exempt(self):
        assert rule_ids("""
            import numpy as np
            gen = np.random.default_rng(12345)
        """, path="src/repro/sim/rng.py") == []


# ---------------------------------------------------------------------------
# SIM003 — unordered iteration
# ---------------------------------------------------------------------------

class TestSIM003:
    @pytest.mark.parametrize("source, line", [
        ("""
            for x in {1, 2, 3}:
                print(x)
        """, 2),
        ("""
            for x in {3, 1, 2}:
                print(x)
        """, 2),
        ("""
            s = {1, 2}
            xs = [x for x in s]
        """, 3),
    ], ids=["literal", "unsorted-literal", "set-name-comprehension"])
    def test_set_literal_loop_flagged(self, source, line):
        assert [(f.rule, f.line) for f in findings(source)] == [("SIM003", line)]

    def test_set_call_loop_flagged(self):
        assert rule_ids("""
            def f(xs):
                for x in set(xs):
                    yield x
        """) == ["SIM003"]

    def test_set_typed_name_flagged(self):
        assert rule_ids("""
            def f(xs):
                pending: set[int] = set()
                pending.update(xs)
                for p in pending:
                    yield p
        """) == ["SIM003"]

    def test_set_intersection_comprehension_flagged(self):
        assert rule_ids("""
            def f(a, b):
                return [v for v in set(a) & set(b)]
        """) == ["SIM003"]

    @pytest.mark.parametrize("source", [
        """
            def f(xs):
                for x in sorted(set(xs)):
                    yield x
        """,
        """
            for x in {1, 2}:  # repro: noqa SIM003 -- order-free fold
                pass
        """,
    ], ids=["sorted", "noqa"])
    def test_sorted_set_clean(self, source):
        assert rule_ids(source) == []

    def test_list_iteration_clean(self):
        assert rule_ids("""
            def f(xs):
                for x in xs:
                    yield x
        """) == []


# ---------------------------------------------------------------------------
# CLK001 — total order on partial-order timestamps
# ---------------------------------------------------------------------------

class TestCLK001:
    def test_vector_attribute_comparison_flagged(self):
        assert rule_ids("""
            def later(a, b):
                return a.vector > b.vector
        """) == ["CLK001"]

    def test_vts_name_comparison_flagged(self):
        assert rule_ids("""
            def check(vts, other_vts):
                if vts < other_vts:
                    return True
        """) == ["CLK001"]

    def test_sorting_timestamps_flagged(self):
        assert rule_ids("""
            def order(records):
                vts = [r.vector for r in records]
                return sorted(vts)
        """) == ["CLK001"]

    def test_compare_helper_clean(self):
        assert rule_ids("""
            from repro.clocks.vector import compare
            def classify(a, b):
                return compare(a.vector, b.vector)
        """) == []

    def test_clocks_package_exempt(self):
        assert rule_ids("""
            def dominates(vts, other_vts):
                return vts < other_vts
        """, path="src/repro/clocks/helpers.py") == []

    def test_plain_number_comparison_clean(self):
        assert rule_ids("""
            def cmp(a, b):
                return a.value < b.value
        """) == []


# ---------------------------------------------------------------------------
# DET001 — mutable defaults
# ---------------------------------------------------------------------------

class TestDET001:
    def test_list_default_flagged(self):
        assert rule_ids("""
            def collect(x, acc=[]):
                acc.append(x)
                return acc
        """) == ["DET001"]

    def test_kwonly_dict_default_flagged(self):
        assert rule_ids("""
            def configure(*, options={}):
                return options
        """) == ["DET001"]

    def test_set_call_default_flagged(self):
        assert rule_ids("""
            def track(seen=set()):
                return seen
        """) == ["DET001"]

    def test_none_default_clean(self):
        assert rule_ids("""
            def collect(x, acc=None):
                acc = [] if acc is None else acc
                acc.append(x)
                return acc
        """) == []


# ---------------------------------------------------------------------------
# OBS001 — active observability
# ---------------------------------------------------------------------------

class TestOBS001:
    OBS_PATH = "src/repro/obs/hook.py"

    def test_scheduling_from_obs_flagged(self):
        assert rule_ids("""
            def install(sim, registry):
                sim.schedule_after(1.0, lambda: registry.sample(sim.now, 0.0))
        """, path=self.OBS_PATH, select=["OBS001"]) == ["OBS001"]

    def test_rng_from_obs_flagged(self):
        assert rule_ids("""
            import numpy as np
            jitter_rng = np.random.default_rng(1)
        """, path=self.OBS_PATH, select=["OBS001"]) == ["OBS001"]

    def test_passive_hook_clean(self):
        assert rule_ids("""
            def install(sim, registry):
                sim.add_post_hook(lambda ev: registry.counter("fired").inc())
        """, path=self.OBS_PATH, select=["OBS001"]) == []

    def test_rule_scoped_to_obs_package(self):
        assert rule_ids("""
            def install(sim):
                sim.schedule_after(1.0, lambda: None)
        """, path="src/repro/net/mod.py", select=["OBS001"]) == []
