"""Tier-1 checks of the end-to-end benchmark: every workload runs
in-process at toy sizes, through the same timed, traced and checked
paths the subprocess workers use."""

from __future__ import annotations

import re
import time

import pytest

from benchmarks.e2e import cli, config, harness, workloads

SEED = 1
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _make(name: str, work, references: "dict | None" = None):
    sizes = config.TOY_SIZES[name]
    inputs = workloads.WORKLOAD_CLASSES[name].prepare(SEED, sizes)
    return workloads.make(name, SEED, sizes, inputs, work, references or {})


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for name in config.WORKLOADS:
        wl = _make(name, tmp_path_factory.mktemp(name))
        t0 = time.perf_counter()
        wl.setup()
        setup_s = time.perf_counter() - t0
        untraced = harness.measure(wl, 0.0, min_reps=2)
        untraced["peak_rss_mb"] = harness.peak_rss_mb()
        out[name] = (setup_s, untraced, harness.traced(wl))
    return out


def test_every_emitted_metric_is_declared_with_a_unit(runs):
    for name, (setup_s, untraced, traced) in runs.items():
        e2e = cli.with_units(cli.end_to_end([setup_s], untraced), "end_to_end")
        layers = cli.with_units(cli.per_layer(traced, untraced), "per_layer")
        for metric, m in {**e2e, **layers}.items():
            assert NAME.fullmatch(metric), metric
            assert m["unit"], metric
        assert untraced["failed"] == traced["failed"] == 0, name


def test_undeclared_metric_is_refused():
    with pytest.raises(cli.BenchError, match="undeclared"):
        cli.with_units({"bogus": {"value": 1.0}}, "per_layer")


def test_layer_self_times_sum_to_the_rep_wall(runs):
    for name, (_, _, traced) in runs.items():
        shares = [v for k, v in traced["layers"].items() if k.endswith(".share")]
        assert sum(shares) == pytest.approx(1.0, abs=0.05), name
    hall = runs["hall_online"][2]["layers"]
    assert hall["sim.events"] > 0 and hall["net.messages"] > 0
    assert 0.0 < hall["detect.flush.useful_ratio"] <= 1.0
    serve, sizes = runs["serve_wal"][2]["layers"], config.TOY_SIZES["serve_wal"]
    checkpoints = sizes["records"] // sizes["checkpoint_every"] + 1
    assert serve["recover.checkpoint.calls"] == checkpoints >= 3
    assert serve["detect.snapshot.calls"] >= checkpoints
    assert serve["recover.checkpoint.share"] > 0.0


def _stored_wrong_digest(tmp_path):
    sizes = config.TOY_SIZES["stream_offline"]
    refs = {"stream_offline": {"sizes": sizes, "digests": {str(SEED): "0" * 16}}}
    return _make("stream_offline", tmp_path, refs)


def _planted(name: str, attr: str, value):
    def make(tmp_path):
        wl = _make(name, tmp_path)
        setattr(wl, attr, value)
        return wl
    return make


@pytest.mark.parametrize("make", [
    _stored_wrong_digest,
    _planted("hall_online", "emit_digest", "0" * 16),
    _planted("serve_wal", "reference", [[0, 0, "firm"]]),
])
def test_planted_wrong_reference_raises_error_rate(make, tmp_path):
    res = harness.measure(make(tmp_path), 0.0, min_reps=1)
    assert res["failed"] == res["attempted"] > 0


def _summary(median: float, iqr: float = 0.0) -> dict:
    return {"value": median, "median": median, "q1": median * (1 - iqr / 2),
            "q3": median * (1 + iqr / 2), "n": 10, "spread": iqr}


def test_compare_verdicts():
    assert cli.verdict(_summary(100), _summary(95), 0.1, "higher") == "ok"
    assert cli.verdict(_summary(100), _summary(85), 0.1, "higher") == "worse"
    assert cli.verdict(_summary(100), _summary(115), 0.1, "higher") == "better"
    assert cli.verdict(_summary(1.0), _summary(1.15), 0.1, "lower") == "worse"
    assert cli.verdict(_summary(1.0), _summary(0.85), 0.1, "lower") == "better"
    assert cli.verdict(_summary(100, 0.3), _summary(100), 0.1, "higher") == "unresolved"
    assert cli.verdict(_summary(100), _summary(60, 0.3), 0.1, "higher") == "unresolved"


def test_compare_flags_regressions_and_error_rate():
    def doc(scale: float, error_rate: float) -> dict:
        metrics = {m: _summary(100.0 * (scale if d["better"] == "lower" else 1 / scale))
                   for m, d in config.declared("end_to_end").items()}
        return {"workloads": {"hall_online": {"metrics": metrics, "error_rate": error_rate}}}

    rows, regressed = cli.compare(doc(1.0, 0.0), doc(1.0, 0.0))
    assert not regressed and {r["verdict"] for r in rows} == {"ok"}
    rows, regressed = cli.compare(doc(1.0, 0.0), doc(1.5, 0.0))
    assert regressed and "worse" in {r["verdict"] for r in rows}
    rows, regressed = cli.compare(doc(1.0, 0.0), doc(1.0, 0.01))
    assert regressed
    assert (rows[-1]["metric"], rows[-1]["verdict"]) == ("error_rate", "worse")
