"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_hall_runs(capsys):
    rc = main(["hall", "--doors", "2", "--duration", "30", "--delta", "0.1",
               "--detectors", "vector"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "true occurrences" in out
    assert "vector" in out


def test_hall_synchronous_delta_zero(capsys):
    rc = main(["hall", "--doors", "2", "--duration", "20", "--delta", "0",
               "--detectors", "vector", "scalar"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scalar" in out


def test_office_runs(capsys):
    rc = main(["office", "--duration", "100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "thermostat actuations" in out


def test_hospital_runs(capsys):
    rc = main(["hospital", "--duration", "40", "--visitors", "6"])
    assert rc == 0
    assert "waiting room" in capsys.readouterr().out


def test_habitat_runs(capsys):
    rc = main(["habitat", "--duration", "60"])
    assert rc == 0
    assert "effective Δ" in capsys.readouterr().out


def test_clocks_runs(capsys):
    rc = main(["clocks", "--n", "2", "--events", "2", "--delta", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lamport" in out and "strobe_vector" in out


def test_unknown_detector_rejected():
    with pytest.raises(SystemExit):
        main(["hall", "--detectors", "quantum"])


def test_obs_run_console(capsys):
    rc = main(["obs", "run", "smart_office", "--duration", "30"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kernel.events_fired" in out
    assert "net.sent" in out
    assert "scenario.run" in out


def test_obs_run_jsonl_has_all_metric_families(tmp_path, capsys):
    from repro.obs.exporters import read_jsonl, registry_from_jsonl

    out_path = tmp_path / "obs.jsonl"
    rc = main(["obs", "run", "smart_office", "--duration", "40",
               "--export", "jsonl", "--out", str(out_path)])
    assert rc == 0
    events = read_jsonl(out_path)
    assert events[0]["meta"]["scenario"] == "smart_office"
    names = {ev["name"] for ev in events if ev["kind"] == "metric"}
    for family in ("kernel.", "net.", "clock.", "detect."):
        assert any(n.startswith(family) for n in names), family
    # Dual stamps on every metric and sample line.
    for ev in events:
        if ev["kind"] in ("metric", "sample"):
            assert "t_sim" in ev and "t_wall" in ev
    reg = registry_from_jsonl(events)
    assert reg.get("kernel.events_fired").value > 0


def test_obs_run_csv(tmp_path, capsys):
    out_path = tmp_path / "obs.csv"
    rc = main(["obs", "run", "hall", "--duration", "30",
               "--export", "csv", "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("name,type,")
    assert any(line.startswith("net.sent,counter,") for line in lines)


def test_obs_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["obs", "run", "atlantis"])


LINT_BAD = "import time\nt = time.time()\n"


def test_lint_clean_file_exits_zero(tmp_path, capsys):
    path = tmp_path / "ok.py"
    path.write_text("x = 1\n")
    assert main(["lint", str(path)]) == 0
    assert "clean: 1 file(s) checked" in capsys.readouterr().out


def test_lint_violation_exits_one_with_rule_id(tmp_path, capsys):
    path = tmp_path / "bad.py"
    path.write_text(LINT_BAD)
    assert main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    assert "SIM001" in out and "bad.py:2:" in out


def test_lint_json_schema(tmp_path, capsys):
    import json

    path = tmp_path / "bad.py"
    path.write_text(LINT_BAD)
    assert main(["lint", str(path), "--json", "--no-cache"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 3
    assert doc["tool"] == "repro-lint"
    assert doc["files_checked"] == 1
    assert doc["clean"] is False
    assert doc["counts"] == {"SIM001": 1}
    assert doc["suppressed"] == {}
    assert "baselined" not in doc
    assert doc["warnings"] == []
    (finding,) = doc["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message"}
    assert finding["rule"] == "SIM001"
    assert finding["line"] == 2


def test_lint_select_filters_rules(tmp_path, capsys):
    path = tmp_path / "bad.py"
    path.write_text(LINT_BAD)
    assert main(["lint", str(path), "--select", "DET001"]) == 0
    capsys.readouterr()


def test_lint_unknown_rule_exits_two(tmp_path, capsys):
    path = tmp_path / "ok.py"
    path.write_text("x = 1\n")
    assert main(["lint", str(path), "--select", "NOPE123"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("SIM001", "SIM002", "SIM003", "CLK001", "DET001", "OBS001"):
        assert rule_id in out


def test_lint_repo_src_is_clean(capsys):
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    assert main(["lint", str(src)]) == 0
    capsys.readouterr()


def test_hall_export_bundle(tmp_path, capsys):
    from repro.analysis.export import load_run
    out_path = tmp_path / "run.json"
    rc = main(["hall", "--doors", "2", "--duration", "30", "--delta", "0.1",
               "--detectors", "vector", "--export", str(out_path)])
    assert rc == 0
    bundle = load_run(out_path)
    assert bundle["meta"]["scenario"] == "hall"
    assert len(bundle["records"]) > 0
