"""FaultPlan / FaultEvent: validation, expansion, windows, round-trips."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.plan import (
    ACTIONS,
    PAIRED,
    FaultError,
    FaultEvent,
    FaultPlan,
)


def test_event_validation():
    with pytest.raises(FaultError):
        FaultEvent(1.0, "meteor_strike")
    with pytest.raises(FaultError):
        FaultEvent(-1.0, "crash")
    with pytest.raises(FaultError):
        FaultEvent(1.0, "restart", duration=5.0)      # unpaired action
    with pytest.raises(FaultError):
        FaultEvent(1.0, "crash", duration=0.0)
    with pytest.raises(FaultError):
        FaultEvent(1.0, "crash", duration=-3.0)


def test_paired_actions_are_a_subset_of_actions():
    assert set(PAIRED) <= ACTIONS
    assert set(PAIRED.values()) <= ACTIONS


def test_clear_event():
    ev = FaultEvent(10.0, "partition", {"groups": [[0], [1]]}, duration=5.0)
    clear = ev.clear_event()
    assert clear.action == "heal"
    assert clear.time == 15.0
    assert clear.params == ev.params
    assert clear.duration is None
    assert FaultEvent(1.0, "heal").clear_event() is None


def test_plan_needs_name():
    with pytest.raises(FaultError):
        FaultPlan("")


def test_expanded_orders_by_time_with_auto_clears():
    plan = FaultPlan("p", (
        FaultEvent(50.0, "burst_loss", {"p_bad": 1.0}, duration=10.0),
        FaultEvent(40.0, "crash", {"pid": 1, "mode": "recover"}, duration=25.0),
    ))
    actions = [(e.time, e.action) for e in plan.expanded()]
    assert actions == [
        (40.0, "crash"),
        (50.0, "burst_loss"),
        (60.0, "burst_loss_end"),
        (65.0, "restart"),
    ]


def test_windows_pair_durations_and_instants():
    plan = FaultPlan("p", (
        FaultEvent(10.0, "crash", {"pid": 0, "mode": "recover"}, duration=5.0),
        FaultEvent(20.0, "strobe_perturb", {"pid": 1, "ticks": 2}),
    ))
    wins = plan.windows()
    assert [(w.action, w.start, w.clear) for w in wins] == [
        ("crash", 10.0, 15.0),
        ("strobe_perturb", 20.0, 20.0),
    ]


def test_windows_match_explicit_clears_by_pid():
    plan = FaultPlan("p", (
        FaultEvent(10.0, "crash", {"pid": 0, "mode": "recover"}),
        FaultEvent(12.0, "crash", {"pid": 1, "mode": "recover"}),
        FaultEvent(20.0, "restart", {"pid": 0}),
        FaultEvent(30.0, "restart", {"pid": 1}),
    ))
    wins = {w.params["pid"]: w for w in plan.windows()}
    assert wins[0].clear == 20.0
    assert wins[1].clear == 30.0


def test_windows_unmatched_start_stays_open():
    plan = FaultPlan("p", (FaultEvent(10.0, "partition", {"groups": [[0], [1]]}),))
    (w,) = plan.windows()
    assert w.clear == float("inf")


def test_plan_addition_concatenates():
    a = FaultPlan("a", (FaultEvent(1.0, "heal"),))
    b = FaultPlan("b", (FaultEvent(2.0, "heal"),))
    c = a + b
    assert c.name == "a+b"
    assert len(c) == 2
    assert [e.time for e in c] == [1.0, 2.0]


def test_json_roundtrip_and_canonical_form():
    plan = FaultPlan("rt", (
        FaultEvent(40.0, "crash", {"pid": 1, "mode": "recover"}, duration=12.0),
        FaultEvent(95.0, "burst_loss", {"p_bad": 0.9, "start_bad": True},
                   duration=10.0),
    ))
    text = plan.to_json()
    assert FaultPlan.from_json(text) == plan
    # Canonical: sorted keys, no whitespace — re-encoding is a no-op.
    assert json.dumps(json.loads(text), sort_keys=True,
                      separators=(",", ":")) == text


def test_from_spec_rejects_unknown_keys():
    with pytest.raises(FaultError):
        FaultPlan.from_spec({"name": "x", "events": [], "extra": 1})
    with pytest.raises(FaultError):
        FaultEvent.from_spec({"time": 1.0, "action": "crash", "oops": True})
    with pytest.raises(FaultError):
        FaultEvent.from_spec({"action": "crash"})


_NOT_FINITE = ["x", None, [1.0], {"t": 1}, True, float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("value", _NOT_FINITE)
def test_event_rejects_non_finite_time_and_duration(value):
    with pytest.raises(FaultError, match="time"):
        FaultEvent.from_spec({"time": value, "action": "crash"})
    if value is not None:          # None means "no duration"
        with pytest.raises(FaultError, match="duration"):
            FaultEvent.from_spec({"time": 1.0, "action": "crash", "duration": value})


@pytest.mark.parametrize("params", [None, [1, 2], "pid", 3])
def test_event_rejects_non_mapping_params(params):
    with pytest.raises(FaultError, match="params"):
        FaultEvent.from_spec({"time": 1.0, "action": "crash", "params": params})


@pytest.mark.parametrize("text", [
    "[]",
    '{"name": "p", "events": 5}',
    '{"name": "p", "events": [5]}',
    '{"name": ["p"], "events": []}',
    '{"name": "p", "events": [{"time": 1.0, "action": ["crash"]}]}',
])
def test_from_json_rejects_malformed_shapes(text):
    with pytest.raises(FaultError):
        FaultPlan.from_json(text)


def test_numpy_and_int_times_are_accepted():
    import numpy as np
    ev = FaultEvent.from_spec({"time": np.float64(2.5), "action": "crash",
                               "duration": 3})
    assert (ev.time, ev.duration) == (2.5, 3.0)
    assert type(ev.time) is float and type(ev.duration) is float


@pytest.mark.parametrize("command", [
    ["chaos", "--duration", "20"],
    ["trace", "record", "hall", "--duration", "20"],
])
@pytest.mark.parametrize("time", ['"x"', "NaN", "null", "[1]"])
def test_cli_rejects_bad_plan_time_in_one_line(command, time, tmp_path, capsys):
    from repro.cli import main

    plan = tmp_path / "plan.json"
    plan.write_text(
        '{"name": "p", "events": [{"time": %s, "action": "crash", '
        '"params": {"pid": 1}}]}' % time
    )
    argv = [*command, "--plan", str(plan)]
    if command[0] == "trace":
        argv += ["--out", str(tmp_path / "x.trace")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "fault 'time'" in err, err
    assert not (tmp_path / "x.trace").exists()


@pytest.mark.parametrize("event, message", [
    ({"action": "strobe_perturb", "params": {"pid": "zz"}}, "'pid'"),
    ({"action": "strobe_perturb", "params": {"pid": 0, "clock": "neither"}}, "'clock'"),
    ({"action": "partition", "params": {"groups": [[0], ["a"]]}}, "'groups'"),
    ({"action": "partition", "params": {}}, "groups"),
    ({"action": "burst_loss", "params": {"p_bad": 1.5}}, "'p_bad'"),
    ({"action": "clock_drift", "params": {"pid": 0, "delta_ppm": "x"}}, "'delta_ppm'"),
    ({"action": "crash", "params": {"pid": 1}, "time": 1e308, "duration": 1e308},
     "clear time"),
])
def test_trace_record_checks_the_plan_at_decode(event, message, tmp_path, capsys):
    """Each of these used to pass decode and fail when the fault fired,
    with a traceback from inside the simulation."""
    from repro.cli import main

    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "p", "events": [{"time": 1.0, **event}]}))
    out = tmp_path / "x.trace"
    assert main(["trace", "record", "hall", "--duration", "5", "--plan", str(plan),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err, err
    assert not out.exists()


_paired = sorted(PAIRED)
_instant = sorted(ACTIONS - set(PAIRED) - set(PAIRED.values()))


@st.composite
def _events(draw):
    action = draw(st.sampled_from(_paired + _instant))
    duration = None
    if action in PAIRED and draw(st.booleans()):
        duration = draw(st.floats(0.5, 50.0, allow_nan=False))
    params = draw(st.fixed_dictionaries({}, optional={
        "pid": st.integers(0, 7),
        "ticks": st.integers(1, 5),
        "p_bad": st.floats(0.0, 1.0, allow_nan=False),
        "mode": st.sampled_from(["stop", "recover"]),
        "note": st.text(st.characters(codec="ascii"), max_size=5),
    }))
    if action == "partition":
        params["groups"] = draw(st.lists(st.lists(st.integers(0, 7)), max_size=3))
    time = draw(st.floats(0.0, 1000.0, allow_nan=False))
    return FaultEvent(time, action, params, duration=duration)


@settings(max_examples=60, deadline=None)
@given(st.lists(_events(), max_size=6).map(tuple))
def test_property_plan_json_roundtrip(events):
    plan = FaultPlan("prop", events)
    assert FaultPlan.from_json(plan.to_json()) == plan
    # expanded() is deterministic and monotone in time.
    times = [e.time for e in plan.expanded()]
    assert times == sorted(times)
