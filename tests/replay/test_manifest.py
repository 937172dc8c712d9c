"""RunManifest / CounterfactualSpec: validation and bit-exact round-trips."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.plan import FaultEvent, FaultPlan
from repro.replay import CLOCK_FAMILIES, CounterfactualSpec, RunManifest, code_digest


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def plans():
    events = st.lists(
        st.one_of(
            st.builds(
                FaultEvent,
                st.floats(0.0, 100.0, allow_nan=False),
                st.just("crash"),
                st.just({"pid": 0, "mode": "recover"}),
                duration=st.floats(0.5, 20.0, allow_nan=False),
            ),
            st.builds(
                FaultEvent,
                st.floats(0.0, 100.0, allow_nan=False),
                st.just("strobe_perturb"),
                st.just({"pid": 1, "ticks": 2}),
            ),
        ),
        min_size=1, max_size=3,
    )
    return st.builds(FaultPlan, st.just("hyp"), events.map(tuple))


def manifests():
    return st.builds(
        RunManifest,
        scenario=st.sampled_from(["smart_office", "hall", "hospital"]),
        seed=st.integers(0, 2**31),
        duration=st.floats(1e-3, 1e4, allow_nan=False),
        delta=st.floats(0.0, 10.0, allow_nan=False),
        clock_family=st.sampled_from(CLOCK_FAMILIES),
        check_period=st.floats(1e-3, 10.0, allow_nan=False),
        capacity=st.integers(1, 1 << 20),
        liveness_horizon=st.one_of(
            st.none(), st.floats(1e-3, 100.0, allow_nan=False)
        ),
        plan=st.one_of(st.none(), plans()),
        code_digest=st.one_of(st.none(), st.just("ab" * 8)),
    )


def counterfactual_specs():
    liveness = st.one_of(
        st.just((None, False)),
        st.just((None, True)),
        st.floats(1e-3, 100.0, allow_nan=False).map(lambda v: (v, True)),
    )
    plan_axis = st.one_of(
        st.just((None, False)),
        st.just((None, True)),          # drop_plan
        plans().map(lambda p: (p, False)),
    )
    return st.builds(
        lambda family, delta, period, plan_drop, lh: CounterfactualSpec(
            clock_family=family, delta=delta, check_period=period,
            plan=plan_drop[0], drop_plan=plan_drop[1],
            liveness_horizon=lh[0], set_liveness_horizon=lh[1],
        ),
        st.one_of(st.none(), st.sampled_from(CLOCK_FAMILIES)),
        st.one_of(st.none(), st.floats(0.0, 10.0, allow_nan=False)),
        st.one_of(st.none(), st.floats(1e-3, 10.0, allow_nan=False)),
        plan_axis,
        liveness,
    )


# ---------------------------------------------------------------------------
# Round-trips (bit-exact: frozen dataclass equality through JSON)
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(manifests())
def test_manifest_json_round_trip(manifest):
    assert RunManifest.from_json(manifest.to_json()) == manifest


@settings(max_examples=50, deadline=None)
@given(counterfactual_specs())
def test_counterfactual_spec_json_round_trip(spec):
    assert CounterfactualSpec.from_json(spec.to_json()) == spec


@settings(max_examples=30, deadline=None)
@given(manifests(), counterfactual_specs())
def test_spec_apply_only_touches_named_axes(manifest, spec):
    swapped = spec.apply(manifest)
    assert swapped.scenario == manifest.scenario
    assert swapped.seed == manifest.seed
    assert swapped.duration == manifest.duration
    assert swapped.capacity == manifest.capacity
    if spec.clock_family is None:
        assert swapped.clock_family == manifest.clock_family
    else:
        assert swapped.clock_family == spec.clock_family
    if spec.drop_plan:
        assert swapped.plan is None
    elif spec.plan is None:
        assert swapped.plan == manifest.plan
    if spec.is_identity():
        assert swapped == manifest


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_manifest_validation():
    ok = dict(scenario="hall", seed=0, duration=10.0, delta=0.1)
    RunManifest(**ok)
    with pytest.raises(ValueError, match="clock family"):
        RunManifest(**ok, clock_family="sundial")
    with pytest.raises(ValueError, match="duration"):
        RunManifest(**{**ok, "duration": 0.0})
    with pytest.raises(ValueError, match="delta"):
        RunManifest(**{**ok, "delta": -1.0})
    with pytest.raises(ValueError, match="check_period"):
        RunManifest(**ok, check_period=0.0)
    with pytest.raises(ValueError, match="capacity"):
        RunManifest(**ok, capacity=0)
    with pytest.raises(ValueError, match="liveness_horizon"):
        RunManifest(**ok, liveness_horizon=-5.0)


def test_spec_validation():
    with pytest.raises(ValueError, match="clock family"):
        CounterfactualSpec(clock_family="sundial")
    with pytest.raises(ValueError, match="delta"):
        CounterfactualSpec(delta=-0.1)
    with pytest.raises(ValueError, match="check_period"):
        CounterfactualSpec(check_period=0.0)
    with pytest.raises(ValueError, match="mutually exclusive"):
        CounterfactualSpec(plan=FaultPlan("p", (FaultEvent(1.0, "heal"),)),
                           drop_plan=True)
    with pytest.raises(ValueError, match="set_liveness_horizon"):
        CounterfactualSpec(liveness_horizon=5.0)


@pytest.mark.parametrize("field", ["delta", "check_period", "liveness_horizon"])
@pytest.mark.parametrize("value", ["x", True, float("nan"), float("inf"), [0.1]])
def test_spec_decode_rejects_non_finite_numbers(field, value):
    """A JSON spec decodes NaN, booleans, strings and lists without
    complaint; each one is refused with ValueError, not a TypeError or
    a silently accepted value."""
    spec = {field: value, "set_liveness_horizon": field == "liveness_horizon"}
    with pytest.raises(ValueError, match=field):
        CounterfactualSpec.from_spec(spec)
    text = json.dumps(spec)   # NaN and Infinity survive the JSON path too
    with pytest.raises(ValueError, match=field):
        CounterfactualSpec.from_json(text)


@pytest.mark.parametrize("field, value", [
    ("delta", float("nan")), ("duration", float("inf")), ("check_period", True),
    ("liveness_horizon", float("-inf")), ("delta", "0.1"), ("seed", 3.9),
    ("seed", True), ("capacity", 64.0), ("scenario", 7), ("seed", None),
])
def test_manifest_decode_is_type_exact(field, value):
    spec = RunManifest("hall", 3, duration=10.0, delta=0.1).to_spec()
    with pytest.raises(ValueError, match=field):
        RunManifest.from_spec({**spec, field: value})


@pytest.mark.parametrize("field", ["drop_plan", "set_liveness_horizon"])
@pytest.mark.parametrize("value", ["no", "false", 0, 1])
def test_spec_decode_takes_json_booleans_only(field, value):
    with pytest.raises(ValueError, match=field):
        CounterfactualSpec.from_spec({field: value})


def test_spec_identity():
    assert CounterfactualSpec().is_identity()
    assert not CounterfactualSpec(clock_family="physical").is_identity()
    assert not CounterfactualSpec(drop_plan=True).is_identity()
    assert not CounterfactualSpec(set_liveness_horizon=True).is_identity()


def test_code_digest_is_stable_hex():
    a, b = code_digest(), code_digest()
    assert a == b
    assert len(a) == 16
    int(a, 16)
