"""Differential tests for the batched offline race evaluation.

``VectorStrobeDetector.finalize`` evaluates the whole linearization in
array passes when the predicate has an array evaluator and every value
of a predicate variable is a finite number that float64 holds exactly;
otherwise it replays record by record.  These tests run a twin detector
forced onto the per-record path and require equal detections (trigger,
label, ``env`` and ``detail``) on random streams: random weights
(negative and zero included), variables the predicate does not read,
clock resets that cut chains, race fractions up to 0.95 and combination
caps as low as 4, so rows beyond the cap and "too tangled" rows occur.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.vector import VectorTimestamp
from repro.core.records import SensedEventRecord
from repro.detect.strobe_vector import VectorStrobeDetector
from repro.predicates.relational import RelationalPredicate, SumThresholdPredicate
from repro.sweep.points import synth_records, throughput_predicate

#: Ints, floats whose sums round, and bools: all exact in float64.
VALUES = [0, 1, 2, 3, 7, -2, 0.1, 0.2, 0.7, 2.5, -0.3, True, False]


class Spy(VectorStrobeDetector):
    """Records whether finalize took the batched path and what the
    exact per-record race analysis returned on its cap rows."""

    batched = None

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.exact: list = []

    def _truth_arrays(self, *args):
        out = super()._truth_arrays(*args)
        self.batched = out is not None
        return out

    def _race_results(self, *args):
        out = super()._race_results(*args)
        self.exact.append(out)
        return out


def stream(rnd, n, m, resets, race_frac, extra_frac, values):
    """``m`` records of ``n`` strobe-vector processes.  A strobe reaches
    each peer before the next step, or 1–3 steps late with probability
    ``race_frac``.  At ``resets`` random steps a process reboots its
    clock to zero (a new chain).  With probability ``extra_frac`` a
    record writes ``u<pid>``, which the predicate does not read."""
    vecs = [[0] * n for _ in range(n)]
    seqs = [0] * n
    in_flight: list[tuple[int, int, tuple]] = []
    reset_steps = set(rnd.sample(range(m), min(resets, m)))
    records = []
    for step in range(m):
        for _, dst, stamp in [s for s in in_flight if s[0] <= step]:
            vecs[dst] = [max(a, b) for a, b in zip(vecs[dst], stamp)]
        in_flight = [s for s in in_flight if s[0] > step]
        if step in reset_steps:
            vecs[rnd.randrange(n)] = [0] * n
        i = rnd.randrange(n)
        vecs[i][i] += 1
        seqs[i] += 1
        var = f"u{i}" if rnd.random() < extra_frac else f"v{i}"
        records.append(SensedEventRecord(
            pid=i, seq=seqs[i], var=var, value=rnd.choice(values),
            strobe_vector=VectorTimestamp(vecs[i]), true_time=float(step),
        ))
        for j in range(n):
            if j != i:
                late = rnd.random() < race_frac
                in_flight.append(
                    (step + (rnd.randrange(1, 4) if late else 0), j, tuple(vecs[i]))
                )
    return records


@st.composite
def cases(draw):
    n = draw(st.integers(1, 4))
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    records = stream(
        rnd, n, m=draw(st.integers(0, 80)), resets=draw(st.integers(0, 3)),
        race_frac=draw(st.floats(0.0, 0.95)),
        extra_frac=draw(st.sampled_from([0.0, 0.3])),
        values=VALUES,
    )
    weight = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -2.5]),
        st.floats(-4.0, 4.0, allow_nan=False),
    )
    phi = SumThresholdPredicate(
        [(f"v{k}", k, draw(weight)) for k in range(n)],
        draw(st.floats(-10.0, 20.0, allow_nan=False)),
    )
    initials = {f"v{k}": rnd.choice(VALUES) for k in range(n)}
    if draw(st.booleans()):
        initials.update({f"u{k}": rnd.choice(VALUES) for k in range(n)})
    cap = draw(st.sampled_from([4, 16, 4096]))
    return records, phi, initials, cap


def run(cls, records, phi, initials, cap=4096, *, batched=True):
    det = cls(phi, initials, max_race_combos=cap)
    if not batched:
        det._eval._array = None                  # force the per-record path
    det.feed_many(records)
    return det


def outcome(det):
    """Detections as comparable tuples, or the exception type raised."""
    try:
        detections = det.finalize()
    except TypeError as exc:                     # non-numeric values
        return type(exc)
    return [
        (d.trigger.key(), d.label, d.env, list(d.env), d.detail, list(d.detail))
        for d in detections
    ]


@settings(max_examples=150, deadline=None)
@given(cases())
def test_batched_finalize_matches_per_record(case):
    records, phi, initials, cap = case
    got = run(Spy, records, phi, initials, cap)
    want = run(VectorStrobeDetector, records, phi, initials, cap, batched=False)
    assert outcome(got) == outcome(want)
    assert got.batched


@pytest.mark.parametrize("seed, extra_frac", [(3, 0.0), (27, 0.6)])
def test_cap_rows_take_the_exact_path(seed, extra_frac):
    """At race_frac 0.95 and cap 4 some rows exceed the cap and some of
    those are too tangled (None), in both paths alike; variables φ does
    not read count toward the cap."""
    records = stream(random.Random(seed), 3, 200, 1, 0.95, extra_frac, [0, 1, 2])
    phi = SumThresholdPredicate([(f"v{k}", k, 1.0) for k in range(3)], 2)
    initials = {f"v{k}": 0 for k in range(3)}
    got = run(Spy, records, phi, initials, cap=4)
    want = run(VectorStrobeDetector, records, phi, initials, cap=4, batched=False)
    assert outcome(got) == outcome(want)
    assert got.batched
    assert None in got.exact
    assert any(r is not None for r in got.exact)


@pytest.mark.parametrize("bad", [
    math.nan, None, "3", 2 ** 53 + 1, 2 ** 60, math.inf,
], ids=["nan", "none", "str", "int-2^53+1", "int-2^60", "inf"])
@pytest.mark.parametrize("where", ["record", "initial"])
def test_inexact_values_take_the_per_record_path(bad, where):
    """A value that is not a finite number, or an int of magnitude 2^53
    or more, sends the whole finalize down the per-record path, which
    decides the outcome (detections, or the error it raises)."""
    records = synth_records(300, n=3, seed=1, race_frac=0.5)
    phi, initials = throughput_predicate(3), {f"v{i}": 0 for i in range(3)}
    if where == "record":
        records[150] = dataclasses.replace(records[150], value=bad)
    else:
        initials["v1"] = bad
    got = run(Spy, records, phi, initials)
    want = run(VectorStrobeDetector, records, phi, initials, batched=False)
    assert outcome(got) == outcome(want)
    assert got.batched is False


def test_relational_predicate_never_reaches_the_array_evaluator(monkeypatch):
    """A lambda predicate has no array form: finalize never enters the
    batched truth phase."""
    phi = RelationalPredicate(
        {f"v{i}": i for i in range(4)},
        lambda e: sum(e[f"v{i}"] for i in range(4)) > 18,
    )
    assert phi.interval_array_evaluator() is None

    def refuse(self, *args):
        raise AssertionError("batched truth phase reached")

    monkeypatch.setattr(VectorStrobeDetector, "_truth_arrays", refuse)
    det = run(VectorStrobeDetector, synth_records(400), phi,
              {f"v{i}": 0 for i in range(4)})
    assert det.finalize()

