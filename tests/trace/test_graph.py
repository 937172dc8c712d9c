"""CausalGraph: happens-before edges, causal paths, latency attribution."""

import pytest

from repro.trace.graph import CausalGraph, TraceError
from repro.trace.recorder import TraceEvent

D = "d" * 16          # shared record digest
D2 = "e" * 16


def _ev(pid, gseq, kind, t, digest=D, **kw):
    return TraceEvent(pid=pid, gseq=gseq, kind=kind, t=t, digest=digest, **kw)


@pytest.fixture()
def chain():
    """p1 senses; strobe forwarded p1 -> p2 -> p0 (two hops)."""
    return [
        _ev(1, 1, "n", 1.0, key=(1, 1)),
        _ev(1, 2, "s", 1.0, mid=0, src=1, dst=2, msg_kind="strobe"),
        _ev(2, 3, "r", 1.2, mid=0, src=1, dst=2, msg_kind="strobe"),
        _ev(2, 4, "s", 1.2, mid=1, src=2, dst=0, msg_kind="strobe"),
        _ev(0, 5, "r", 1.5, mid=1, src=2, dst=0, msg_kind="strobe"),
        _ev(0, 6, "c", 2.0, digest=D2),
    ]


def test_local_and_message_edges(chain):
    g = CausalGraph(chain)
    assert len(g) == 6
    # local: (1->2), (3->4), (5->6); message: (2->3), (4->5)
    assert g.n_edges() == 5


def test_causal_history_is_the_past_cone(chain):
    g = CausalGraph(chain)
    hist = [e.gseq for e in g.causal_history(6)]
    assert hist == [1, 2, 3, 4, 5, 6]
    assert [e.gseq for e in g.causal_history(3)] == [1, 2, 3]


def test_causal_future(chain):
    g = CausalGraph(chain)
    assert [e.gseq for e in g.causal_future(1)] == [1, 2, 3, 4, 5, 6]
    assert [e.gseq for e in g.causal_future(6)] == [6]


def test_unknown_gseq_raises(chain):
    with pytest.raises(TraceError):
        CausalGraph(chain).event(99)


def test_causal_path_multi_hop(chain):
    g = CausalGraph(chain)
    path = [e.gseq for e in g.causal_path((1, 1), host=0)]
    assert path == [1, 2, 3, 4, 5]


def test_causal_path_local_record(chain):
    g = CausalGraph(chain + [_ev(0, 7, "n", 3.0, digest=D2, key=(0, 1))])
    assert [e.gseq for e in g.causal_path((0, 1), host=0)] == [7]


def test_causal_path_missing_delivery_raises():
    g = CausalGraph([
        _ev(1, 1, "n", 1.0, key=(1, 1)),
        _ev(1, 2, "s", 1.0, mid=0, src=1, dst=0, msg_kind="strobe"),
        _ev(0, 3, "drop", 1.1, mid=0, src=1, dst=0, msg_kind="strobe",
            drop="loss"),
    ])
    with pytest.raises(TraceError, match="never delivered"):
        g.causal_path((1, 1), host=0)


def test_drop_events_induce_no_local_order():
    # A drop at p0 between two locally-recorded events must not chain
    # them through the drop (the message never happened at p0).
    g = CausalGraph([
        _ev(1, 1, "s", 1.0, mid=0, src=1, dst=0, msg_kind="strobe"),
        _ev(0, 2, "drop", 1.1, mid=0, src=1, dst=0, msg_kind="strobe",
            drop="loss"),
        _ev(0, 3, "c", 2.0, digest=D2),
    ])
    hist = [e.gseq for e in g.causal_history(3)]
    assert hist == [3]                      # not [1, 2, 3]
    # but the drop itself hangs off its send:
    assert [e.gseq for e in g.causal_history(2)] == [1, 2]


def test_attribute_latency_segments_sum(chain):
    g = CausalGraph(chain)
    att = g.attribute_latency({
        "trigger": [1, 1], "host": 0, "emit_time": 2.4,
    })
    assert att["hops"] == 2
    assert att["compute_s"] == 0.0
    assert att["queue_s"] == pytest.approx(0.0)
    assert att["transport_s"] == pytest.approx(0.5)      # 1.0 -> 1.5
    assert att["sync_s"] == pytest.approx(0.9)           # 1.5 -> 2.4
    total = att["compute_s"] + att["queue_s"] + att["transport_s"] + att["sync_s"]
    assert total == pytest.approx(att["total_s"]) == pytest.approx(1.4)


def test_attribute_latency_local_detection(chain):
    g = CausalGraph(chain + [_ev(0, 7, "n", 3.0, digest=D2, key=(0, 1))])
    att = g.attribute_latency({
        "trigger": [0, 1], "host": 0, "emit_time": 3.5,
    })
    assert att["hops"] == 0
    assert att["transport_s"] == 0.0
    assert att["sync_s"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Acceptance: a FIRM detection's causal path IS the message chain the
# detector consumed (hall fixture).
# ---------------------------------------------------------------------------

def test_firm_detection_causal_path_matches_consumed_chain(hall_run, hall_arrivals):
    from tests.trace.conftest import HOST

    _, _, rec = hall_run
    graph = CausalGraph(rec.events())
    firm_remote = [
        d for d in rec.detections
        if d["label"] == "firm" and d["trigger"][0] != HOST
    ]
    assert firm_remote, "fixture run must produce a remote FIRM detection"
    for d in firm_remote:
        key = tuple(d["trigger"])
        path = graph.causal_path(key, HOST)
        sense, hops = path[0], path[1:]
        assert sense.kind == "n" and sense.key == key
        assert sense.pid == key[0]
        # Alternating send/receive pairs, every hop carrying the
        # record's digest, mids pairing each receive with its send.
        assert len(hops) % 2 == 0 and hops
        for send, recv in zip(hops[::2], hops[1::2]):
            assert send.kind == "s" and recv.kind == "r"
            assert send.mid == recv.mid
            assert send.digest == sense.digest == recv.digest
        assert path[-1].pid == HOST
        # The chain ends at the exact delivery the detector consumed:
        # its arrival time is the record's first delivery at the host,
        # which is what feed() stamped for it.
        assert path[-1].t == pytest.approx(hall_arrivals[key])


def test_attribution_consistent_with_emission_times(hall_run):
    _, det, rec = hall_run
    graph = CausalGraph(rec.events())
    emit_by_key = {d.trigger.key(): t for d, t in det.emissions}
    for d in rec.detections:
        att = graph.attribute_latency(d)
        assert att["total_s"] >= 0.0
        assert att["sync_s"] >= 0.0
        assert d["emit_time"] == pytest.approx(emit_by_key[tuple(d["trigger"])])


# ---------------------------------------------------------------------------
# The indexed lookups answer exactly what a scan of every event answers.
# ---------------------------------------------------------------------------

def _scan_path(events, key, host):
    """causal_path by scanning every event per lookup (the reference)."""
    by_mid = {e.mid: e for e in events if e.kind == "s" and e.mid is not None}
    senses = [e for e in events if e.kind == "n" and e.key == tuple(key)]
    if not senses:
        raise TraceError("no sense")
    sense = senses[0]
    if sense.pid == host:
        return [sense]

    def first_recv(pid, before=None):
        recvs = [e for e in events if e.kind == "r" and e.pid == pid
                 and e.digest == sense.digest
                 and (before is None or e.gseq < before)]
        if not recvs:
            raise TraceError("no receive")
        return min(recvs, key=lambda e: e.gseq)

    hop = first_recv(host)
    back = [hop]
    while True:
        send = by_mid.get(hop.mid)
        if send is None:
            raise TraceError("no send")
        back.append(send)
        if send.pid == sense.pid:
            break
        hop = first_recv(send.pid, before=send.gseq)
        back.append(hop)
    back.append(sense)
    return back[::-1]


@pytest.fixture(scope="module")
def faulty_hall_trace():
    from repro.faults import default_plan
    from repro.replay import ReplayEngine, RunManifest, code_digest

    manifest = RunManifest(
        scenario="hall", seed=0, duration=120.0, delta=0.2,
        clock_family="vector_strobe", capacity=65536, plan=default_plan(),
        code_digest=code_digest(),
    )
    return ReplayEngine().execute(manifest).recorder


def _path_or_error(lookup):
    try:
        return [e.gseq for e in lookup()]
    except TraceError:
        return "error"


def test_indexed_causal_path_matches_a_full_scan(faulty_hall_trace):
    rec = faulty_hall_trace
    events = sorted(rec.events(), key=lambda e: e.gseq)
    graph = CausalGraph(events)
    assert rec.detections and {e.kind for e in events} >= {"n", "s", "r", "drop"}
    for d in rec.detections:
        key, host = tuple(d["trigger"]), d["host"]
        path = [e.gseq for e in _scan_path(events, key, host)]
        att = graph.attribute_latency(d)
        assert att["path"] == path
        emit, sense = float(d["emit_time"]), graph.event(path[0])
        assert att["total_s"] == emit - sense.t
        assert att["sync_s"] == emit - graph.event(path[-1]).t
    # Every sensed record at every host, including undelivered ones.
    keys = sorted({e.key for e in events if e.kind == "n"})
    hosts = sorted({e.pid for e in events})
    for key in keys[::3]:
        for host in hosts:
            assert _path_or_error(lambda: graph.causal_path(key, host)) == \
                _path_or_error(lambda: _scan_path(events, key, host))


def test_indexed_causal_path_matches_a_full_scan_under_flooding(chain):
    """Duplicate copies, a forwarder's later receive and a forward
    with no upstream receive: the first-arrival walk agrees with the
    scan, errors included."""
    events = chain + [
        _ev(3, 7, "r", 1.6, mid=2, src=1, dst=3, msg_kind="strobe"),
        _ev(1, 8, "s", 1.1, mid=2, src=1, dst=3, msg_kind="strobe"),
        _ev(3, 9, "s", 1.7, mid=3, src=3, dst=0, msg_kind="strobe"),
        _ev(0, 10, "r", 1.9, mid=3, src=3, dst=0, msg_kind="strobe"),
        _ev(2, 11, "r", 2.0, mid=3, src=3, dst=2, msg_kind="strobe"),
        _ev(4, 12, "s", 2.1, mid=4, src=4, dst=5, msg_kind="strobe"),
        _ev(5, 13, "r", 2.2, mid=4, src=4, dst=5, msg_kind="strobe"),
    ]
    graph = CausalGraph(events)
    ordered = sorted(events, key=lambda e: e.gseq)
    for host in range(6):
        assert _path_or_error(lambda: graph.causal_path((1, 1), host)) == \
            _path_or_error(lambda: _scan_path(ordered, (1, 1), host))
    assert _path_or_error(lambda: graph.causal_path((1, 1), 5)) == "error"
