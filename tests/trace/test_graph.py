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
