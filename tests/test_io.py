"""Round-trip and determinism oracles for the track, curve, and trace file
formats, plus the seeded generator entry point."""
from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackform.curve_ops import ARC, CLOSED, Curve
from trackform.errors import AdjacencyError, BadInput, ParseError
from trackform.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from trackform.formats import (RECORD_TYPES, Hom, Open, Reverse, Rotate,
                               Seam, format_track, parse_curve, parse_track,
                               parse_trace, serialize_curve, serialize_trace,
                               trace_record)
from trackform.generate import gen_random_curve, random_arc
from trackform.pipelines import efficient_position
from trackform.snippet_core import Snippet
from trackform.verification import audit_trace


# -- track round-trip -------------------------------------------------------


def test_track_round_trip_is_canonical():
    for name in FIXTURE_NAMES:
        desc = parse_track(fixture_text(name))
        canon = format_track(desc)
        assert parse_track(canon) == desc
        assert format_track(parse_track(canon)) == canon


# -- curve format -----------------------------------------------------------


def test_curve_round_trip(t11, carried_loop):
    c = carried_loop
    text = serialize_curve(c, t11)
    back = parse_curve(text, t11)
    assert back.kind == c.kind and back.snippets == c.snippets


def test_curve_round_trip_with_winding_and_arc(t11):
    c = Curve(ARC, (
        Snippet(5, (3, 2), (1, 2), 2),
        Snippet(0, (0, 0), (1, 0)),
        Snippet(4, (1, 0), (3, 1)),
        Snippet(5, (2, 0), (3, 3), -3),
    ))
    back = parse_curve(serialize_curve(c, t11), t11)
    assert back.kind == ARC and back.snippets == c.snippets


def test_curve_bytes_are_frozen(t11):
    c = Curve(CLOSED, (Snippet(5, None, None, 4),))
    expected = (
        '{\n'
        '  "format": "curve/1",\n'
        '  "kind": "closed",\n'
        '  "snippets": [\n'
        '    {\n'
        '      "end": null,\n'
        '      "region": "face:0",\n'
        '      "start": null,\n'
        '      "wind": 4\n'
        '    }\n'
        '  ],\n'
        '  "track": "t11"\n'
        '}\n'
    )
    assert serialize_curve(c, t11) == expected
    assert parse_curve(expected, t11).snippets == c.snippets


def test_curve_wind_zero_omitted(t11, carried_loop):
    text = serialize_curve(carried_loop, t11)
    assert '"wind"' not in text


def test_parse_curve_rejects_broken_chain(t11, carried_loop):
    doc = json.loads(serialize_curve(carried_loop, t11))
    doc["snippets"][1], doc["snippets"][2] = (doc["snippets"][2],
                                              doc["snippets"][1])
    with pytest.raises(AdjacencyError) as err:
        parse_curve(json.dumps(doc), t11)
    assert "0 and 1" in str(err.value)


def test_parse_curve_rejects_garbage(t11):
    with pytest.raises(ParseError) as err:
        parse_curve("{not json", t11)
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_curve('{"format": "curve/2", "kind": "closed", "snippets": []}',
                    t11)
    with pytest.raises(ParseError):
        parse_curve('{"format": "curve/1", "kind": "closed", "snippets": []}',
                    t11)
    with pytest.raises(ParseError):
        parse_curve('{"format": "curve/1", "kind": "sideways",'
                    ' "snippets": [{}]}', t11)


def test_parse_curve_rejects_booleans(t11, carried_loop):
    for key, value in (("start", [False, False]), ("wind", True)):
        doc = json.loads(serialize_curve(carried_loop, t11))
        doc["snippets"][0][key] = value
        with pytest.raises(ParseError):
            parse_curve(json.dumps(doc), t11)


def test_parse_curve_rejects_unknown_region(t11, carried_loop):
    doc = json.loads(serialize_curve(carried_loop, t11))
    doc["snippets"][0]["region"] = "br:zz"
    with pytest.raises(ParseError) as err:
        parse_curve(json.dumps(doc), t11)
    assert "br:zz" in str(err.value)


def test_parse_curve_rejects_wrong_track(t11, carried_loop):
    doc = json.loads(serialize_curve(carried_loop, t11))
    doc["track"] = "s04"
    with pytest.raises(ParseError) as err:
        parse_curve(json.dumps(doc), t11)
    assert "s04" in str(err.value)


# -- trace format -----------------------------------------------------------


def test_trace_round_trip(t11):
    res = efficient_position(gen_random_curve(t11, 9, 3), t11)
    text = serialize_trace(res.events, track="t11", status=res.status)
    head, events = parse_trace(text)
    assert head["format"] == "trace/1"
    assert head["track"] == "t11" and head["status"] == res.status
    assert events == [dict(ev) for ev in res.events]
    assert serialize_trace(events, track="t11", status=res.status) == text


# SHA-256 of the trace/1 text of two seeded runs per fixture: a closed
# curve (`gen_random_curve(nb, 12, 10)`) and an arc (`random_arc` on
# `Random("NAME/frozen")`, 12 snippets).  Together the runs use all five ops;
# t11's closed run rotates and reverses.
_FROZEN_TRACES = {
    "t11": "e684e8fb3b7a0b1986a9b1a611e24e92075c521b6f4741de5e2f009f6f830767",
    "t11d": "6859956d4782d2f1eae06502543a18df4df34c4d1b30de3c25e3be1747c7657b",
    "s04": "dfe48efd6334ffdcf5df81e9f3835ad4be925c4cbe8c306d006f2cf3e8c3355e",
    "s12": "f89c457779ee9147f3be4513e58103d2c89dd7be68b6c99a5ade28e2a23dbf3a",
}


def _frozen_runs(name):
    """The fixture and its two frozen runs, (input, result) each."""
    nb = load_fixture(name)
    for c in (gen_random_curve(nb, 12, 10),
              random_arc(nb, random.Random(f"{name}/frozen"), 12)):
        yield nb, c, efficient_position(c, nb)


def test_trace_bytes_are_frozen():
    ops = set()
    for name in FIXTURE_NAMES:
        texts = []
        for nb, c, res in _frozen_runs(name):
            ops |= {ev["op"] for ev in res.events}
            texts.append(serialize_trace(res.events, track=name,
                                         status=res.status))
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest == _FROZEN_TRACES[name], name
    assert ops == {"hom", "rotate", "reverse", "open", "seam"}


# (events, checks) of the audit of each frozen run: the closed curve's,
# then the arc's.
_FROZEN_AUDITS = {
    "t11": [(25, 310), (5, 73)],
    "t11d": [(16, 219), (5, 67)],
    "s04": [(18, 264), (6, 99)],
    "s12": [(11, 139), (6, 90)],
}


def test_audit_counts_are_frozen():
    for name in FIXTURE_NAMES:
        counts = []
        for nb, c, res in _frozen_runs(name):
            rep = audit_trace(res.events, c, res.curve, nb)
            counts.append((rep.events, rep.checks))
        assert counts == _FROZEN_AUDITS[name], name


def test_trace_lines_are_single_records(t11):
    res = efficient_position(gen_random_curve(t11, 7, 5), t11)
    text = serialize_trace(res.events)
    lines = text.strip().split("\n")
    assert len(lines) == len(res.events) + 1
    for line in lines:
        json.loads(line)


_INTS = st.integers()
_PAIR = st.lists(_INTS, min_size=2, max_size=2)
_TEXT = st.text()
_NAME = st.none() | _TEXT
_C = st.lists(_INTS, min_size=6, max_size=6)
_RECORD = {
    "hom": st.builds(Hom, _INTS, _INTS, _NAME, _NAME, _INTS, _PAIR, _PAIR,
                     _TEXT, _C),
    "rotate": st.builds(Rotate, _INTS, _TEXT, _C),
    "reverse": st.builds(Reverse, _TEXT, _C),
    "open": st.builds(Open, _INTS, _TEXT, _C),
    "seam": st.builds(Seam, _INTS, _TEXT, _C),
}


@pytest.mark.parametrize("op", list(RECORD_TYPES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_record_line_is_the_canonical_json_of_the_record(op, data):
    # any field values, strings with quotes, escapes and line breaks included
    rec = data.draw(_RECORD[op])
    assert sorted(key for key, _ in rec.JSON) == sorted(rec._fields)
    line = rec.to_line()
    assert line == json.dumps(dict(rec), sort_keys=True,
                              separators=(",", ":"))
    back = RECORD_TYPES[op].from_json(json.loads(line), 0)
    assert type(back) is type(rec) and back == rec


_LOADED = {}


def _fixture(name):
    if name not in _LOADED:
        _LOADED[name] = load_fixture(name)
    return _LOADED[name]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(FIXTURE_NAMES), arc=st.booleans(),
       n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
@example(name="t11", arc=False, n=12, seed=10)  # rotates and reverses
def test_recorded_trace_round_trips_byte_identically(name, arc, n, seed):
    nb = _fixture(name)
    c = (random_arc(nb, random.Random(seed), n) if arc
         else gen_random_curve(nb, n, seed))
    res = efficient_position(c, nb)
    text = serialize_trace(res.events, track=name, status=res.status)
    head, events = parse_trace(text)
    assert [trace_record(ev, i) for i, ev in enumerate(events)] == res.events
    meta = {k: v for k, v in head.items() if k != "format"}
    assert serialize_trace(events, **meta) == text


def test_records_read_as_their_json_objects(t11):
    res = efficient_position(gen_random_curve(t11, 12, 10), t11)
    for ev in res.events:
        assert ev["op"] == ev.op and dict(ev) == json.loads(ev.to_line())
    with pytest.raises(KeyError):
        res.events[0]["to_line"]
    # equal fields under two ops are two records
    assert Open(0, "p", [0] * 6) != Seam(0, "p", [0] * 6)


@pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\u0085"])
def test_parse_trace_keeps_line_breaks_inside_strings(brk):
    # serialize_trace escapes them, but a hand-edited file may hold them raw
    text = (f'{{"format":"trace/1","track":"t{brk}x"}}\n'
            '{"by":1,"c":[0,0,0,0,0,0],"op":"rotate","phase":"p"}\n')
    head, events = parse_trace(text)
    assert head["track"] == f"t{brk}x"
    assert events == [{"by": 1, "c": [0] * 6, "op": "rotate", "phase": "p"}]


def test_parse_trace_reads_crlf_lines_with_the_same_numbers(t11):
    res = efficient_position(gen_random_curve(t11, 9, 3), t11)
    text = serialize_trace(res.events, track="t11", status=res.status)
    assert parse_trace(text.replace("\n", "\r\n")) == parse_trace(text)
    lines = text.split("\n")
    lines[2] = "not json"
    for eol in ("\n", "\r\n"):
        with pytest.raises(ParseError) as err:
            parse_trace(eol.join(lines))
        assert (err.value.line, err.value.col) == (3, 1)


def test_parse_trace_rejects_bad_header():
    with pytest.raises(ParseError):
        parse_trace("")
    with pytest.raises(ParseError):
        parse_trace('{"format":"trace/2"}\n')
    with pytest.raises(ParseError) as err:
        parse_trace('{"format":"trace/1"}\nnot json\n')
    assert err.value.line == 2


# -- seeded generation ------------------------------------------------------


def test_gen_random_curve_deterministic(t11):
    for seed in range(8):
        a = gen_random_curve(t11, 6, seed)
        b = gen_random_curve(t11, 6, seed)
        assert a.snippets == b.snippets and a.kind == CLOSED


def test_gen_random_curve_length_one(t11):
    c = gen_random_curve(t11, 1, 0)
    assert len(c.snippets) == 1 and c.snippets[0].closed


def test_gen_random_curve_rejects_zero(t11):
    with pytest.raises(BadInput):
        gen_random_curve(t11, 0, 0)
