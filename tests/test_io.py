"""Round-trip and determinism oracles for the track, curve, and trace file
formats, plus the seeded generator entry point."""
from __future__ import annotations

import json

import pytest

from trackform.curve_ops import ARC, CLOSED, Curve
from trackform.errors import AdjacencyError, BadInput, ParseError
from trackform.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from trackform.formats import (format_track, parse_curve, parse_track,
                               parse_trace, serialize_curve, serialize_trace)
from trackform.generate import gen_random_curve
from trackform.pipelines import efficient_position
from trackform.snippet_core import Snippet


@pytest.fixture(scope="module")
def t11():
    return load_fixture("t11")


def carried_loop() -> Curve:
    return Curve(CLOSED, (
        Snippet(0, (3, 0), (1, 0)),
        Snippet(4, (1, 0), (3, 0)),
        Snippet(1, (1, 0), (3, 0)),
        Snippet(3, (3, 0), (1, 0)),
    ))


# -- track round-trip -------------------------------------------------------


def test_track_round_trip_is_canonical():
    for name in FIXTURE_NAMES:
        desc = parse_track(fixture_text(name))
        canon = format_track(desc)
        assert parse_track(canon) == desc
        assert format_track(parse_track(canon)) == canon


# -- curve format -----------------------------------------------------------


def test_curve_round_trip(t11):
    c = carried_loop()
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


def test_curve_wind_zero_omitted(t11):
    text = serialize_curve(carried_loop(), t11)
    assert '"wind"' not in text


def test_parse_curve_rejects_broken_chain(t11):
    doc = json.loads(serialize_curve(carried_loop(), t11))
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


def test_parse_curve_rejects_booleans(t11):
    for key, value in (("start", [False, False]), ("wind", True)):
        doc = json.loads(serialize_curve(carried_loop(), t11))
        doc["snippets"][0][key] = value
        with pytest.raises(ParseError):
            parse_curve(json.dumps(doc), t11)


def test_parse_curve_rejects_unknown_region(t11):
    doc = json.loads(serialize_curve(carried_loop(), t11))
    doc["snippets"][0]["region"] = "br:zz"
    with pytest.raises(ParseError) as err:
        parse_curve(json.dumps(doc), t11)
    assert "br:zz" in str(err.value)


def test_parse_curve_rejects_wrong_track(t11):
    doc = json.loads(serialize_curve(carried_loop(), t11))
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
    assert events == res.events
    assert serialize_trace(events, track="t11", status=res.status) == text


def test_trace_lines_are_single_records(t11):
    res = efficient_position(gen_random_curve(t11, 7, 5), t11)
    text = serialize_trace(res.events)
    lines = text.strip().split("\n")
    assert len(lines) == len(res.events) + 1
    for line in lines:
        json.loads(line)


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
