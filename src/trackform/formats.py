"""File formats: .track descriptions, .curve JSON, and .trace event logs.

Track files are line-oriented: `key: value` pairs, `#` comments, blank lines
ignored.  Keys: `format` (track/1), `genus`, `boundary`, `branches` (names
separated by spaces), one `switch NAME: large BR.END smalls BR.END BR.END`
line per switch (top small listed first), and one
`face disc:`/`face annulus:` line per complementary region whose value is the
boundary word (face on the left): tokens `BR.l`/`BR.r` for branch horizontal
edges, `SW.t`/`SW.b` for switch horizontal edges, `SW.c` for cusps.

Trace files hold one typed record per event.  Each of the five trace/1
ops has one immutable record type (`Hom`, `Rotate`, `Reverse`, `Open`,
`Seam`): a run builds its records in memory, `to_line` writes a record's
canonical line directly (sorted keys, compact separators, each repeated
string quoted once), and `from_json` reads a decoded JSON object back,
checking each field and its JSON type once.  `parse_trace` leaves events as
decoded objects; the audit reads each through `trace_record` at its own
event index, so a malformed record fails there, after `trackform verify`
has checked the header.
"""
from __future__ import annotations

import json
import re
from collections import namedtuple
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterable

from .errors import AuditFailure, ParseError
from .track_model import FaceDesc, SwitchDesc, TrainTrackDesc

TRACK_FORMAT = "track/1"
CURVE_FORMAT = "curve/1"
TRACE_FORMAT = "trace/1"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _shown(text: str, limit: int = 40) -> str:
    """A file's text quoted in an error message, cut to `limit` characters."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


def _check_name(name: str, line: int, what: str) -> str:
    if not _NAME_RE.match(name):
        raise ParseError(f"bad {what} name {_shown(name)}", line=line)
    return name


def _parse_end(tok: str, line: int) -> tuple[str, int]:
    stem, _, end = tok.rpartition(".")
    if not stem or end not in ("0", "1"):
        raise ParseError(f"expected BRANCH.0 or BRANCH.1, got {_shown(tok)}",
                         line=line)
    return stem, int(end)


def parse_track(text: str) -> TrainTrackDesc:
    genus: int | None = None
    boundary: int | None = None
    branches: tuple[str, ...] | None = None
    switches: list[SwitchDesc] = []
    faces: list[FaceDesc] = []
    saw_format = False

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'key: value', got {_shown(line)}",
                             line=ln)
        key, value = key.strip(), value.strip()
        if key == "format":
            if value != TRACK_FORMAT:
                raise ParseError(f"unsupported format {_shown(value)}", line=ln)
            saw_format = True
        elif key == "genus":
            genus = _parse_int(value, ln, "genus")
        elif key == "boundary":
            boundary = _parse_int(value, ln, "boundary")
        elif key == "branches":
            branches = tuple(_check_name(t, ln, "branch") for t in value.split())
        elif key.startswith("switch "):
            name = _check_name(key[len("switch "):].strip(), ln, "switch")
            toks = value.split()
            if len(toks) != 5 or toks[0] != "large" or toks[2] != "smalls":
                raise ParseError(
                    "switch line must read 'large BR.E smalls BR.E BR.E'", line=ln)
            switches.append(SwitchDesc(
                name=name,
                large=_parse_end(toks[1], ln),
                smalls=(_parse_end(toks[3], ln), _parse_end(toks[4], ln)),
            ))
        elif key.startswith("face "):
            kind = key[len("face "):].strip()
            if kind not in ("disc", "annulus"):
                raise ParseError(
                    f"face kind must be disc or annulus, got {_shown(kind)}",
                    line=ln)
            word = tuple(value.split())
            if not word:
                raise ParseError("empty face word", line=ln)
            faces.append(FaceDesc(kind=kind, word=word))
        else:
            raise ParseError(f"unknown key {_shown(key)}", line=ln)

    if not saw_format:
        raise ParseError("missing 'format: track/1' line", line=1)
    if genus is None or boundary is None or branches is None:
        raise ParseError("missing genus, boundary, or branches line", line=1)
    return TrainTrackDesc(genus=genus, boundary=boundary, branches=branches,
                          switches=tuple(switches), faces=tuple(faces))


def _is_int(v: Any) -> bool:
    """Is a decoded JSON value an integer?  JSON booleans decode to Python
    bools, which are ints too, and are rejected."""
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_int(value: str, line: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {_shown(value)}",
                         line=line) from None


def read_text(path) -> str:
    """The text of a track, curve or trace file, which must be UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{Path(path).name} is not UTF-8 text (byte {exc.start})",
            line=data.count(b"\n", 0, exc.start) + 1) from None


def _load_json(text: str, what: str, line: int | None = None) -> Any:
    """Decode one JSON document; every way it can fail is a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not JSON: {exc.msg}",
                         line=line or exc.lineno, col=exc.colno) from None
    except RecursionError:
        raise ParseError(f"{what} nests arrays or objects too deeply",
                         line=line) from None
    except ValueError:  # an integer past the digit limit of int()
        raise ParseError(f"{what} holds an integer with too many digits",
                         line=line) from None


def format_track(desc: TrainTrackDesc) -> str:
    out = [f"format: {TRACK_FORMAT}",
           f"genus: {desc.genus}",
           f"boundary: {desc.boundary}",
           f"branches: {' '.join(desc.branches)}"]
    for sw in desc.switches:
        out.append(
            f"switch {sw.name}: large {sw.large[0]}.{sw.large[1]}"
            f" smalls {sw.smalls[0][0]}.{sw.smalls[0][1]}"
            f" {sw.smalls[1][0]}.{sw.smalls[1][1]}")
    for f in desc.faces:
        out.append(f"face {f.kind}: {' '.join(f.word)}")
    return "\n".join(out) + "\n"


# -- curve files ------------------------------------------------------------

_KIND_TO_JSON = {"Closed": "closed", "Arc": "arc"}
_KIND_FROM_JSON = {v: k for k, v in _KIND_TO_JSON.items()}


def serialize_curve(curve, nb) -> str:
    """Canonical curve/1 JSON: snippets by region name, winding omitted when
    zero; byte-deterministic (sorted keys, two-space indent)."""
    from .curve_ops import validate_curve

    validate_curve(curve, nb)
    # The text json.dumps(doc, sort_keys=True, indent=2) would give, written
    # directly: indent= makes json fall back to its pure-Python encoder.
    names = [json.dumps(r.name) for r in nb.regions]
    recs = []
    for s in curve.snippets:
        wind = f',\n      "wind": {s.wind}' if s.wind else ""
        recs.append(f'    {{\n      "end": {_locus_text(s.end)},\n'
                    f'      "region": {names[s.region]},\n'
                    f'      "start": {_locus_text(s.start)}{wind}\n    }}')
    snippets = "[\n" + ",\n".join(recs) + "\n  ]"
    track_line = (f',\n  "track": {json.dumps(nb.name)}'
                  if nb.name is not None else "")
    return (f'{{\n  "format": {json.dumps(CURVE_FORMAT)},\n'
            f'  "kind": {json.dumps(_KIND_TO_JSON[curve.kind])},\n'
            f'  "snippets": {snippets}{track_line}\n}}\n')


def _locus_text(locus) -> str:
    if locus is None:
        return "null"
    return f"[\n        {locus[0]},\n        {locus[1]}\n      ]"


def _locus(v: Any, i: int, which: str) -> tuple[int, int] | None:
    """A snippet's start or end locus as a curve file gives it."""
    if v is None:
        return None
    if not isinstance(v, list) or len(v) != 2 or not all(map(_is_int, v)):
        raise ParseError(
            f"snippet {i}: {which} must be [side, segment] or null")
    return (v[0], v[1])


def parse_curve(text: str, nb) -> "Curve":
    """Parse curve/1 JSON against a tie neighbourhood, validating loci,
    windings, and the gluing chain (AdjacencyError names the snippet)."""
    from .curve_ops import Curve, validate_curve
    from .snippet_core import Snippet

    doc = _load_json(text, "curve file")
    if not isinstance(doc, dict) or doc.get("format") != CURVE_FORMAT:
        raise ParseError(f"expected a {CURVE_FORMAT} document")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_FROM_JSON:
        raise ParseError(f"curve kind must be 'closed' or 'arc', got {kind!r}")
    want = nb.name
    track = doc.get("track")
    if track is not None and want is not None and track != want:
        raise ParseError(
            f"curve is for track {track!r}, not {want!r}")
    recs = doc.get("snippets")
    if not isinstance(recs, list) or not recs:
        raise ParseError("curve needs a non-empty snippets list")
    snippets = []
    for i, rec in enumerate(recs):
        if not isinstance(rec, dict):
            raise ParseError(f"snippet {i} is not an object")
        rname = rec.get("region")
        rid = nb.region_id.get(rname) if isinstance(rname, str) else None
        if rid is None:
            raise ParseError(f"snippet {i}: unknown region {rname!r}")
        start, end, wind = rec.get("start"), rec.get("end"), rec.get("wind", 0)
        # one type check for the usual open snippet; null loci and
        # malformed values take the field-by-field path below
        if (type(start) is type(end) is list and len(start) == len(end) == 2
                and type(start[0]) is type(start[1]) is type(end[0])
                is type(end[1]) is type(wind) is int):
            snippets.append(Snippet(rid, (start[0], start[1]),
                                    (end[0], end[1]), wind))
            continue
        if not _is_int(wind):
            raise ParseError(f"snippet {i}: winding must be an integer")
        snippets.append(Snippet(rid, _locus(start, i, "start"),
                                _locus(end, i, "end"), wind))
    curve = Curve(_KIND_FROM_JSON[kind], tuple(snippets))
    validate_curve(curve, nb)
    return curve


# -- trace files ------------------------------------------------------------

# The JSON types of trace/1 fields.
_STR, _NAME, _INT, _INT2, _INT6 = (
    "string", "string or null", "integer", "2 integers", "6 integers")
_STAMP = (("phase", _STR), ("c", _INT6))
_OWN = slice(None, -2)


def _json_type_ok(v: Any, kind: str) -> bool:
    if kind == _INT:
        return _is_int(v)
    if kind == _STR:
        return isinstance(v, str)
    if kind == _NAME:
        return v is None or isinstance(v, str)
    return (isinstance(v, list) and len(v) == (2 if kind == _INT2 else 6)
            and all(map(_is_int, v)))


def _stamp_typed(phase: Any, c: Any) -> bool:
    """Is `phase` a string and `c` six integers?  Exact types, so a
    boolean is no integer."""
    return (type(phase) is str and type(c) is list and len(c) == 6
            and type(c[0]) is type(c[1]) is type(c[2]) is type(c[3])
            is type(c[4]) is type(c[5]) is int)


@lru_cache(maxsize=256)
def _json_text(v: str | None) -> str:
    """A string or null as JSON text.  Rules, turns and phases repeat, so
    each is quoted once."""
    return json.dumps(v)


def _ints_text(v) -> str:
    return ",".join(map(str, v))


class _TraceRecord:
    """What the five trace/1 record types share.  Each is a named tuple of
    its op's own fields, then `phase` and `c`; the class holds its `op` and
    its `JSON` schema, (field, JSON type) pairs in the order they are
    checked.  A record reads like the JSON object it is written as:
    `rec["op"]` and `rec["n"]` give its JSON values, and `dict(rec)` its
    JSON form.  `phase` and `c` default to None, for a record whose run
    has not stamped it yet."""
    __slots__ = ()
    op = ""
    JSON: tuple[tuple[str, str], ...] = ()

    def keys(self) -> tuple[str, ...]:
        return ("op", *self._fields)

    def __getitem__(self, key, _get=tuple.__getitem__):
        if type(key) is str:
            if key != "op" and key not in self._fields:
                raise KeyError(key)
            return getattr(self, key)
        return _get(self, key)

    # records of two ops are never equal, even with equal fields; tuple's
    # own __ne__ would not follow __eq__
    def __eq__(self, other) -> bool:
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    def stamped(self, phase: str, c: list[int]):
        """The record with its phase and the counters it leaves."""
        return self._make((*tuple.__getitem__(self, _OWN), phase, c))

    @classmethod
    def from_json(cls, obj: dict, index: int):
        """The record a decoded trace/1 object of this op stands for.  Its
        fields and their JSON types are checked in `JSON` order, and the
        first one missing or of the wrong type raises `AuditFailure` with
        the `record` clause at event `index`; keys outside `JSON` are
        ignored."""
        try:
            rec = cls._make(map(obj.__getitem__, cls._fields))
        except KeyError:
            rec = None
        # `_typed` checks exact types in one expression; a record it does
        # not pass is walked field by field, to name the first failure
        if rec is None or not rec._typed():
            for key, kind in cls.JSON:
                if key not in obj:
                    raise AuditFailure.at(index, "record",
                                          f"{cls.op} record has no {key!r}")
                if not _json_type_ok(obj[key], kind):
                    raise AuditFailure.at(index, "record",
                                          f"bad {key!r} value {obj[key]!r}")
        return rec


class Hom(_TraceRecord, namedtuple(
        "Hom", "k rot rule turn j n win phase c", defaults=(None, None))):
    """One elementary homotopy: the position `k` pushed after the rotation
    `rot`, the pushed snippet's type `rule` and `turn`, the walk's weight
    `j`, the lengths `n` before and after, and the replacement window
    `win` (first index, length).  `hom` returns the push's own fields,
    unstamped."""
    __slots__ = ()
    op = "hom"
    JSON = (*_STAMP, ("k", _INT), ("rot", _INT), ("j", _INT), ("n", _INT2),
            ("win", _INT2), ("rule", _NAME), ("turn", _NAME))

    def _typed(self) -> bool:
        k, rot, rule, turn, j, n, win, phase, c = self
        return (type(k) is type(rot) is type(j) is int
                and type(n) is type(win) is list and len(n) == len(win) == 2
                and type(n[0]) is type(n[1]) is type(win[0]) is type(win[1])
                is int
                and (rule is None or type(rule) is str)
                and (turn is None or type(turn) is str)
                and _stamp_typed(phase, c))

    def to_line(self) -> str:
        k, rot, rule, turn, j, n, win, phase, c = self
        return (f'{{"c":[{_ints_text(c)}],"j":{j},"k":{k},'
                f'"n":[{n[0]},{n[1]}],"op":"hom","phase":{_json_text(phase)},'
                f'"rot":{rot},"rule":{_json_text(rule)},'
                f'"turn":{_json_text(turn)},"win":[{win[0]},{win[1]}]}}')


class Rotate(_TraceRecord, namedtuple(
        "Rotate", "by phase c", defaults=(None, None))):
    """A closed curve rotated left by `by` positions."""
    __slots__ = ()
    op = "rotate"
    JSON = (*_STAMP, ("by", _INT))

    def _typed(self) -> bool:
        return type(self.by) is int and _stamp_typed(self.phase, self.c)

    def to_line(self) -> str:
        return (f'{{"by":{self.by},"c":[{_ints_text(self.c)}],"op":"rotate",'
                f'"phase":{_json_text(self.phase)}}}')


class Reverse(_TraceRecord, namedtuple(
        "Reverse", "phase c", defaults=(None, None))):
    """The curve's orientation reversed."""
    __slots__ = ()
    op = "reverse"
    JSON = _STAMP

    def _typed(self) -> bool:
        return _stamp_typed(self.phase, self.c)

    def to_line(self) -> str:
        return (f'{{"c":[{_ints_text(self.c)}],"op":"reverse",'
                f'"phase":{_json_text(self.phase)}}}')


class _SeamRecord(_TraceRecord, namedtuple(
        "SeamRecord", "orig_wind phase c", defaults=(None, None))):
    """An `open` or a `seam`, with the winding `orig_wind` of the
    duplicated basepoint snippet."""
    __slots__ = ()
    JSON = (*_STAMP, ("orig_wind", _INT))

    def _typed(self) -> bool:
        return type(self.orig_wind) is int and _stamp_typed(self.phase, self.c)

    def to_line(self) -> str:
        return (f'{{"c":[{_ints_text(self.c)}],"op":"{self.op}",'
                f'"orig_wind":{self.orig_wind},'
                f'"phase":{_json_text(self.phase)}}}')


class Open(_SeamRecord):
    """A closed curve opened into an arc by duplicating its basepoint
    snippet at the far end."""
    __slots__ = ()
    op = "open"


class Seam(_SeamRecord):
    """The opened arc glued shut again at the duplicated snippet."""
    __slots__ = ()
    op = "seam"


RECORD_TYPES = {cls.op: cls for cls in (Hom, Rotate, Reverse, Open, Seam)}
_RECORD_CLASSES = frozenset(RECORD_TYPES.values())


def trace_record(obj: Any, index: int):
    """The trace/1 record `obj` is: a typed record as it is, or a decoded
    JSON object through its op's `from_json`.  An object that is not a
    JSON object, or names no known op, raises `AuditFailure` with the
    `record` or `op` clause at event `index`."""
    if type(obj) in _RECORD_CLASSES:
        return obj
    if not isinstance(obj, dict):
        raise AuditFailure.at(index, "record",
                              f"a {type(obj).__name__}, not an object")
    op = obj.get("op")
    cls = RECORD_TYPES.get(op) if isinstance(op, str) else None
    if cls is None:
        raise AuditFailure.at(index, "op", f"unknown op {op!r}")
    return cls.from_json(obj, index)


def serialize_trace(events: Iterable, **meta: Any) -> str:
    """trace/1: one header line, then one line per event, each written by
    its record's `to_line`: compact separators and sorted keys make the
    bytes deterministic.  A decoded JSON object among `events` is read
    through `trace_record` first, so a malformed one raises
    `AuditFailure`."""
    head: dict[str, Any] = {"format": TRACE_FORMAT}
    head.update(meta)
    lines = [json.dumps(head, sort_keys=True, separators=(",", ":"))]
    lines += [trace_record(ev, i).to_line() for i, ev in enumerate(events)]
    return "\n".join(lines) + "\n"


_raw_decode = json.JSONDecoder().raw_decode


def parse_trace(text: str) -> tuple[dict, list[dict]]:
    """Parse trace/1 text into (header metadata, list of event objects).

    Lines end at "\\n" alone, as `serialize_trace` writes them (a "\\r"
    before it is whitespace), so a string may hold any other line break.
    The events stay decoded JSON objects: the audit reads each through
    `trace_record` at its own event index, after `trackform verify` has
    checked the header."""
    if not text:
        raise ParseError("empty trace file", line=1)
    out = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        try:
            obj, end = _raw_decode(raw)
        except (ValueError, RecursionError):
            end = -1
        if end != len(raw):  # blank, padded or malformed: the slow path
            if not raw.strip():
                continue
            obj = _load_json(raw, "trace line", line=ln)
        out.append(obj)
    head = out[0] if out else None
    if not isinstance(head, dict) or head.get("format") != TRACE_FORMAT:
        raise ParseError(f"expected a {TRACE_FORMAT} header line", line=1)
    return head, out[1:]
