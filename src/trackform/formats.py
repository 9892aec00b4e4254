"""File formats: .track descriptions, .curve JSON, and .trace event logs.

Track files are line-oriented: `key: value` pairs, `#` comments, blank lines
ignored.  Keys: `format` (track/1), `genus`, `boundary`, `branches` (names
separated by spaces), one `switch NAME: large BR.END smalls BR.END BR.END`
line per switch (top small listed first), and one
`face disc:`/`face annulus:` line per complementary region whose value is the
boundary word (face on the left): tokens `BR.l`/`BR.r` for branch horizontal
edges, `SW.t`/`SW.b` for switch horizontal edges, `SW.c` for cusps.
"""
from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Iterable

from .errors import BadInput, ParseError
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


def serialize_curve(curve, nb, track: str | None = None) -> str:
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
    snippets = "[\n" + ",\n".join(recs) + "\n  ]" if recs else "[]"
    name = track if track is not None else getattr(nb, "name", None)
    track_line = f',\n  "track": {json.dumps(name)}' if name is not None else ""
    return (f'{{\n  "format": {json.dumps(CURVE_FORMAT)},\n'
            f'  "kind": {json.dumps(_KIND_TO_JSON[curve.kind])},\n'
            f'  "snippets": {snippets}{track_line}\n}}\n')


def _locus_text(locus) -> str:
    if locus is None:
        return "null"
    return f"[\n        {locus[0]},\n        {locus[1]}\n      ]"


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
    want = getattr(nb, "name", None)
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
        start, end = rec.get("start"), rec.get("end")

        def locus(v, which):
            if v is None:
                return None
            if (not isinstance(v, list) or len(v) != 2
                    or not all(_is_int(x) for x in v)):
                raise ParseError(
                    f"snippet {i}: {which} must be [side, segment] or null")
            return (v[0], v[1])

        wind = rec.get("wind", 0)
        if not _is_int(wind):
            raise ParseError(f"snippet {i}: winding must be an integer")
        snippets.append(Snippet(rid, locus(start, "start"),
                                locus(end, "end"), wind))
    curve = Curve(_KIND_FROM_JSON[kind], tuple(snippets))
    validate_curve(curve, nb)
    return curve


# -- trace files ------------------------------------------------------------


def serialize_trace(events: Iterable[dict], **meta: Any) -> str:
    """trace/1: one header line, then one JSON record per event.  Compact
    separators and sorted keys make the bytes deterministic."""
    head: dict[str, Any] = {"format": TRACE_FORMAT}
    head.update(meta)
    lines = [json.dumps(head, sort_keys=True, separators=(",", ":"))]
    for ev in events:
        lines.append(json.dumps(ev, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> tuple[dict, list[dict]]:
    """Parse trace/1 text into (header metadata, event list)."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty trace file", line=1)
    out = []
    for ln, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        out.append(_load_json(raw, "trace line", line=ln))
    head = out[0] if out else None
    if not isinstance(head, dict) or head.get("format") != TRACE_FORMAT:
        raise ParseError(f"expected a {TRACE_FORMAT} header line", line=1)
    return head, out[1:]
