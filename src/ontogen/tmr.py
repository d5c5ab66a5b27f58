"""Text meaning representations: frame graphs of concept instances.

A TMR is an ordered set of instance frames whose slots hold case roles,
attributes, and time information. Files use schema "ontogen-tmr/1".
Filler typing is conventional: UPPER-CASE-42 is an instance reference,
UPPER-CASE a concept reference, numbers are scalars, "(< routine)" is a
procedural time call, DD.MM.YYYY a calendar date, HH:MM a clock time,
and anything else a string literal.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
import logging
import re
from dataclasses import dataclass, field
from enum import Enum

from .errors import MalformedInstanceId, TmrError
from .knowledge import CONCEPT_RE, INSTANCE_RE
from .strictjson import decode, document, read_text

log = logging.getLogger("ontogen.tmr")

SCHEMA_TMR = "ontogen-tmr/1"

CASE_ROLES = ("AGENT", "THEME", "DESTINATION", "INSTRUMENT", "BENEFICIARY", "SOURCE")
TIME_SLOTS = ("TIME", "DATE", "CLOCK-TIME")
# Bookkeeping slots that no lexical sense is asked to express.
RESERVED_SLOTS = TIME_SLOTS + ("CARDINALITY", "HAS-NAME", "GENDER")

_DATE_RE = re.compile(r"(\d{2})\.(\d{2})\.(\d{4})")
_CLOCK_RE = re.compile(r"(\d{1,2}):(\d{2})")
_CALL_RE = re.compile(r"\(\s*(\S+)\s+([A-Za-z][A-Za-z0-9-]*)\s*\)")


class RelativeTime(str, Enum):
    BEFORE = "before-reference"
    AT = "at-reference"
    AFTER = "after-reference"


@dataclass(frozen=True)
class InstanceRef:
    id: str


@dataclass(frozen=True)
class ConceptRef:
    name: str


@dataclass(frozen=True)
class ProceduralCall:
    """A time routine recorded by an upstream analyzer, e.g. (< find-anchor-time)."""

    op: str
    routine: str


Filler = InstanceRef | ConceptRef | ProceduralCall | RelativeTime | dt.date | dt.time | float | str


def concept_of(instance_id: str, source: str | None = None) -> str:
    """Strip the numeric index: FASTEN-18 -> FASTEN. Errors on unindexed ids."""
    m = INSTANCE_RE.fullmatch(instance_id)
    if not m:
        raise MalformedInstanceId(f"{instance_id!r} is not CONCEPT-<digits>", source=source)
    return m.group(1)


@dataclass
class Metadata:
    from_sense: str | None = None
    word_num: int | None = None


@dataclass
class TmrFrame:
    instance_id: str
    slots: dict[str, tuple[Filler, ...]] = field(default_factory=dict)
    metadata: Metadata | None = None
    coref: str | None = None

    @property
    def concept(self) -> str:
        return concept_of(self.instance_id)

    def get(self, prop: str) -> Filler | None:
        values = self.slots.get(prop)
        return values[0] if values else None

    def all(self, prop: str) -> tuple[Filler, ...]:
        return self.slots.get(prop, ())

    @property
    def plural(self) -> bool:
        card = self.get("CARDINALITY")
        return isinstance(card, (int, float)) and card > 1


@dataclass
class Tmr:
    frames: list[TmrFrame]
    speaker_id: str | None = None
    hearer_id: str | None = None
    reference_time: dt.datetime | None = None
    source: str = "<tmr>"

    def __post_init__(self):
        self.by_id = {f.instance_id: f for f in self.frames}

    def frame(self, instance_id: str) -> TmrFrame | None:
        return self.by_id.get(instance_id)

    def has(self, instance_id: str) -> bool:
        return instance_id in self.by_id


def find_root_frame(tmr: Tmr) -> TmrFrame:
    """The frame no other frame points at: it has no -OF slot whose filler
    is inside the TMR."""
    for frame in tmr.frames:
        pointed = False
        for prop, values in frame.slots.items():
            if not prop.endswith("-OF"):
                continue
            for value in values:
                if isinstance(value, InstanceRef) and tmr.has(value.id):
                    pointed = True
        if not pointed:
            return frame
    return tmr.frames[0]


# ---------------------------------------------------------------------------
# parsing

def _parse_filler(slot: str, raw, source: str) -> Filler:
    if isinstance(raw, bool):
        raise TmrError(f"boolean filler in {slot}", source=source)
    if isinstance(raw, (int, float)):
        return float(raw)
    if not isinstance(raw, str):
        raise TmrError(f"unsupported filler {raw!r} in {slot}", source=source)
    call = _CALL_RE.fullmatch(raw)
    if call:
        if slot != "TIME":
            raise TmrError(f"procedural call {raw!r} outside a TIME slot", source=source)
        return ProceduralCall(op=call.group(1), routine=call.group(2))
    if slot in TIME_SLOTS:
        try:
            return RelativeTime(raw)
        except ValueError:
            pass
    m = _DATE_RE.fullmatch(raw)
    if m:
        day, month, year = (int(g) for g in m.groups())
        try:
            return dt.date(year, month, day)
        except ValueError as exc:
            raise TmrError(f"bad date {raw!r}: {exc}", source=source) from None
    m = _CLOCK_RE.fullmatch(raw)
    if m:
        hour, minute = int(m.group(1)), int(m.group(2))
        try:
            return dt.time(hour, minute)
        except ValueError as exc:
            raise TmrError(f"bad clock time {raw!r}: {exc}", source=source) from None
    if INSTANCE_RE.fullmatch(raw):
        return InstanceRef(raw)
    if CONCEPT_RE.fullmatch(raw):
        return ConceptRef(raw)
    return raw


def _parse_reference_time(raw: str, source: str) -> dt.datetime:
    parts = raw.split()
    date = clock = None
    for part in parts:
        try:
            if _DATE_RE.fullmatch(part):
                m = _DATE_RE.fullmatch(part)
                date = dt.date(int(m.group(3)), int(m.group(2)), int(m.group(1)))
            elif _CLOCK_RE.fullmatch(part):
                m = _CLOCK_RE.fullmatch(part)
                clock = dt.time(int(m.group(1)), int(m.group(2)))
            else:
                raise TmrError(f"bad reference-time {raw!r}", source=source)
        except ValueError as exc:
            raise TmrError(f"bad reference-time {raw!r}: {exc}", source=source) from None
    if date is None:
        raise TmrError(f"reference-time needs a date: {raw!r}", source=source)
    return dt.datetime.combine(date, clock or dt.time(0, 0))


_META_KEYS = {"from-sense", "word-num"}
_COREF_KEYS = {"COREF", "COREFER"}


def parse_tmr(text: str, source: str = "<string>") -> Tmr:
    """Parse and validate one TMR document; completes inverse slots."""
    data = document(decode(text, source, TmrError), SCHEMA_TMR, source, TmrError)
    raw_frames = data.get("frames", {})
    if not isinstance(raw_frames, dict):
        raise TmrError("frames must be an object", source=source)
    for key in ("speaker", "hearer"):
        if data.get(key) is not None and not isinstance(data[key], str):
            raise TmrError(f"{key} must be an instance id string, got {data[key]!r}",
                           source=source)

    frames: list[TmrFrame] = []
    for iid, body in raw_frames.items():
        concept_of(iid, source)  # validates the id shape
        if not isinstance(body, dict):
            raise TmrError(f"{iid}: frame body must be an object", source=source)
        slots: dict[str, tuple[Filler, ...]] = {}
        meta = Metadata()
        coref = None
        for prop, raw in body.items():
            if prop == "from-sense":
                meta.from_sense = str(raw)
                continue
            if prop == "word-num":
                if isinstance(raw, bool) or not isinstance(raw, int):
                    raise TmrError(f"{iid}: word-num must be an integer, got {raw!r}",
                                   source=source)
                meta.word_num = raw
                continue
            if prop in _COREF_KEYS:
                coref = str(raw)
                concept_of(coref, source)
                if coref == iid:
                    raise TmrError(f"{iid}: {prop} names the frame itself", source=source)
                continue
            values = raw if isinstance(raw, list) else [raw]
            slots[prop] = tuple(_parse_filler(prop, v, source) for v in values)
        has_meta = meta.from_sense is not None or meta.word_num is not None
        frames.append(TmrFrame(instance_id=iid, slots=slots,
                               metadata=meta if has_meta else None, coref=coref))

    ref_time = None
    if "reference-time" in data:
        ref_time = _parse_reference_time(str(data["reference-time"]), source)
    tmr = Tmr(frames=frames,
              speaker_id=data.get("speaker"),
              hearer_id=data.get("hearer"),
              reference_time=ref_time,
              source=source)
    _complete_inverses(tmr, source)
    return tmr


def parse_tmr_file(path) -> Tmr:
    return parse_tmr(read_text(path, TmrError), source=str(path))


def _complete_inverses(tmr: Tmr, source: str) -> None:
    """Make case roles and their -OF inverses mutually consistent.

    Case roles are single-valued per frame; inverses are lists. A
    completion that would force a second distinct filler into a case
    role is a contradiction.
    """
    for frame in tmr.frames:
        for role in CASE_ROLES:
            if len(frame.all(role)) > 1:
                raise TmrError(f"{frame.instance_id}: case role {role} has multiple fillers",
                               source=source)

    def add_inverse(target: TmrFrame, inverse: str, owner_id: str):
        current = list(target.slots.get(inverse, ()))
        ref = InstanceRef(owner_id)
        if ref not in current:
            current.append(ref)
            target.slots[inverse] = tuple(current)

    def set_role(target: TmrFrame, role: str, filler_id: str):
        existing = target.get(role)
        if existing is None:
            target.slots[role] = (InstanceRef(filler_id),)
        elif isinstance(existing, InstanceRef) and existing.id != filler_id:
            raise TmrError(
                f"{target.instance_id}: {role} is {existing.id} but an inverse slot names {filler_id}",
                source=source)

    for frame in tmr.frames:
        for role in CASE_ROLES:
            filler = frame.get(role)
            if isinstance(filler, InstanceRef):
                target = tmr.frame(filler.id)
                if target is None:
                    log.warning("%s: %s %s points outside the TMR", source, frame.instance_id, role)
                    continue
                add_inverse(target, role + "-OF", frame.instance_id)
        for prop in list(frame.slots):
            if not prop.endswith("-OF") or prop[:-3] not in CASE_ROLES:
                continue
            for value in frame.all(prop):
                if isinstance(value, InstanceRef):
                    owner = tmr.frame(value.id)
                    if owner is None:
                        log.warning("%s: %s %s points outside the TMR",
                                    source, frame.instance_id, prop)
                        continue
                    set_role(owner, prop[:-3], frame.instance_id)


# ---------------------------------------------------------------------------
# serialization

def _unparse_filler(value: Filler):
    if isinstance(value, InstanceRef):
        return value.id
    if isinstance(value, ConceptRef):
        return value.name
    if isinstance(value, ProceduralCall):
        return f"({value.op} {value.routine})"
    if isinstance(value, RelativeTime):
        return value.value
    if isinstance(value, dt.date):
        return f"{value.day:02d}.{value.month:02d}.{value.year:04d}"
    if isinstance(value, dt.time):
        return f"{value.hour:02d}:{value.minute:02d}"
    if isinstance(value, float):
        return int(value) if value == int(value) else value
    return value


def serialize_tmr(tmr: Tmr) -> str:
    """Canonical JSON text; stable under re-parse and re-serialize."""
    doc: dict = {"schema": SCHEMA_TMR}
    if tmr.speaker_id:
        doc["speaker"] = tmr.speaker_id
    if tmr.hearer_id:
        doc["hearer"] = tmr.hearer_id
    if tmr.reference_time is not None:
        rt = tmr.reference_time
        doc["reference-time"] = (f"{rt.day:02d}.{rt.month:02d}.{rt.year:04d} "
                                 f"{rt.hour:02d}:{rt.minute:02d}")
    frames = {}
    for frame in tmr.frames:
        body: dict = {}
        for prop, values in frame.slots.items():
            out = [_unparse_filler(v) for v in values]
            body[prop] = out[0] if len(out) == 1 and not prop.endswith("-OF") else out
        if frame.coref:
            body["COREF"] = frame.coref
        if frame.metadata is not None:
            if frame.metadata.from_sense is not None:
                body["from-sense"] = frame.metadata.from_sense
            if frame.metadata.word_num is not None:
                body["word-num"] = frame.metadata.word_num
        frames[frame.instance_id] = body
    doc["frames"] = frames
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# stripping and time

_ANCHOR_ROUTINE = "find-anchor-time"


def strip_metadata(tmr: Tmr) -> Tmr:
    """Drop analyzer provenance and normalize procedural time calls.

    from-sense/word-num disappear; a TIME call "(< find-anchor-time)"
    becomes the relative time before-reference. Everything else is
    preserved, so the operation is idempotent.
    """
    frames = []
    for frame in tmr.frames:
        slots: dict[str, tuple[Filler, ...]] = {}
        for prop, values in frame.slots.items():
            out = []
            for value in values:
                if isinstance(value, ProceduralCall):
                    if value.op == "<" and value.routine == _ANCHOR_ROUTINE:
                        value = RelativeTime.BEFORE
                    else:
                        log.warning("%s: preserving unknown time call (%s %s)",
                                    tmr.source, value.op, value.routine)
                out.append(value)
            slots[prop] = tuple(out)
        frames.append(TmrFrame(instance_id=frame.instance_id, slots=slots,
                               metadata=None, coref=frame.coref))
    return Tmr(frames=frames, speaker_id=tmr.speaker_id, hearer_id=tmr.hearer_id,
               reference_time=tmr.reference_time, source=tmr.source)


def relative_time_of(frame: TmrFrame, tmr: Tmr) -> RelativeTime | None:
    """Collapse a frame's time information to a reference-relative value."""
    time = frame.get("TIME")
    if isinstance(time, RelativeTime):
        return time
    if isinstance(time, ProceduralCall):
        if time.op == "<" and time.routine == _ANCHOR_ROUTINE:
            return RelativeTime.BEFORE
        return None
    date = frame.get("DATE")
    if isinstance(date, dt.date) and tmr.reference_time is not None:
        clock = frame.get("CLOCK-TIME")
        moment = dt.datetime.combine(date, clock if isinstance(clock, dt.time) else dt.time(0, 0))
        if moment < tmr.reference_time:
            return RelativeTime.BEFORE
        if moment > tmr.reference_time:
            return RelativeTime.AFTER
        return RelativeTime.AT
    return None


# ---------------------------------------------------------------------------
# isomorphism

# Identification attributes that episodic memory can supply on either side.
_IDENTITY_SLOTS = ("HAS-NAME",)


def _slots_match(a: TmrFrame, b: TmrFrame, ta: Tmr, tb: Tmr, mapping: dict[str, str]) -> bool:
    def normalized(frame: TmrFrame, tmr: Tmr, side_map):
        out = {}
        for prop, values in frame.slots.items():
            if prop in TIME_SLOTS or prop in _IDENTITY_SLOTS:
                continue
            normed = []
            for v in values:
                if isinstance(v, InstanceRef):
                    normed.append(("ref", side_map(v.id)))
                else:
                    normed.append(("val", _unparse_filler(v)))
            out[prop] = sorted(normed, key=repr)
        return out

    # a's refs translate into b's id space; b's refs stand as they are.
    if normalized(a, ta, lambda iid: mapping.get(iid, iid)) != \
            normalized(b, tb, lambda iid: iid):
        return False
    if relative_time_of(a, ta) != relative_time_of(b, tb):
        return False
    # coref links inside the respective TMRs must correspond; external ones are
    # discourse context and are ignored.
    a_coref = a.coref if a.coref and ta.has(a.coref) else None
    b_coref = b.coref if b.coref and tb.has(b.coref) else None
    if (a_coref is None) != (b_coref is None):
        return False
    if a_coref is not None and mapping.get(a_coref) != b_coref:
        return False
    return True


def tmr_isomorphic(a: Tmr, b: Tmr) -> tuple[bool, dict[str, str] | None]:
    """Search for an instance-id bijection preserving concepts and content slots.

    Analyzer metadata and memory-derivable identification slots are not
    structural; calendar and relative time encodings compare through
    their reference-relative normalization. Returns (found, witness).
    """
    if len(a.frames) != len(b.frames):
        return False, None
    by_concept_a: dict[str, list[TmrFrame]] = {}
    by_concept_b: dict[str, list[TmrFrame]] = {}
    for f in a.frames:
        by_concept_a.setdefault(f.concept, []).append(f)
    for f in b.frames:
        by_concept_b.setdefault(f.concept, []).append(f)
    if set(by_concept_a) != set(by_concept_b):
        return False, None
    if any(len(by_concept_a[c]) != len(by_concept_b[c]) for c in by_concept_a):
        return False, None

    groups = sorted(by_concept_a)
    for images in itertools.product(*(itertools.permutations(by_concept_b[c]) for c in groups)):
        mapping = {fa.instance_id: fb.instance_id
                   for concept, image in zip(groups, images)
                   for fa, fb in zip(by_concept_a[concept], image)}
        if all(_slots_match(fa, b.by_id[mapping[fa.instance_id]], a, b, mapping)
               for fa in a.frames):
            return True, mapping
    return False, None


def renumber(tmr: Tmr, offset: int = 100) -> Tmr:
    """Copy with every instance index shifted; handy for isomorphism tests."""
    mapping = {}
    for frame in tmr.frames:
        m = INSTANCE_RE.fullmatch(frame.instance_id)
        mapping[frame.instance_id] = f"{m.group(1)}-{int(m.group(2)) + offset}"

    def remap(value: Filler) -> Filler:
        if isinstance(value, InstanceRef) and value.id in mapping:
            return InstanceRef(mapping[value.id])
        return value

    frames = []
    for frame in tmr.frames:
        slots = {prop: tuple(remap(v) for v in values) for prop, values in frame.slots.items()}
        coref = mapping.get(frame.coref, frame.coref) if frame.coref else None
        frames.append(TmrFrame(instance_id=mapping[frame.instance_id], slots=slots,
                               metadata=frame.metadata, coref=coref))
    return Tmr(frames=frames, speaker_id=tmr.speaker_id, hearer_id=tmr.hearer_id,
               reference_time=tmr.reference_time, source=tmr.source)
