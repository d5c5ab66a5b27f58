"""Text meaning representations: frame graphs of concept instances.

A TMR is an ordered set of instance frames whose slots hold case roles,
attributes, and time information. Files use schema "ontogen-tmr/1".
Filler typing is conventional: UPPER-CASE-42 is an instance reference,
UPPER-CASE a concept reference, numbers are scalars, "(< routine)" is a
procedural time call, DD.MM.YYYY a calendar date, HH:MM a clock time,
and anything else a string literal. HAS-NAME and GENDER are never
typed: each holds one string, as written. A name is one line with no
white space at either end; a gender is male or female.
"""

from __future__ import annotations

import itertools
import re
from enum import Enum
from typing import TYPE_CHECKING

from .errors import MalformedInstanceId, TmrError
from .knowledge import CONCEPT_RE, INSTANCE_RE, identity_problem
from .strictjson import decode, document, encode, read_text, reading

if TYPE_CHECKING:
    # datetime is imported where a DATE, CLOCK-TIME or reference time is
    # parsed, printed or compared: most meanings hold none
    import datetime as dt

SCHEMA_TMR = "ontogen-tmr/1"

CASE_ROLES = ("AGENT", "THEME", "DESTINATION", "INSTRUMENT", "BENEFICIARY", "SOURCE")
# The inverse slots, each case role's -OF form, mapped to its role. Every
# other slot, PART-OF included, is a relation.
INVERSES = {role + "-OF": role for role in CASE_ROLES}
TIME_SLOTS = ("TIME", "DATE", "CLOCK-TIME")
# Slots whose filler is one string, kept as written and never typed.
_NAME_SLOTS = ("HAS-NAME", "GENDER")
# Bookkeeping slots that no lexical sense is asked to express.
RESERVED_SLOTS = TIME_SLOTS + ("CARDINALITY",) + _NAME_SLOTS

# Pattern texts, compiled by re on first use: only time fillers read them.
_DATE_RE = r"(\d{2})\.(\d{2})\.(\d{4})"
_CLOCK_RE = r"(\d{1,2}):(\d{2})"
_CALL_RE = r"\(\s*(\S+)\s+([A-Za-z][A-Za-z0-9-]*)\s*\)"


class RelativeTime(str, Enum):
    BEFORE = "before-reference"
    AT = "at-reference"
    AFTER = "after-reference"


class _Value:
    """A filler compared by value: equal only to a filler of the same type
    with equal fields, so InstanceRef("A"), ConceptRef("A") and ("A",)
    are pairwise unequal, as isinstance tells them apart."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash((type(self), self._fields()))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({shown})"


class InstanceRef(_Value):
    __slots__ = ("id",)

    def __init__(self, id: str):
        self.id = id


class ConceptRef(_Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class ProceduralCall(_Value):
    """A time routine recorded by an upstream analyzer, e.g. (< find-anchor-time)."""

    __slots__ = ("op", "routine")

    def __init__(self, op: str, routine: str):
        self.op = op
        self.routine = routine


# a string, so that naming dt.date here does not import datetime
Filler = "InstanceRef | ConceptRef | ProceduralCall | RelativeTime | dt.date | dt.time | float | str"


def concept_of(instance_id: str) -> str:
    """Strip the numeric index: FASTEN-18 -> FASTEN. Errors on unindexed ids."""
    m = INSTANCE_RE.fullmatch(instance_id)
    if not m:
        raise MalformedInstanceId(f"{instance_id!r} is not CONCEPT-<digits>")
    return m.group(1)


class Metadata:
    def __init__(self, from_sense: str | None = None, word_num: int | None = None):
        self.from_sense = from_sense
        self.word_num = word_num


class TmrFrame:
    """concept is the instance id without its index, read once, here."""

    def __init__(self, instance_id: str, slots: dict[str, tuple[Filler, ...]] | None = None,
                 metadata: Metadata | None = None, coref: str | None = None):
        self.instance_id = instance_id
        self.concept = concept_of(instance_id)
        self.slots = {} if slots is None else slots
        self.metadata = metadata
        self.coref = coref

    def get(self, prop: str) -> Filler | None:
        values = self.slots.get(prop)
        return values[0] if values else None

    @property
    def plural(self) -> bool:
        card = self.get("CARDINALITY")
        return isinstance(card, (int, float)) and card > 1


class Tmr:
    """The frames and their discourse setting. warnings holds what was
    found wrong, but not fatal, while this TMR was built from source."""

    def __init__(self, frames: list[TmrFrame], speaker_id: str | None = None,
                 hearer_id: str | None = None, reference_time: dt.datetime | None = None,
                 source: str = "<tmr>", warnings: list[str] | None = None):
        self.frames = frames
        self.speaker_id = speaker_id
        self.hearer_id = hearer_id
        self.reference_time = reference_time
        self.source = source
        self.warnings = [] if warnings is None else warnings
        self.by_id = {f.instance_id: f for f in frames}

    def has(self, instance_id: str) -> bool:
        return instance_id in self.by_id

    def filler(self, frame: TmrFrame, prop: str) -> Filler | None:
        """frame's first filler for prop; an instance outside this TMR
        counts as absent, so a dangling role reads as a missing one."""
        values = frame.slots.get(prop)
        if not values:
            return None
        value = values[0]
        if isinstance(value, InstanceRef) and value.id not in self.by_id:
            return None
        return value


def find_root_frame(tmr: Tmr) -> TmrFrame:
    """The first frame, in document order, that no other frame points at:
    it has no inverse slot (INVERSES) whose filler is inside the TMR. Else
    the first frame."""
    for frame in tmr.frames:
        if not any(isinstance(value, InstanceRef) and tmr.has(value.id)
                   for prop, values in frame.slots.items() if prop in INVERSES
                   for value in values):
            return frame
    return tmr.frames[0]


# ---------------------------------------------------------------------------
# parsing

_RELATIVE_TIMES = {member.value: member for member in RelativeTime}


def _parse_filler(slot: str, raw) -> Filler:
    if not isinstance(raw, str):
        if isinstance(raw, bool):
            raise TmrError(f"boolean filler in {slot}")
        if isinstance(raw, (int, float)):
            return float(raw)
        raise TmrError(f"unsupported filler {raw!r} in {slot}")
    # each pattern below fixes its first character, so at most two are tried
    first = raw[:1]
    if first == "(":
        call = re.fullmatch(_CALL_RE, raw)
        if call:
            if slot != "TIME":
                raise TmrError(f"procedural call {raw!r} outside a TIME slot")
            return ProceduralCall(op=call.group(1), routine=call.group(2))
    elif "A" <= first <= "Z":
        if INSTANCE_RE.fullmatch(raw):
            return InstanceRef(raw)
        if CONCEPT_RE.fullmatch(raw):
            return ConceptRef(raw)
    elif first.isdecimal():  # what \d matches
        return _parse_moment(raw)
    elif slot in TIME_SLOTS and raw in _RELATIVE_TIMES:
        return _RELATIVE_TIMES[raw]
    return raw


def _parse_moment(raw: str) -> Filler:
    """A DD.MM.YYYY date, an HH:MM clock time, or else the string itself."""
    m = re.fullmatch(_DATE_RE, raw)
    if m:
        import datetime as dt
        day, month, year = (int(g) for g in m.groups())
        try:
            return dt.date(year, month, day)
        except ValueError as exc:
            raise TmrError(f"bad date {raw!r}: {exc}") from None
    m = re.fullmatch(_CLOCK_RE, raw)
    if m:
        import datetime as dt
        hour, minute = int(m.group(1)), int(m.group(2))
        try:
            return dt.time(hour, minute)
        except ValueError as exc:
            raise TmrError(f"bad clock time {raw!r}: {exc}") from None
    return raw


def _parse_reference_time(raw: str) -> dt.datetime:
    import datetime as dt
    parts = raw.split()
    date = clock = None
    for part in parts:
        try:
            if m := re.fullmatch(_DATE_RE, part):
                date = dt.date(int(m.group(3)), int(m.group(2)), int(m.group(1)))
            elif m := re.fullmatch(_CLOCK_RE, part):
                clock = dt.time(int(m.group(1)), int(m.group(2)))
            else:
                raise TmrError(f"bad reference-time {raw!r}")
        except ValueError as exc:
            raise TmrError(f"bad reference-time {raw!r}: {exc}") from None
    if date is None:
        raise TmrError(f"reference-time needs a date: {raw!r}")
    return dt.datetime.combine(date, clock or dt.time(0, 0))


_COREF_KEYS = {"COREF", "COREFER"}


def parse_tmr(text: str, source: str = "<string>") -> Tmr:
    """Parse and validate one TMR document; completes inverse slots."""
    with reading(source, TmrError):
        data = document(decode(text), SCHEMA_TMR)
        raw_frames = data.get("frames", {})
        if not isinstance(raw_frames, dict):
            raise TmrError("frames must be an object")
        for key in ("speaker", "hearer"):
            if data.get(key) is not None and not isinstance(data[key], str):
                raise TmrError(f"{key} must be an instance id string, got {data[key]!r}")

        frames: list[TmrFrame] = []
        for iid, body in raw_frames.items():
            frame = TmrFrame(iid)  # reads the id once, and checks its shape before the body
            if not isinstance(body, dict):
                raise TmrError(f"{iid}: frame body must be an object")
            slots = frame.slots
            meta = coref = None
            for prop, raw in body.items():
                if prop == "from-sense":
                    meta = meta or Metadata()
                    meta.from_sense = str(raw)
                    continue
                if prop == "word-num":
                    if isinstance(raw, bool) or not isinstance(raw, int):
                        raise TmrError(f"{iid}: word-num must be an integer, got {raw!r}")
                    meta = meta or Metadata()
                    meta.word_num = raw
                    continue
                if prop in _COREF_KEYS:
                    coref = str(raw)
                    concept_of(coref)
                    if coref == iid:
                        raise TmrError(f"{iid}: {prop} names the frame itself")
                    continue
                if prop in _NAME_SLOTS:
                    if not isinstance(raw, str):
                        raise TmrError(f"{iid}: {prop} must be one string, got {raw!r}")
                    problem = identity_problem(prop, raw)
                    if problem:
                        raise TmrError(f"{iid}: {problem}")
                    slots[prop] = (raw,)
                elif isinstance(raw, list):
                    slots[prop] = tuple([_parse_filler(prop, v) for v in raw])
                else:
                    slots[prop] = (_parse_filler(prop, raw),)
            frame.metadata, frame.coref = meta, coref
            frames.append(frame)

        ref_time = None
        if "reference-time" in data:
            ref_time = _parse_reference_time(str(data["reference-time"]))
        tmr = Tmr(frames=frames,
                  speaker_id=data.get("speaker"),
                  hearer_id=data.get("hearer"),
                  reference_time=ref_time,
                  source=source)
        _complete_inverses(tmr)
    return tmr


def parse_tmr_file(path) -> Tmr:
    with reading(str(path), TmrError):
        return parse_tmr(read_text(path), str(path))


def _complete_inverses(tmr: Tmr) -> None:
    """Make case roles and their -OF inverses mutually consistent.

    Case roles are single-valued per frame; inverses are lists. A
    completion that would force a second distinct filler into a case
    role is a contradiction, whatever that role holds now.
    """
    # (frame, inverse, id) for each instance an inverse slot lists. A case
    # role whose target's inverse slot does not list its frame adds the
    # frame there, after what the slot lists, once every frame is read.
    # Until then a new slot keeps its place in the target's slots empty,
    # and the inverse loop below reads each slot without the frames added
    # to it, which it would pass: each of them names the slot's owner.
    listed = set()
    for frame in tmr.frames:
        for prop, values in frame.slots.items():
            if prop in INVERSES:
                for value in values:
                    if type(value) is InstanceRef:
                        listed.add((frame.instance_id, prop, value.id))
            elif len(values) > 1 and prop in CASE_ROLES:
                role = next(role for role in CASE_ROLES if len(frame.slots.get(role, ())) > 1)
                raise TmrError(f"{frame.instance_id}: case role {role} has multiple fillers")

    by_id = tmr.by_id
    added: dict[tuple[str, str], list[InstanceRef]] = {}
    for frame in tmr.frames:
        frame_id, slots = frame.instance_id, frame.slots
        for inverse, role in INVERSES.items():
            values = slots.get(role)
            if not values or not isinstance(values[0], InstanceRef):
                continue
            target = by_id.get(values[0].id)
            if target is None:
                tmr.warnings.append(f"{frame_id} {role} points outside the TMR")
                continue
            if (target.instance_id, inverse, frame_id) in listed:
                continue
            fillers = added.get((target.instance_id, inverse))
            if fillers is None:
                target.slots.setdefault(inverse, ())
                fillers = added[target.instance_id, inverse] = []
            fillers.append(InstanceRef(frame_id))
        for prop in list(slots):
            role = INVERSES.get(prop)
            if role is None:
                continue
            for value in slots[prop]:
                if not isinstance(value, InstanceRef):
                    continue
                owner = by_id.get(value.id)
                if owner is None:
                    tmr.warnings.append(f"{frame_id} {prop} points outside the TMR")
                    continue
                existing = owner.slots.get(role)
                if not existing:
                    owner.slots[role] = (InstanceRef(frame_id),)
                elif type(existing[0]) is not InstanceRef or existing[0].id != frame_id:
                    raise TmrError(f"{owner.instance_id}: {role} is "
                                   f"{_unparse_filler(existing[0])} but an inverse slot "
                                   f"names {frame_id}")
    for (target_id, inverse), fillers in added.items():
        by_id[target_id].slots[inverse] += tuple(fillers)


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
    if isinstance(value, float):
        return int(value) if value == int(value) else value
    if isinstance(value, str):
        return value
    import datetime as dt  # loaded already: the value is a date or a clock time
    if isinstance(value, dt.date):
        return f"{value.day:02d}.{value.month:02d}.{value.year:04d}"
    if isinstance(value, dt.time):
        return f"{value.hour:02d}:{value.minute:02d}"
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
            body[prop] = out[0] if len(out) == 1 and prop not in INVERSES else out
        if frame.coref:
            body["COREF"] = frame.coref
        if frame.metadata is not None:
            if frame.metadata.from_sense is not None:
                body["from-sense"] = frame.metadata.from_sense
            if frame.metadata.word_num is not None:
                body["word-num"] = frame.metadata.word_num
        frames[frame.instance_id] = body
    doc["frames"] = frames
    return encode(doc) + "\n"


# ---------------------------------------------------------------------------
# stripping and time

_ANCHOR_ROUTINE = "find-anchor-time"


def strip_metadata(tmr: Tmr) -> Tmr:
    """Drop analyzer provenance and normalize procedural time calls.

    from-sense/word-num disappear; a TIME call "(< find-anchor-time)"
    becomes the relative time before-reference. Everything else is
    preserved, so the operation is idempotent. The copy's warnings name
    each unknown time call it preserves.
    """
    frames = []
    warnings = []
    for frame in tmr.frames:
        slots: dict[str, tuple[Filler, ...]] = {}
        for prop, values in frame.slots.items():
            out = []
            for value in values:
                if isinstance(value, ProceduralCall):
                    if value.op == "<" and value.routine == _ANCHOR_ROUTINE:
                        value = RelativeTime.BEFORE
                    else:
                        warnings.append(f"preserving unknown time call "
                                        f"({value.op} {value.routine})")
                out.append(value)
            slots[prop] = tuple(out)
        frames.append(TmrFrame(instance_id=frame.instance_id, slots=slots,
                               metadata=None, coref=frame.coref))
    return Tmr(frames=frames, speaker_id=tmr.speaker_id, hearer_id=tmr.hearer_id,
               reference_time=tmr.reference_time, source=tmr.source, warnings=warnings)


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
    if date is None or tmr.reference_time is None:
        return None
    import datetime as dt  # loaded already: the reference time is a datetime
    if isinstance(date, dt.date):
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

