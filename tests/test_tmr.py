"""Meaning-representation parsing, completion, stripping, and isomorphism."""
from __future__ import annotations

import datetime as dt
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TMR_DIR, load_fixture
from ontogen import parse_tmr, serialize_tmr, strip_metadata, tmr_isomorphic
from ontogen.errors import MalformedInstanceId, TmrError
from ontogen.knowledge import INSTANCE_RE
from ontogen.tmr import (
    TIME_SLOTS,
    ConceptRef,
    InstanceRef,
    ProceduralCall,
    RelativeTime,
    Tmr,
    TmrFrame,
    _parse_filler,
    concept_of,
    relative_time_of,
)

ALL_FIXTURES = sorted(p.stem for p in TMR_DIR.glob("*.json"))


def _tmr(frames: dict, **extra) -> str:
    return json.dumps({"schema": "ontogen-tmr/1", "frames": frames, **extra})


def test_concept_of_strips_the_index():
    assert concept_of("FASTEN-18") == "FASTEN"
    assert concept_of("REQUEST-ACTION-1") == "REQUEST-ACTION"
    with pytest.raises(MalformedInstanceId):
        concept_of("FASTEN")


def test_fillers_equal_only_fillers_of_their_own_type():
    instance, concept, plain = InstanceRef("A"), ConceptRef("A"), ("A",)
    assert instance != concept and concept != plain and instance != plain
    assert instance == InstanceRef("A") and hash(instance) == hash(InstanceRef("A"))
    assert ProceduralCall("<", "a") == ProceduralCall("<", "a") != ProceduralCall(">", "a")
    assert repr(instance) == "InstanceRef(id='A')"


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_serialization_round_trips(name):
    first = serialize_tmr(load_fixture(name))
    again = serialize_tmr(parse_tmr(first, source=name))
    assert again == first


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_strip_is_idempotent_and_keeps_every_frame(name):
    tmr = load_fixture(name)
    once = strip_metadata(tmr)
    twice = strip_metadata(once)
    assert len(once.frames) == len(tmr.frames)
    assert serialize_tmr(twice) == serialize_tmr(once)


def test_strip_drops_source_words_and_normalizes_anchored_time():
    tmr = load_fixture("fasten_painting_nlu")
    assert any(f.metadata is not None for f in tmr.frames)
    stripped = strip_metadata(tmr)
    assert all(f.metadata is None for f in stripped.frames)
    event = stripped.by_id["FASTEN-1"]
    assert event.get("TIME") == RelativeTime.BEFORE


def test_case_role_inverses_are_completed():
    tmr = parse_tmr(_tmr({
        "FASTEN-1": {"AGENT": "HUMAN-1", "THEME": "WALL-1"},
        "HUMAN-1": {},
        "WALL-1": {},
    }))
    assert tmr.by_id["HUMAN-1"].slots["AGENT-OF"][0].id == "FASTEN-1"
    assert tmr.by_id["WALL-1"].slots["THEME-OF"][0].id == "FASTEN-1"
    # and the other direction: an inverse fills in the forward role
    tmr = parse_tmr(_tmr({
        "FASTEN-2": {},
        "HUMAN-2": {"AGENT-OF": ["FASTEN-2"]},
    }))
    assert tmr.by_id["FASTEN-2"].get("AGENT").id == "HUMAN-2"
    # an inverse naming a frame outside the TMR completes nothing
    tmr = parse_tmr(_tmr({"WALK-1": {"AGENT-OF": ["HUMAN-9"]}}))
    assert tmr.warnings == ["WALK-1 AGENT-OF points outside the TMR"]


def test_contradictory_inverse_is_rejected():
    with pytest.raises(TmrError, match="inverse"):
        parse_tmr(_tmr({
            "FASTEN-1": {"AGENT": "HUMAN-1"},
            "HUMAN-1": {},
            "HUMAN-2": {"AGENT-OF": ["FASTEN-1"]},
        }))


def test_case_roles_hold_one_filler():
    with pytest.raises(TmrError, match="multiple"):
        parse_tmr(_tmr({"FASTEN-1": {"AGENT": ["HUMAN-1", "HUMAN-2"]},
                        "HUMAN-1": {}, "HUMAN-2": {}}))


def test_duplicate_slots_are_rejected():
    text = ('{"schema": "ontogen-tmr/1", "frames": {"WALK-1": '
            '{"AGENT": "HUMAN-1", "AGENT": "HUMAN-2"}}}')
    with pytest.raises(TmrError, match="duplicate"):
        parse_tmr(text)


def test_boolean_fillers_are_rejected():
    with pytest.raises(TmrError, match="boolean"):
        parse_tmr(_tmr({"WALK-1": {"POLITENESS": True}}))


def test_procedural_calls_live_only_in_time_slots():
    tmr = parse_tmr(_tmr({"WALK-1": {"TIME": "(< find-anchor-time)"}}))
    assert relative_time_of(tmr.by_id["WALK-1"], tmr) == RelativeTime.BEFORE
    with pytest.raises(TmrError, match="procedural"):
        parse_tmr(_tmr({"WALK-1": {"AGENT": "(< find-anchor-time)"}}))


def test_bad_dates_and_clocks_are_rejected():
    with pytest.raises(TmrError, match="date"):
        parse_tmr(_tmr({"WALK-1": {"DATE": "31.02.2021"}}))
    with pytest.raises(TmrError, match="clock"):
        parse_tmr(_tmr({"WALK-1": {"CLOCK-TIME": "25:00"}}))


@pytest.mark.parametrize("text,match", [
    (_tmr({"WALK-1": {"word-num": "x"}}), "WALK-1: word-num must be an integer"),
    (json.dumps({"schema": "ontogen-tmr/1", "frames": [1, 2]}), "frames must be an object"),
    (_tmr({}, speaker=5), "speaker must be"),
    (_tmr({}, speaker=["x"]), "speaker must be"),
    (_tmr({}, hearer=5), "hearer must be"),
    (_tmr({"HUMAN-1": {"COREF": "HUMAN-1"}}), "HUMAN-1: COREF names the frame itself"),
    (_tmr({}, **{"reference-time": "32.13.2021 09:05"}), "bad reference-time"),
    (_tmr({}, **{"reference-time": "05.01.2021 25:00"}), "bad reference-time"),
    (_tmr({"PICTURE-1": {"CARDINALITY": 10 ** 400}}), "outside the float range"),
    ('{"schema": "ontogen-tmr/1", "frames": {"WALK-1": {"TIME": "x", "AGENT": "HUMAN-1", '
     '"AGENT": "HUMAN-2", "TIME": "y"}}}', "duplicate key 'AGENT'"),
    ('{"schema": "ontogen-tmr/1", "frames": {"PICTURE-1": {"CARDINALITY": 1e400}}}',
     "number 1e400 is outside the float range"),
    (_tmr({"walk": 5}), "'walk' is not CONCEPT-<digits>"),  # the id, before the body
    (_tmr({"WALK-1": 5}), "WALK-1: frame body must be an object"),
], ids=["word-num", "frames-list", "speaker-number", "speaker-list", "hearer-number",
        "self-coref", "reference-date", "reference-clock", "huge-integer", "repeated-keys",
        "huge-float", "id-shape-first", "body-not-object"])
def test_malformed_content_is_a_tmr_error(text, match):
    with pytest.raises(TmrError, match=match):
        parse_tmr(text)


def _filler_by_cascade(slot: str, raw: str):
    """Every filler pattern tried in precedence order, as the docs list them."""
    call = re.fullmatch(r"\(\s*(\S+)\s+([A-Za-z][A-Za-z0-9-]*)\s*\)", raw)
    if call:
        return ProceduralCall(call.group(1), call.group(2)) if slot == "TIME" else "error"
    if slot in TIME_SLOTS and raw in {t.value for t in RelativeTime}:
        return RelativeTime(raw)
    date = re.fullmatch(r"(\d{2})\.(\d{2})\.(\d{4})", raw)
    clock = re.fullmatch(r"(\d{1,2}):(\d{2})", raw)
    try:
        if date:
            return dt.date(int(date.group(3)), int(date.group(2)), int(date.group(1)))
        if clock:
            return dt.time(int(clock.group(1)), int(clock.group(2)))
    except ValueError:
        return "error"
    if re.fullmatch(r"[A-Z][A-Z0-9]*(?:-[A-Z0-9]+)*-[0-9]+", raw):
        return InstanceRef(raw)
    if re.fullmatch(r"[A-Z][A-Z0-9]*(?:-[A-Z0-9]+)*", raw):
        return ConceptRef(raw)
    return raw


@settings(max_examples=400, deadline=None, derandomize=True)
@given(slot=st.sampled_from(["TIME", "DATE", "CLOCK-TIME", "AGENT", "COLOR"]),
       raw=st.text(alphabet="019٣.:()<- \tAZaz-frtbeo", max_size=12)
       | st.sampled_from(["(< find-anchor-time)", "( > x )", "before-reference",
                          "at-reference", "05.01.2021", "9:02", "٠٥.٠١.٢٠٢١", "HUMAN-1",
                          "A-1-2", "HUMAN", "Human", "1-A", "", "31.02.2021", "25:00"]))
@example(slot="COLOR", raw="after-reference")
def test_filler_typing_keeps_its_precedence(slot, raw):
    expected = _filler_by_cascade(slot, raw)
    try:
        parsed = _parse_filler(slot, raw)
    except TmrError:
        parsed = "error"
    assert parsed == expected and type(parsed) is type(expected)


def test_relative_time_against_the_reference_moment():
    def walk_at(date, clock):
        return parse_tmr(_tmr({"WALK-1": {"DATE": date, "CLOCK-TIME": clock}},
                              **{"reference-time": "05.01.2021 09:05"}))

    before = walk_at("05.01.2021", "09:02")
    assert relative_time_of(before.by_id["WALK-1"], before) == RelativeTime.BEFORE
    after = walk_at("06.01.2021", "08:00")
    assert relative_time_of(after.by_id["WALK-1"], after) == RelativeTime.AFTER
    same = walk_at("05.01.2021", "09:05")
    assert relative_time_of(same.by_id["WALK-1"], same) == RelativeTime.AT
    untimed = parse_tmr(_tmr({"WALK-1": {}}))
    assert relative_time_of(untimed.by_id["WALK-1"], untimed) is None


def test_plurality_comes_from_cardinality():
    tmr = parse_tmr(_tmr({"WALK-1": {"AGENT": "HUMAN-1"},
                          "HUMAN-1": {"CARDINALITY": 3}}))
    assert tmr.by_id["HUMAN-1"].plural
    assert not tmr.by_id["WALK-1"].plural


def test_stripped_capture_matches_the_canonical_fixture():
    captured = strip_metadata(load_fixture("fasten_painting_nlu"))
    canonical = load_fixture("fasten_painting")
    ok, mapping = tmr_isomorphic(captured, canonical)
    assert ok
    assert mapping["FASTEN-1"] == "FASTEN-18"
    assert mapping["HUMAN-1"] == "HUMAN-104"
    assert mapping["PICTURE-1"] == "PICTURE-7"
    assert mapping["WALL-2"] == "WALL-40"


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_isomorphism_is_reflexive(name):
    tmr = load_fixture(name)
    ok, mapping = tmr_isomorphic(tmr, tmr)
    assert ok
    assert mapping == {f.instance_id: f.instance_id for f in tmr.frames}


def renumber(tmr: Tmr, offset: int) -> Tmr:
    """A copy with every instance index shifted by offset."""
    mapping = {}
    for frame in tmr.frames:
        m = INSTANCE_RE.fullmatch(frame.instance_id)
        mapping[frame.instance_id] = f"{m.group(1)}-{int(m.group(2)) + offset}"

    def remap(value):
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


def test_isomorphism_is_symmetric_and_survives_renumbering():
    a = load_fixture("fasten_painting")
    b = renumber(a, offset=500)
    ok_ab, forward = tmr_isomorphic(a, b)
    ok_ba, backward = tmr_isomorphic(b, a)
    assert ok_ab and ok_ba
    assert {v: k for k, v in forward.items()} == backward
    # transitivity spot check through the captured fixture
    captured = strip_metadata(load_fixture("fasten_painting_nlu"))
    ok_ca, _ = tmr_isomorphic(captured, a)
    ok_cb, _ = tmr_isomorphic(captured, b)
    assert ok_ca and ok_cb


def test_swapped_roles_break_isomorphism():
    a = parse_tmr(_tmr({
        "FASTEN-1": {"THEME": "PICTURE-1", "DESTINATION": "WALL-1"},
        "PICTURE-1": {}, "WALL-1": {},
    }))
    b = parse_tmr(_tmr({
        "FASTEN-1": {"THEME": "WALL-1", "DESTINATION": "PICTURE-1"},
        "PICTURE-1": {}, "WALL-1": {},
    }))
    ok, mapping = tmr_isomorphic(a, b)
    assert not ok
    assert mapping is None


def test_isomorphism_compares_time_by_value_and_ignores_names():
    symbolic = parse_tmr(_tmr({"WALK-1": {"AGENT": "HUMAN-1", "TIME": "before-reference"},
                               "HUMAN-1": {"HAS-NAME": "Tom"}}))
    clocked = parse_tmr(_tmr(
        {"WALK-3": {"AGENT": "HUMAN-8", "DATE": "05.01.2021", "CLOCK-TIME": "09:02"},
         "HUMAN-8": {"HAS-NAME": "Ann"}},
        **{"reference-time": "05.01.2021 09:05"}))
    ok, _ = tmr_isomorphic(symbolic, clocked)
    assert ok  # both mean past; the encoding and the names differ
    untimed = parse_tmr(_tmr({"WALK-3": {"AGENT": "HUMAN-8"}, "HUMAN-8": {}}))
    ok, _ = tmr_isomorphic(symbolic, untimed)
    assert not ok  # past against unspecified time is a real difference
    bigger = parse_tmr(_tmr({"WALK-1": {"AGENT": "HUMAN-1", "THEME": "DOG-1",
                                        "TIME": "before-reference"},
                             "HUMAN-1": {}, "DOG-1": {}}))
    ok, _ = tmr_isomorphic(symbolic, bigger)
    assert not ok
