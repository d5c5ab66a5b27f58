"""The edge outcomes of reading a construction against its frame.

Each row is one push-v1 syn-struc on a small lexicon and one meaning, and
either the sentences it ranks or the one syntactic exclusion it records.
The same reading decides both what pruning checks and what the sentence
says, so each row pins one rule of it end to end.
"""
from __future__ import annotations

import json

import pytest

from conftest import make_kb
from ontogen import AllSetsPruned, KbValidationError, generate, parse_tmr
from ontogen.pipeline import TraceRecord

_CONCEPTS = {
    "ALL": {"parents": []},
    "EVENT": {"parents": ["ALL"]},
    "OBJECT": {"parents": ["ALL"]},
    "HUMAN": {"parents": ["OBJECT"]},
    "BOX": {"parents": ["OBJECT"]},
    "PLACE": {"parents": ["OBJECT"]},
    "PUSH": {"parents": ["EVENT"], "slots": {
        "AGENT": {"sem": "HUMAN"}, "THEME": {"sem": "OBJECT"}, "DESTINATION": {"sem": "PLACE"}}},
}


def _noun(sense_id: str, lemma: str, head: str) -> dict:
    return {"id": sense_id, "headword": lemma, "pos": "n",
            "syn-struc": [{"cat": "n", "var": 0}], "sem-struc": {"head": head, "slots": {}}}


SUBJ, VERB, OBJECT = {"cat": "subj", "var": 1}, {"cat": "v", "var": 0}, \
    {"cat": "directobject", "var": 2}
ROLES = {"AGENT": {"var": 1}, "THEME": {"var": 2}}
PUSHED = {"PUSH-1": {"AGENT": "HUMAN-1", "THEME": "BOX-2"}, "HUMAN-1": {}, "BOX-2": {}}

# a fixed "I" subject bound to AGENT, which the verb agrees with; PUSHED_BY is
# in the past
FIXED = [{"cat": "subj", "var": 1, "root": ["I"]}, VERB, OBJECT]
PUSHED_BY = {**PUSHED, "PUSH-1": {**PUSHED["PUSH-1"], "TIME": "before-reference"}}

# (label, syn-struc, sem-struc slots, null-sem, frames or the TMR's frames
# and speaker, sentences, the excluding rule and note, or the load error)
ROWS = [
    ("unbound bare noun", [SUBJ, VERB, OBJECT, {"cat": "n", "var": 4}], ROLES, [], PUSHED,
     "push-v1: n node $var4 has no root word, and no sem-struc slot binds it"),
    # the loader lets a subject go unbound, for an embedded clause never says it
    ("unbound bare subject at the root", [SUBJ, VERB, OBJECT], {"THEME": {"var": 2}}, [],
     PUSHED, ("unfillable", "subj $var1 has no meaning to express")),
    ("optional preposition and noun, role absent",
     [SUBJ, VERB, OBJECT, {"cat": "prep", "var": 3, "root": ["to"], "opt": True},
      {"cat": "n", "var": 4, "opt": True}], {**ROLES, "DESTINATION": {"var": 4}}, [3], PUSHED,
     ["A person pushes a box."]),
    ("optional fixed word, role absent",
     [SUBJ, VERB, OBJECT, {"cat": "adv", "var": 3, "root": ["there"], "opt": True}],
     {**ROLES, "DESTINATION": {"var": 3}}, [], PUSHED, ["A person pushes a box there."]),
    ("null-sem fixed word", [SUBJ, VERB, {"cat": "adv", "var": 3, "root": ["indeed"]}, OBJECT],
     ROLES, [3], PUSHED, ["A person pushes indeed a box."]),
    ("null-sem fixed verb", [SUBJ, VERB, {"cat": "v", "var": 3, "root": ["on"]}, OBJECT],
     ROLES, [3], PUSHED, ["A person pushes on a box."]),
    ("promoted theme after the head", [VERB, SUBJ, OBJECT], ROLES, [],
     {"PUSH-1": {"THEME": "BOX-2"}, "BOX-2": {"CARDINALITY": 3}},
     ["Are pushed boxes!", "Are pushed some boxes!"]),
    # a fixed word says nothing of the absent AGENT, so no passive rescues it
    ("fixed-word subject, agent absent",
     [{"cat": "subj", "var": 1, "root": ["someone"]}, VERB, OBJECT], ROLES, [],
     {"PUSH-1": {"THEME": "BOX-2"}, "BOX-2": {}},
     ("unfillable", "subj $var1 needs AGENT, absent from the meaning")),
    ("fixed-word subject, agent present",
     [{"cat": "subj", "var": 1, "root": ["someone"]}, VERB, OBJECT], ROLES, [], PUSHED_BY,
     ["Someone pushed a box."]),
    # "I" and "you" must stand for the speaker and the hearer
    ("fixed I, the speaker the agent", FIXED, ROLES, [],
     {"speaker": "HUMAN-1", "frames": PUSHED_BY}, ["I pushed a box."]),
    ("fixed I, present", FIXED, ROLES, [], {"speaker": "HUMAN-1", "frames": PUSHED},
     ["I push a box."]),
    ("fixed you, present", [{"cat": "subj", "var": 1, "root": ["you"]}, VERB, OBJECT], ROLES,
     [], {"hearer": "HUMAN-1", "frames": PUSHED}, ["You push a box."]),
    ("fixed-word subject, present",
     [{"cat": "subj", "var": 1, "root": ["someone"]}, VERB, OBJECT], ROLES, [], PUSHED,
     ["Someone pushes a box."]),
    ("fixed I, the speaker another", FIXED, ROLES, [],
     {"speaker": "HUMAN-3", "frames": PUSHED_BY},
     ("participant-mismatch", "fixed word 'I' does not fit HUMAN-1")),
]


@pytest.fixture(scope="module")
def push_kb(tmp_path_factory):
    def kb_for(syn: list, slots: dict, null_sem: list):
        senses = [_noun("person-n1", "person", "HUMAN"), _noun("box-n1", "box", "BOX"),
                  _noun("place-n1", "place", "PLACE"),
                  {"id": "push-v1", "headword": "push", "pos": "v", "syn-struc": syn,
                   "sem-struc": {"head": "PUSH", "slots": slots, "null-sem": null_sem}}]
        return make_kb(tmp_path_factory.mktemp("kb"), ontology={"concepts": _CONCEPTS},
                       lexicon={"senses": senses})
    return kb_for


def _tmr(meaning: dict):
    doc = meaning if "frames" in meaning else {"frames": meaning}
    return parse_tmr(json.dumps({"schema": "ontogen-tmr/1", **doc}))


@pytest.mark.parametrize("label, syn, slots, null_sem, frames, expected", ROWS,
                         ids=[row[0] for row in ROWS])
def test_a_construction_reads_its_frame(push_kb, label, syn, slots, null_sem, frames, expected):
    if isinstance(expected, str):
        with pytest.raises(KbValidationError) as caught:
            push_kb(syn, slots, null_sem)
        assert str(caught.value).endswith(f"lexicon.json: {expected}")
        return
    kb, tmr = push_kb(syn, slots, null_sem), _tmr(frames)
    if isinstance(expected, list):
        assert [s.sentence for s in generate(tmr, kb).sentences] == expected
        return
    with pytest.raises(AllSetsPruned, match="syntactic") as caught:
        generate(tmr, kb)
    assert TraceRecord("syntactic", "PUSH-1/push-v1", *expected) in caught.value.trace


def test_a_root_that_takes_no_arguments_is_one_nominal(kb):
    report = generate(_tmr({"PICTURE-1": {}}), kb)
    assert [s.sentence for s in report.sentences] == ["A painting.", "A picture."]
