"""Ontology reasoning, lexicon indexing, and load-time validation."""
from __future__ import annotations

import json
from itertools import product

import pytest

from conftest import KB_DIR, make_kb
from ontogen.errors import KbValidationError, SchemaError
from ontogen.knowledge import (
    ConceptConstraint,
    FacetedConstraint,
    LiteralConstraint,
    MatchDegree,
    RangeConstraint,
    load_knowledge_base,
    match_degree,
    parse_constraint,
)


def test_bundled_kb_loads_clean(kb):
    assert len(kb.ontology.concepts) == 27
    assert len(kb.lexicon) == 33
    assert len(kb.memory) == 8
    assert kb.warnings == []


def test_is_a_is_reflexive_and_transitive(kb):
    onto = kb.ontology
    for concept in onto.concepts:
        assert onto.is_a(concept, concept)
    assert onto.is_a("SHIP", "SURFACE-WATER-VEHICLE")
    assert onto.is_a("SHIP", "VEHICLE")
    assert onto.is_a("SHIP", "PHYSICAL-OBJECT")
    assert onto.is_a("SHIP", "ALL")
    assert not onto.is_a("DOG", "HUMAN")
    assert not onto.is_a("VEHICLE", "SHIP")


def test_ancestors_walk_nearest_first(kb):
    chain = list(kb.ontology.ancestors("WAITER"))
    assert chain == ["WAITER", "HUMAN", "ANIMAL", "PHYSICAL-OBJECT", "OBJECT", "ALL"]


def test_constraint_lookup_inherits_and_local_declaration_wins(tmp_path):
    kb = make_kb(tmp_path, ontology={"concepts": {
        "ALL": {"parents": []},
        "OBJECT": {"parents": ["ALL"], "slots": {"SIZE": {"sem": {"range": [0, 1]}}}},
        "BOX": {"parents": ["OBJECT"],
                "slots": {"SIZE": {"sem": {"range": [0.5, 1]}}}},
        "LID": {"parents": ["OBJECT"]},
    }})
    inherited = kb.ontology.constraint_on("LID", "SIZE")
    assert isinstance(inherited.sem, RangeConstraint)
    assert (inherited.sem.low, inherited.sem.high) == (0.0, 1.0)
    local = kb.ontology.constraint_on("BOX", "SIZE")
    assert (local.sem.low, local.sem.high) == (0.5, 1.0)
    absent = kb.ontology.constraint_on("BOX", "COLOR")
    assert kb.ontology.satisfies("anything-at-all", absent.sem)


def test_match_degree_orders_consistently_with_is_a(kb):
    onto = kb.ontology
    names = sorted(onto.concepts)
    for filler, target in product(names, names):
        degree = match_degree(onto, filler, ConceptConstraint(target))
        if filler == target:
            assert degree == MatchDegree.EXACT
        elif onto.is_a(filler, target):
            assert degree == MatchDegree.SEM
        else:
            assert degree == MatchDegree.NONE


def test_match_degree_grades_default_facet(kb):
    walker = kb.ontology.constraint_on("WALK", "AGENT")
    assert match_degree(kb.ontology, "HUMAN", walker) == MatchDegree.DEFAULT
    assert match_degree(kb.ontology, "WAITER", walker) == MatchDegree.DEFAULT
    assert match_degree(kb.ontology, "DOG", walker) == MatchDegree.SEM
    assert match_degree(kb.ontology, "WALL", walker) == MatchDegree.NONE


def test_match_degree_rewards_narrowed_override(kb):
    base = FacetedConstraint(sem=ConceptConstraint("PHYSICAL-OBJECT"))
    override = ConceptConstraint("SURFACE-WATER-VEHICLE")
    assert match_degree(kb.ontology, "SHIP", base, override) == MatchDegree.NARROW
    assert match_degree(kb.ontology, "SURFACE-WATER-VEHICLE", base, override) == MatchDegree.EXACT
    assert match_degree(kb.ontology, "WALL", base, override) == MatchDegree.NONE


def test_parse_constraint_forms():
    assert parse_constraint("HUMAN", "t") == ConceptConstraint("HUMAN")
    assert parse_constraint({"any-of": ["blue", "red"]}, "t") == LiteralConstraint(("blue", "red"))
    ranged = parse_constraint({"range": [0.6, 1]}, "t")
    assert (ranged.low, ranged.high) == (0.6, 1.0)
    with pytest.raises(KbValidationError):
        parse_constraint({"range": [0.9, 0.2]}, "t")
    with pytest.raises(KbValidationError):
        parse_constraint({"any-of": []}, "t")


def test_is_a_cycle_is_rejected_at_load(tmp_path):
    with pytest.raises(KbValidationError, match="IS-A cycle"):
        make_kb(tmp_path, ontology={"concepts": {
            "ALL": {"parents": []},
            "A": {"parents": ["B"]},
            "B": {"parents": ["A"]},
        }})


def test_unknown_parent_is_rejected(tmp_path):
    with pytest.raises(KbValidationError):
        make_kb(tmp_path, ontology={"concepts": {
            "ALL": {"parents": []},
            "A": {"parents": ["NOWHERE"]},
        }})


def _lexicon_with(sense: dict, tmp_path):
    return make_kb(tmp_path, ontology={"concepts": {
        "ALL": {"parents": []},
        "EVENT": {"parents": ["ALL"]},
    }}, lexicon={"senses": [sense]})


def test_sense_binding_must_name_a_syntax_variable(tmp_path):
    with pytest.raises(KbValidationError):
        _lexicon_with({
            "id": "act-v1", "headword": "act", "pos": "v",
            "syn-struc": [{"cat": "subj", "var": 1}, {"cat": "v", "var": 0}],
            "sem-struc": {"head": "EVENT", "slots": {"AGENT": {"var": 9}}},
        }, tmp_path)


def test_sense_head_variable_is_required_and_unique(tmp_path):
    with pytest.raises(KbValidationError):
        _lexicon_with({
            "id": "act-v1", "headword": "act", "pos": "v",
            "syn-struc": [{"cat": "subj", "var": 1}],
            "sem-struc": {"head": "EVENT", "slots": {}},
        }, tmp_path)
    with pytest.raises(KbValidationError):
        _lexicon_with({
            "id": "act-v2", "headword": "act", "pos": "v",
            "syn-struc": [{"cat": "v", "var": 0}, {"cat": "v", "var": 0}],
            "sem-struc": {"head": "EVENT", "slots": {}},
        }, tmp_path)


@pytest.mark.parametrize("sense,match", [
    ({"id": "act-v1", "headword": "act", "pos": "v", "syn-struc": [{"cat": "v"}],
      "sem-struc": {"head": "EVENT", "slots": {}}},
     "act-v1: syn-struc v node needs an integer var"),
    ("act-v1", r"senses\[0\] must be an object"),
], ids=["node-without-var", "sense-not-object"])
def test_malformed_sense_is_a_kb_validation_error(tmp_path, sense, match):
    with pytest.raises(KbValidationError, match=match):
        _lexicon_with(sense, tmp_path)


def _sense(doc: dict, sense_id: str) -> dict:
    return next(s for s in doc["senses"] if s["id"] == sense_id)


# (document, where the junk goes, the junk, the concept, sense or instance the error names)
_JUNK_BODIES = {
    "concept-body": ("ontology", lambda d: d["concepts"], "WALL", 1, "WALL"),
    "parents": ("ontology", lambda d: d["concepts"]["WALL"], "parents", 5, "WALL"),
    "slots": ("ontology", lambda d: d["concepts"]["FASTEN"], "slots", [], "FASTEN"),
    "range-single": ("ontology", lambda d: d["concepts"]["FASTEN"]["slots"], "AGENT",
                     {"sem": {"range": [1]}}, "FASTEN.AGENT"),
    "range-number": ("ontology", lambda d: d["concepts"]["FASTEN"]["slots"], "AGENT",
                     {"sem": {"range": 5}}, "FASTEN.AGENT"),
    "range-strings": ("ontology", lambda d: d["concepts"]["FASTEN"]["slots"], "AGENT",
                      {"sem": {"range": ["a", "b"]}}, "FASTEN.AGENT"),
    "any-of": ("ontology", lambda d: d["concepts"]["FASTEN"]["slots"], "AGENT",
               {"sem": {"any-of": 5}}, "FASTEN.AGENT"),
    "sem-struc": ("lexicon", lambda d: _sense(d, "fix-v2"), "sem-struc", 5, "fix-v2"),
    "syn-struc": ("lexicon", lambda d: _sense(d, "fix-v2"), "syn-struc", 5, "fix-v2"),
    "syn-struc-node": ("lexicon", lambda d: _sense(d, "fix-v2")["syn-struc"], 0, 5, "fix-v2"),
    "root": ("lexicon", lambda d: _sense(d, "fix-v2")["syn-struc"][3], "root", 5, "fix-v2"),
    "reference": ("lexicon", lambda d: _sense(d, "he-n1"), "reference", 5, "he-n1"),
    "synonyms": ("lexicon", lambda d: _sense(d, "fix-v2"), "synonyms", 5, "fix-v2"),
    "synonym-blank": ("lexicon", lambda d: _sense(d, "fix-v2"), "synonyms", ["fix", " "],
                      "fix-v2"),
    "headword-null": ("lexicon", lambda d: _sense(d, "fix-v2"), "headword", None, "fix-v2"),
    "headword-list": ("lexicon", lambda d: _sense(d, "fix-v2"), "headword", ["x"], "fix-v2"),
    "headword-blank": ("lexicon", lambda d: _sense(d, "fix-v2"), "headword", " ", "fix-v2"),
    "pos-unknown": ("lexicon", lambda d: _sense(d, "fix-v2"), "pos", "verb", "fix-v2"),
    "def": ("lexicon", lambda d: _sense(d, "fix-v2"), "def", 5, "fix-v2"),
    "ex": ("lexicon", lambda d: _sense(d, "fix-v2"), "ex", ["an example"], "fix-v2"),
    "opt": ("lexicon", lambda d: _sense(d, "fix-v2")["syn-struc"][3], "opt", "no", "fix-v2"),
    "example-bindings": ("lexicon", lambda d: _sense(d, "appreciate-v8"), "example-bindings",
                         [1], "appreciate-v8"),
    "null-sem": ("lexicon", lambda d: _sense(d, "fix-v2")["sem-struc"], "null-sem", ["x"],
                 "fix-v2"),
    "instance-body": ("memory", lambda d: d["instances"], "HUMAN-104", 5, "HUMAN-104"),
    "instance-name": ("memory", lambda d: d["instances"], "HUMAN-104", {"HAS-NAME": 5},
                      "HUMAN-104"),
}


@pytest.mark.parametrize("case", list(_JUNK_BODIES))
def test_json_shaped_junk_in_a_body_is_a_kb_validation_error(tmp_path, case):
    kind, parent, key, junk, name = _JUNK_BODIES[case]
    doc = json.loads((KB_DIR / f"{kind}.json").read_text())
    parent(doc)[key] = junk
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    files = {k: KB_DIR / f"{k}.json" for k in ("ontology", "lexicon", "memory")}
    files[kind] = path
    with pytest.raises(KbValidationError) as exc:
        load_knowledge_base(files["ontology"], files["lexicon"], files["memory"])
    assert str(exc.value).startswith(f"{path}: {name}")


def test_a_concept_declared_twice_is_rejected(tmp_path):
    onto = tmp_path / "ontology.json"
    onto.write_text('{"schema": "ontogen-kb/1", "kind": "ontology", "concepts": {'
                    '"ALL": {"parents": []}, "WALL": {"parents": ["ALL"]}, '
                    '"WALL": {"parents": []}}}')
    with pytest.raises(SchemaError, match="duplicate key 'WALL'"):
        load_knowledge_base(onto, KB_DIR / "lexicon.json", KB_DIR / "memory.json")


def test_sense_head_concept_must_exist(tmp_path):
    with pytest.raises(KbValidationError):
        _lexicon_with({
            "id": "act-v1", "headword": "act", "pos": "v",
            "syn-struc": [{"cat": "v", "var": 0}],
            "sem-struc": {"head": "MISSING", "slots": {}},
        }, tmp_path)


def test_head_concept_index(kb):
    ids = [s.id for s in kb.lexicon.senses_by_head_concept("FASTEN")]
    assert ids == ["affix-v1", "fix-v2", "moor-v1", "skewer-v1"]
    assert kb.lexicon.senses_by_head_concept("VEHICLE") == []


def test_property_index_finds_graded_modifiers(kb):
    pretty = kb.lexicon.senses_for_property(kb.ontology, "AESTHETIC-ATTRIBUTE", 0.8)
    assert {s.id for s in pretty} == {"attractive-adj1", "lovely-adj1", "pretty-adj1"}
    blue = kb.lexicon.senses_for_property(kb.ontology, "COLOR", "blue")
    assert [s.id for s in blue] == ["blue-adj1"]
    assert kb.lexicon.senses_for_property(kb.ontology, "COLOR", "green") == []


def test_memory_identification_attributes(kb):
    assert kb.memory.knows("HUMAN-104")
    assert kb.memory.get("HUMAN-104", "HAS-NAME") == "Tom"
    assert kb.memory.get("HUMAN-104", "GENDER") == "male"
    assert kb.memory.get("HUMAN-30", "HAS-NAME") is None
    assert not kb.memory.knows("HUMAN-9999")


def test_memory_instance_concepts_must_exist(tmp_path):
    with pytest.raises(KbValidationError):
        make_kb(tmp_path, ontology={"concepts": {"ALL": {"parents": []}}},
                memory={"instances": {"GHOST-1": {}}})
