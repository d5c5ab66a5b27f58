"""Ontology reasoning, lexicon indexing, and load-time validation."""
from __future__ import annotations

import gc
import json
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from conftest import KB_DIR, TMR_DIR, cli_env, make_kb
from genscen import build_redeclared_scenario, build_scenario, isa_chain, load_kb
from ontogen import OntogenError, generate, knowledge, parse_tmr
from ontogen.cli import _render_json
from ontogen.errors import KbValidationError, SchemaError
from ontogen.knowledge import (
    ANYTHING,
    MODIFIER_POS,
    ConceptConstraint,
    FacetedConstraint,
    Grade,
    LiteralConstraint,
    MatchDegree,
    RangeConstraint,
    VarBinding,
    load_knowledge_base,
    parse_constraint,
)


def test_bundled_kb_loads_clean(kb):
    assert len(kb.ontology.concepts) == 27
    assert len(kb.lexicon.senses) == 33
    assert len(kb.memory.instances) == 8
    assert kb.warnings == []


def test_each_sense_reads_its_bound_roles_once_at_load(kb):
    taking = transitive = 0
    for sense in kb.lexicon.senses.values():
        slots = sense.sem_struc.slots
        assert sense.bound_roles == {v.var: prop for prop, v in slots.items()
                                     if isinstance(v, VarBinding)}
        assert sense.is_argument_taking == any(isinstance(v, VarBinding) for v in slots.values())
        assert sense.transitive == any(n.category == "directobject" for n in sense.syn_struc)
        # one program step per slot, in slot order: a grade for each bound one
        assert [prop for prop, _ in sense.program] == list(slots)
        assert [prop for prop, step in sense.program if isinstance(step, Grade)] == \
            list(sense.bound_roles.values())
        # stored on the sense, not rebuilt on every read
        for fact in ("bound_roles", "is_argument_taking", "transitive", "program"):
            assert vars(sense)[fact] is getattr(sense, fact)
        taking += sense.is_argument_taking
        transitive += sense.transitive
    assert 0 < transitive < taking < len(kb.lexicon.senses)


# --- tables worked out at load, against fresh computations ------------------------

_GENSCEN_SEEDS = range(0, 300, 10)
_REDECLARED_SEEDS = range(12)


@pytest.fixture(params=["bundled", *(f"genscen-{seed}" for seed in _GENSCEN_SEEDS),
                        *(f"redeclared-{seed}" for seed in _REDECLARED_SEEDS)])
def any_kb(request, kb):
    if request.param == "bundled":
        return kb
    family, seed = request.param.split("-")
    build = build_scenario if family == "genscen" else build_redeclared_scenario
    return build(int(seed))[0]


def _modifier_senses(kb, prop, value):
    """senses_for_property as a walk over the whole lexicon in sense-id order."""
    out = []
    for sid in sorted(kb.lexicon.senses):
        sense = kb.lexicon.senses[sid]
        slot = sense.sem_struc.slots.get(prop)
        if sense.pos not in MODIFIER_POS or slot is None or isinstance(slot, VarBinding):
            continue
        if isinstance(slot, float):
            if isinstance(value, (int, float)) and abs(float(value) - slot) < 1e-9:
                out.append(sense)
        elif kb.ontology.satisfies(value, slot):
            out.append(sense)
    return out


def test_the_modifier_index_equals_a_walk_over_the_lexicon(any_kb):
    kb = any_kb
    props = {prop for sense in kb.lexicon.senses.values() for prop in sense.sem_struc.slots}
    values = [*kb.ontology.concepts, "blue", "green", "tall", 0, 0.0, 0.2, 0.5, 0.8, 1.0, 2]
    for sense in kb.lexicon.senses.values():
        for slot in sense.sem_struc.slots.values():
            if isinstance(slot, float):
                values.append(slot)
            elif isinstance(slot, LiteralConstraint):
                values.extend(slot.values)
            elif isinstance(slot, RangeConstraint):
                values.extend((slot.low, slot.high))
    for prop in sorted(props) + ["NOT-A-PROPERTY"]:
        for value in values:
            found = kb.lexicon.senses_for_property(prop, value)
            assert found == _modifier_senses(kb, prop, value), (prop, value)


def _assert_constraint_on_equals_the_inherited_table(onto):
    """constraint_on against a table built as the ontology once stored it:
    each concept's ancestors' declarations, nearer ones overwriting."""
    props = sorted({prop for concept in onto.concepts.values() for prop in concept.slots})
    assert props
    for name in onto.concepts:
        inherited = {}
        for ancestor in reversed(onto.ancestors(name)):
            inherited.update(onto.concepts[ancestor].slots)
        for prop in props + ["NOT-A-PROPERTY"]:
            expected = inherited.get(prop, FacetedConstraint(sem=ANYTHING))
            assert onto.constraint_on(name, prop) == expected, (name, prop)


def test_constraint_on_equals_the_inherited_table(any_kb):
    _assert_constraint_on_equals_the_inherited_table(any_kb.ontology)


def test_the_nearest_declaration_decides_the_degree_in_a_generated_kb():
    """push-v1 heads HANDLE-EVENT, which narrows MOVE-EVENT's THEME to
    ROBOT with a ROBOT default, and it overrides THEME's sem with ROBOT
    too. Against the nearest declaration the override narrows nothing, so
    the MACHINE filler matches at the default; against MOVE-EVENT's it
    would be narrow."""
    kb, tmr = build_redeclared_scenario(10)
    onto = kb.ontology
    push = kb.lexicon.senses["push-v1"]
    override = push.sem_struc.slots["THEME"].override
    assert push.sem_struc.head == "HANDLE-EVENT"
    assert onto.constraint_on("HANDLE-EVENT", "THEME") == FacetedConstraint(
        sem=ConceptConstraint("ROBOT"), default=ConceptConstraint("ROBOT"))
    assert Grade(onto, onto.constraint_on("MOVE-EVENT", "THEME"),
                 override).degree("MACHINE") is MatchDegree.NARROW

    top = generate(tmr, kb).sentences[0]
    assert top.sentence == "A person pushes a machine."
    assert [(unit, entry.rule, entry.delta) for unit, entry in top.ledger] == [
        ("HANDLE-EVENT-1", "slot-exact", 20), ("HANDLE-EVENT-1", "slot-default", 4)]


def test_constraint_on_equals_the_inherited_table_on_a_diamond(tmp_path):
    _assert_constraint_on_equals_the_inherited_table(
        make_kb(tmp_path, ontology={"concepts": _DIAMOND}).ontology)


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
        # a constraint may name its concept in an object
        "LID": {"parents": ["OBJECT"], "slots": {"PART-OF": {"sem": {"concept": "BOX"}}}},
    }})
    assert kb.ontology.constraint_on("LID", "PART-OF").sem == ConceptConstraint("BOX")
    inherited = kb.ontology.constraint_on("LID", "SIZE")
    assert isinstance(inherited.sem, RangeConstraint)
    assert (inherited.sem.low, inherited.sem.high) == (0.0, 1.0)
    local = kb.ontology.constraint_on("BOX", "SIZE")
    assert (local.sem.low, local.sem.high) == (0.5, 1.0)
    absent = kb.ontology.constraint_on("BOX", "COLOR")
    assert kb.ontology.satisfies("anything-at-all", absent.sem)


def _size(low):
    return {"SIZE": {"sem": {"range": [low, 1]}}}


_DIAMOND = {
    "ALL": {"parents": []},
    "NEAR": {"parents": ["ALL"], "slots": _size(0.1)},
    "FAR": {"parents": ["ALL"], "slots": _size(0.2)},
    "MIDDLE": {"parents": ["FAR"]},
    "LEFT": {"parents": ["MIDDLE", "NEAR"]},
    "RIGHT": {"parents": ["NEAR", "MIDDLE"]},
}


def test_ancestry_is_breadth_first_through_multiple_parents(tmp_path):
    kb = make_kb(tmp_path, ontology={"concepts": _DIAMOND})
    onto = kb.ontology
    assert tuple(onto.ancestors("LEFT")) == ("LEFT", "MIDDLE", "NEAR", "FAR", "ALL")
    assert tuple(onto.ancestors("RIGHT")) == ("RIGHT", "NEAR", "MIDDLE", "ALL", "FAR")
    # the nearest declaration wins, even when a deeper one comes first depth-first
    assert onto.constraint_on("LEFT", "SIZE").sem.low == 0.1
    assert onto.constraint_on("MIDDLE", "SIZE").sem.low == 0.2
    assert onto.is_a("LEFT", "FAR") and not onto.is_a("NEAR", "FAR")
    for lookup in (lambda: onto.ancestors("NOWHERE"), lambda: onto.is_a("NOWHERE", "ALL"),
                   lambda: onto.is_a("ALL", "NOWHERE"),
                   lambda: onto.constraint_on("NOWHERE", "SIZE")):
        with pytest.raises(KbValidationError, match="unknown concept NOWHERE"):
            lookup()


def test_within_an_unknown_name_is_false_and_keeps_nothing(tmp_path):
    onto = make_kb(tmp_path, ontology={"concepts": _DIAMOND}).ontology
    assert onto.within("LEFT", "FAR") and not onto.within("NEAR", "FAR")

    def unbuilt(name):
        raise AssertionError(f"ancestry of {name} built")

    # a name that is no concept, such as the literal filler "home", is
    # answered from the concept table: no ancestry is built for it
    onto._chains.make = onto._lineages.make = unbuilt
    assert onto.within("NOWHERE", "ALL") is False
    assert onto.within("NOWHERE", "NOWHERE") is False
    assert onto.within("LEFT", "NOWHERE") is False
    assert "NOWHERE" not in onto._chains and "NOWHERE" not in onto._lineages


def test_is_a_names_the_unknown_ancestor_before_the_unknown_child(tmp_path):
    onto = make_kb(tmp_path, ontology={"concepts": _DIAMOND}).ontology
    with pytest.raises(KbValidationError, match="unknown concept ELSEWHERE"):
        onto.is_a("NOWHERE", "ELSEWHERE")
    with pytest.raises(KbValidationError, match="unknown concept NOWHERE"):
        onto.ancestors("NOWHERE")
    assert "NOWHERE" not in onto._chains and "NOWHERE" not in onto._lineages


def test_a_load_builds_only_the_ancestry_it_reads(monkeypatch):
    """Of a 2,000-concept IS-A chain, loading reads only the ancestry of the
    one head concept a sense binds a slot on; every other concept's is
    built when it is first read, once."""
    built = []

    def counted(concepts, name):
        built.append(name)
        return breadth_first(concepts, name)

    breadth_first = knowledge._breadth_first
    monkeypatch.setattr(knowledge, "_breadth_first", counted)
    concepts = isa_chain(2000)
    concepts["C0"]["slots"] = {"AGENT": {"sem": "C0"}}
    sense = {"id": "act-v1", "headword": "act", "pos": "v",
             "syn-struc": [{"cat": "subj", "var": 1}, {"cat": "v", "var": 0}],
             "sem-struc": {"head": "C1999", "slots": {"AGENT": {"var": 1}}}}
    onto = load_kb(concepts, [sense]).ontology
    assert built == ["C1999"] and not onto._lineages
    assert onto.ancestors("C2") == ("C2", "C1", "C0")
    assert onto.is_a("C1999", "C0") and onto.within("C1999", "C1998")
    assert not onto.within("C2", "C3")
    assert onto.ancestors("C2") == ("C2", "C1", "C0")
    assert built == ["C1999", "C2"]
    assert len(onto.ancestors("C1999")) == 2000


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("lexicon", ["lexicon.json", "malformed"])
def test_a_load_pauses_collection_and_restores_the_callers_setting(tmp_path, monkeypatch,
                                                                   collecting, lexicon):
    seen = []

    def parse_lexicon(data, onto):
        seen.append(gc.isenabled())
        return parse(data, onto)

    parse = knowledge._parse_lexicon
    monkeypatch.setattr(knowledge, "_parse_lexicon", parse_lexicon)
    lexicon_path = KB_DIR / lexicon
    if lexicon == "malformed":
        lexicon_path = tmp_path / "lexicon.json"
        lexicon_path.write_text(json.dumps(
            {"schema": "ontogen-kb/1", "kind": "lexicon", "senses": {}}))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        try:
            load_knowledge_base(KB_DIR / "ontology.json", lexicon_path, KB_DIR / "memory.json")
        except KbValidationError as exc:
            assert lexicon == "malformed" and "senses must be a list" in str(exc)
        else:
            assert lexicon != "malformed"
        assert seen == [False]
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_match_degree_orders_consistently_with_is_a(kb):
    onto = kb.ontology
    names = sorted(onto.concepts)
    for filler, target in product(names, names):
        degree = Grade(onto, FacetedConstraint(sem=ConceptConstraint(target))).degree(filler)
        if filler == target:
            assert degree == MatchDegree.EXACT
        elif onto.is_a(filler, target):
            assert degree == MatchDegree.SEM
        else:
            assert degree == MatchDegree.NONE


def test_match_degree_grades_default_facet(kb):
    walker = Grade(kb.ontology, kb.ontology.constraint_on("WALK", "AGENT"))
    assert walker.degree("HUMAN") == MatchDegree.DEFAULT
    assert walker.degree("WAITER") == MatchDegree.DEFAULT
    assert walker.degree("DOG") == MatchDegree.SEM
    assert walker.degree("WALL") == MatchDegree.NONE


def test_match_degree_rewards_narrowed_override(kb):
    grade = Grade(kb.ontology, FacetedConstraint(sem=ConceptConstraint("PHYSICAL-OBJECT")),
                  FacetedConstraint(sem=ConceptConstraint("SURFACE-WATER-VEHICLE")))
    assert grade.degree("SHIP") == MatchDegree.NARROW
    assert grade.degree("SURFACE-WATER-VEHICLE") == MatchDegree.EXACT
    assert grade.degree("WALL") == MatchDegree.NONE


@pytest.mark.parametrize("filler, base, override, narrow", [
    ("red", LiteralConstraint(("blue", "red", "green")), LiteralConstraint(("blue", "red")), True),
    (0.5, RangeConstraint(0.0, 1.0), RangeConstraint(0.2, 0.8), True),
    ("WAITER", None, ConceptConstraint("HUMAN"), True),
    (0.5, RangeConstraint(0.2, 0.8), RangeConstraint(0.2, 0.8), False),
    (0.9, RangeConstraint(0.0, 0.8), RangeConstraint(0.5, 1.0), False),
    ("red", ConceptConstraint("HUMAN"), LiteralConstraint(("blue", "red")), False),
], ids=["literal-subset", "range-inside-range", "no-ontology-sem", "equal-ranges",
        "range-past-the-ontology", "literals-for-a-concept"])
def test_an_override_strictly_tighter_than_the_ontology_is_narrow(kb, filler, base, override,
                                                                   narrow):
    degree = Grade(kb.ontology, FacetedConstraint(sem=base),
                   FacetedConstraint(sem=override)).degree(filler)
    assert degree == (MatchDegree.NARROW if narrow else MatchDegree.SEM)


# --- the load-time grades, against the degree worked out per request --------------

def _reference_satisfies(onto, filler, constraint) -> bool:
    if isinstance(constraint, ConceptConstraint):
        return isinstance(filler, str) and onto.exists(filler) \
            and onto.is_a(filler, constraint.concept)
    if isinstance(constraint, LiteralConstraint):
        return isinstance(filler, str) and filler in constraint.values
    if isinstance(constraint, RangeConstraint):
        return isinstance(filler, (int, float)) \
            and constraint.low <= float(filler) <= constraint.high
    return constraint is ANYTHING


def _reference_sem(base, over=None):
    if over is not None and over.sem is not None:
        return over.sem
    return base.sem if base.sem is not None else ANYTHING


def _reference_tighter(onto, inner, outer) -> bool:
    if outer is ANYTHING:
        return inner is not ANYTHING
    if isinstance(inner, ConceptConstraint) and isinstance(outer, ConceptConstraint):
        return inner.concept != outer.concept and onto.is_a(inner.concept, outer.concept)
    if isinstance(inner, LiteralConstraint) and isinstance(outer, LiteralConstraint):
        return set(inner.values) < set(outer.values)
    if isinstance(inner, RangeConstraint) and isinstance(outer, RangeConstraint):
        return inner != outer and outer.low <= inner.low and inner.high <= outer.high
    return False


def _reference_degree(onto, filler, base, over) -> MatchDegree:
    """The degree as selection once worked it out for every candidate slot."""
    effective = _reference_sem(base, over)
    if not _reference_satisfies(onto, filler, effective):
        return MatchDegree.NONE
    if isinstance(effective, ConceptConstraint) and filler == effective.concept:
        return MatchDegree.EXACT
    if isinstance(effective, LiteralConstraint) and len(effective.values) == 1 \
            and filler == effective.values[0]:
        return MatchDegree.EXACT
    if over is not None and over.sem is not None \
            and _reference_tighter(onto, over.sem, _reference_sem(base)):
        return MatchDegree.NARROW
    if base.default is not None and _reference_satisfies(onto, filler, base.default):
        return MatchDegree.DEFAULT
    return MatchDegree.SEM


def _reference_text(constraint) -> str:
    if isinstance(constraint, ConceptConstraint):
        return constraint.concept
    if isinstance(constraint, LiteralConstraint):
        return "|".join(constraint.values)
    if isinstance(constraint, RangeConstraint):
        return f"[{constraint.low}, {constraint.high}]"
    return "anything"


def _paint(sense_id: str, slots: dict) -> dict:
    """A PAINT sense with one bound node for each of slots' variables."""
    nodes = [{"cat": "v", "var": 0}] + [{"cat": "n", "var": slot["var"]}
                                        for slot in slots.values()]
    return {"id": sense_id, "headword": "paint", "pos": "v", "syn-struc": nodes,
            "sem-struc": {"head": "PAINT", "slots": slots}}


# sem and default facets of every kind; overrides narrower, equal, wider,
# disjoint and default-only; a slot the ontology leaves unconstrained
_GRADED_ONTOLOGY = {
    "ALL": {"parents": []},
    "EVENT": {"parents": ["ALL"]},
    "OBJECT": {"parents": ["ALL"]},
    "HUMAN": {"parents": ["OBJECT"]},
    "CHILD": {"parents": ["HUMAN"]},
    "DOG": {"parents": ["OBJECT"]},
    "SHIP": {"parents": ["OBJECT"]},
    "PAINT": {"parents": ["EVENT"], "slots": {
        "AGENT": {"sem": "HUMAN", "default": "CHILD"},
        "COLOR": {"sem": {"any-of": ["blue", "red", "green"]}, "default": {"any-of": ["blue"]}},
        "SIZE": {"sem": {"range": [0, 1]}, "default": {"range": [0.4, 0.6]}},
        "THEME": {"default": "SHIP"}}},
}
_GRADED_SENSES = [
    _paint("paint-v1", {"AGENT": {"var": 1}, "THEME": {"var": 2}, "COLOR": {"var": 3},
                        "SIZE": {"var": 4}, "LOCATION": {"var": 5}}),
    _paint("paint-v2", {"AGENT": {"var": 1, "sem": "CHILD"}, "THEME": {"var": 2, "sem": "DOG"},
                        "COLOR": {"var": 3, "sem": {"any-of": ["blue", "red"]}},
                        "SIZE": {"var": 4, "sem": {"range": [0.2, 0.8]}},
                        "LOCATION": {"var": 5, "sem": {"any-of": ["here"]}}}),
    _paint("paint-v3", {"AGENT": {"var": 1, "sem": "HUMAN"}, "THEME": {"var": 2, "default": "DOG"},
                        "COLOR": {"var": 3, "sem": {"any-of": ["red"]}},
                        "SIZE": {"var": 4, "sem": {"range": [0, 1]}}}),
    _paint("paint-v4", {"AGENT": {"var": 1, "sem": "OBJECT"},
                        "COLOR": {"var": 3, "sem": {"any-of": ["purple"]}},
                        "SIZE": {"var": 4, "sem": {"range": [0.5, 1]}},
                        "THEME": {"var": 2, "sem": "ALL", "default": "HUMAN"}}),
]


def _assert_each_grade_equals_the_reference(kb) -> int:
    """Every bound slot's grade gives the reference's degree for every
    concept, a name outside the ontology, each literal and some scalars,
    and the reference's violation text; returns how many slots it read."""
    onto = kb.ontology
    literals = {value for concept in onto.concepts.values() for facet in concept.slots.values()
                for constraint in facet if isinstance(constraint, LiteralConstraint)
                for value in constraint.values}
    graded = 0
    for sense in kb.lexicon.senses.values():
        for prop, step in sense.program:
            slot = sense.sem_struc.slots[prop]
            if not isinstance(slot, VarBinding):
                continue
            base, over = onto.constraint_on(sense.sem_struc.head, prop), slot.override
            if over is not None:
                literals.update(value for constraint in over if isinstance(constraint,
                                                                           LiteralConstraint)
                                for value in constraint.values)
            for filler in [*onto.concepts, "NOT-A-CONCEPT", *sorted(literals), 0, 0.3, 0.5, 1.0]:
                assert step.degree(filler) is _reference_degree(onto, filler, base, over), \
                    (sense.id, prop, filler)
            assert step.text == _reference_text(_reference_sem(base, over)), (sense.id, prop)
            graded += 1
    return graded


def test_each_grade_built_at_load_equals_the_reference(any_kb):
    assert _assert_each_grade_equals_the_reference(any_kb)


def test_each_grade_of_overrides_and_facets_equals_the_reference(tmp_path):
    kb = make_kb(tmp_path, ontology={"concepts": _GRADED_ONTOLOGY},
                 lexicon={"senses": _GRADED_SENSES})
    assert _assert_each_grade_equals_the_reference(kb) == 18
    fillers = {"AGENT": "CHILD", "THEME": "DOG", "COLOR": "red", "SIZE": 0.5, "LOCATION": "here"}
    program = kb.lexicon.senses["paint-v2"].program
    assert {prop: step.degree(fillers[prop]) for prop, step in program} == {"AGENT": MatchDegree.EXACT, "THEME": MatchDegree.EXACT,
                       "COLOR": MatchDegree.NARROW, "SIZE": MatchDegree.NARROW,
                       "LOCATION": MatchDegree.EXACT}


def _variant_kb_documents(tmp_path) -> dict:
    """The bundled KB with other overrides on the FASTEN senses, a WALL
    sense that binds PART-OF and a CITY sense for what it binds."""
    docs = {kind: json.loads((KB_DIR / f"{kind}.json").read_text())
            for kind in ("ontology", "lexicon", "memory")}
    lexicon = docs["lexicon"]
    for sense_id, prop, sem in (("fix-v2", "THEME", "PICTURE"), ("affix-v1", "THEME", "SHIP"),
                                ("moor-v1", "THEME", "VEHICLE"), ("skewer-v1", "AGENT", "WAITER")):
        _sense(lexicon, sense_id)["sem-struc"]["slots"][prop]["sem"] = sem
    lexicon["senses"] += [
        {"id": "rampart-n1", "headword": "rampart", "pos": "n",
         "syn-struc": [{"cat": "n", "var": 0}, {"cat": "prep", "var": 1, "root": ["of"]},
                       {"cat": "n", "var": 2}],
         "sem-struc": {"head": "WALL", "slots": {"PART-OF": {"var": 2}}}},
        {"id": "city-n1", "headword": "city", "pos": "n", "syn-struc": [{"cat": "n", "var": 0}],
         "sem-struc": {"head": "CITY", "slots": {}}}]
    paths = {}
    for kind, doc in docs.items():
        paths[kind] = tmp_path / f"{kind}.json"
        paths[kind].write_text(json.dumps(doc))
    return paths


def _isolation_texts() -> list[str]:
    """Every fixture, and fasten_painting with its wall part of a city."""
    texts = [path.read_text() for path in sorted(TMR_DIR.glob("*.json"))]
    walled = json.loads((TMR_DIR / "fasten_painting.json").read_text())
    walled["frames"]["WALL-40"]["PART-OF"] = "CITY-1"
    walled["frames"]["CITY-1"] = {}
    return texts + [json.dumps(walled)]


def _reports(kb, texts: list[str]) -> list[str]:
    """Each text's full JSON report on kb, with trace and trees, or its error."""
    out = []
    for text in texts:
        try:
            report = generate(parse_tmr(text), kb)
        except OntogenError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
        else:
            out.append(_render_json(report, len(report.sentences), True, True))
    return out


def _reports_from_a_fresh_process(paths: list[str], texts: list[str]) -> list[str]:
    """_reports in a process that loads only the KB at paths."""
    child = (f"import json, sys\n"
             f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
             f"from ontogen import load_knowledge_base\n"
             f"from test_knowledge import _reports\n"
             f"paths, texts = json.load(sys.stdin)\n"
             f"print(json.dumps(_reports(load_knowledge_base(*paths), texts)))\n")
    proc = subprocess.run([sys.executable, "-c", child], input=json.dumps([paths, texts]),
                          capture_output=True, text=True, env=cli_env(), check=True)
    return json.loads(proc.stdout)


def test_two_knowledge_bases_in_one_process_grade_apart(kb, tmp_path):
    """Each KB's tables are its own: requests alternated between the bundled
    KB and a variant give what each KB gives loaded alone."""
    variant_paths = _variant_kb_documents(tmp_path)
    variant = load_knowledge_base(*variant_paths.values())
    texts = _isolation_texts()
    alternated = {"bundled": [], "variant": []}
    for text in texts:
        alternated["bundled"] += _reports(kb, [text])
        alternated["variant"] += _reports(variant, [text])
    alone = {"bundled": _reports_from_a_fresh_process(
                 [str(KB_DIR / f"{kind}.json") for kind in ("ontology", "lexicon", "memory")],
                 texts),
             "variant": _reports_from_a_fresh_process(
                 [str(path) for path in variant_paths.values()], texts)}
    assert alternated == alone
    # the variant's overrides and its PART-OF edge change what is said
    assert sum(a != b for a, b in zip(alone["bundled"], alone["variant"])) >= 2


def _part_of_texts() -> list[str]:
    """The walled fasten_painting, and a WALL frame part of a CITY and of a
    PICTURE, each alone with what it is part of."""
    return [_isolation_texts()[-1]] + [
        json.dumps({"schema": "ontogen-tmr/1", "frames": {"WALL-40": {"PART-OF": other},
                                                          other: {}}})
        for other in ("CITY-1", "PICTURE-1")]


def test_a_relation_is_read_whatever_its_spelling(tmp_path):
    """Only the case roles' inverses are inverse slots: PART-OF, renamed
    PARTOF in the KB and the meaning alike, gives the same reports."""
    paths = _variant_kb_documents(tmp_path)
    renamed = tmp_path / "renamed"
    renamed.mkdir()
    for path in paths.values():
        (renamed / path.name).write_text(path.read_text().replace("PART-OF", "PARTOF"))
    dashed = load_knowledge_base(*paths.values())
    undashed = load_knowledge_base(*(renamed / path.name for path in paths.values()))
    for text in _part_of_texts():
        renamed_reports = _reports(undashed, [text.replace("PART-OF", "PARTOF")])
        assert _reports(dashed, [text]) == [r.replace("PARTOF", "PART-OF")
                                            for r in renamed_reports]


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


def test_an_ontology_may_have_two_roots(tmp_path):
    kb = make_kb(tmp_path, ontology={"concepts": {
        "ALL": {"parents": []},
        "OTHER": {"parents": []},
        "A": {"parents": ["OTHER"]},
    }})
    assert kb.warnings == []
    assert kb.ontology.ancestors("A") == ("A", "OTHER")


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
    ({"id": "walk-v1", "headword": "walk", "pos": "v",
      "syn-struc": [{"cat": "subj", "var": 1}, {"cat": "v", "var": 0}],
      "sem-struc": {"head": "EVENT", "slots": {"AGENT": {"var": 1}, "THEME": {"var": 1}}}},
     r"walk-v1: sem-struc binds \$var1 in both AGENT and THEME"),
    ({"id": "push-v1", "headword": "push", "pos": "v",
      "syn-struc": [{"cat": "subj", "var": 1}, {"cat": "v", "var": 0},
                    {"cat": "directobject", "var": 2}, {"cat": "n", "var": 2}],
      "sem-struc": {"head": "EVENT", "slots": {"AGENT": {"var": 1}, "THEME": {"var": 2}}}},
     r"push-v1: syn-struc has two nodes with \$var2"),
    # a second head is named as such, not as a reused variable
    ({"id": "act-v2", "headword": "act", "pos": "v",
      "syn-struc": [{"cat": "v", "var": 0}, {"cat": "v", "var": 0}],
      "sem-struc": {"head": "EVENT", "slots": {}}},
     r"act-v2: expected exactly one \$var0 head node, found 2"),
], ids=["node-without-var", "sense-not-object", "variable-bound-twice", "variable-on-two-nodes",
        "two-heads"])
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


def _setting(parent, key, value):
    def mutate(doc):
        parent(doc)[key] = value
    return mutate


def _deleting(parent, key):
    def mutate(doc):
        del parent(doc)[key]
    return mutate


def _both(*mutations):
    def mutate(doc):
        for mutation in mutations:
            mutation(doc)
    return mutate


def _fix(doc: dict) -> dict:
    return _sense(doc, "fix-v2")


# (document, the one fault put in it, the message after "<path>: ")
_LOAD_RULES = {
    "no-concepts": ("ontology", _setting(lambda d: d, "concepts", {}), "no concepts"),
    "bad-concept-name": ("ontology", _setting(lambda d: d["concepts"], "wall", {}),
                         "bad concept name 'wall'"),
    "instance-shaped-concept-name": ("ontology", _setting(lambda d: d["concepts"], "WALL-2", {}),
                                     "bad concept name 'WALL-2'"),
    "unknown-parent": ("ontology", _setting(lambda d: d["concepts"]["WALL"], "parents",
                                            ["NOWHERE"]),
                       "WALL: unknown parent NOWHERE"),
    "ontology-constraint": ("ontology", _setting(lambda d: d["concepts"]["FASTEN"]["slots"],
                                                 "AGENT", {"sem": "NOWHERE"}),
                            "FASTEN.AGENT: constraint names unknown concept NOWHERE"),
    "ontology-default": ("ontology", _setting(lambda d: d["concepts"]["FASTEN"]["slots"],
                                              "AGENT", {"sem": "HUMAN", "default": "NOWHERE"}),
                         "FASTEN.AGENT: constraint names unknown concept NOWHERE"),
    "lexicon-constraint": ("lexicon", _setting(lambda d: _fix(d)["sem-struc"]["slots"],
                                               "INSTRUMENT", "NOWHERE"),
                           "fix-v2.INSTRUMENT: constraint names unknown concept NOWHERE"),
    "lexicon-override": ("lexicon", _setting(lambda d: _fix(d)["sem-struc"]["slots"],
                                             "THEME", {"var": 2, "sem": "NOWHERE"}),
                         "fix-v2.THEME: constraint names unknown concept NOWHERE"),
    "duplicate-sense-id": ("lexicon", lambda d: d["senses"].append(dict(_fix(d))),
                           "duplicate sense id fix-v2"),
    "null-sem-undeclared": ("lexicon", _setting(lambda d: _fix(d)["sem-struc"], "null-sem",
                                                [3, 7]),
                            "fix-v2: null-sem references $var7 with no syn-struc node"),
    "null-sem-in-a-role": ("lexicon", _setting(lambda d: _fix(d)["sem-struc"], "null-sem",
                                               [3, 4]),
                           "fix-v2: null-sem variables fill case-role slots: [4]"),
    "prep-without-root": ("lexicon", _deleting(lambda d: _fix(d)["syn-struc"][3], "root"),
                          "fix-v2: prep node $var3 lacks a root word"),
    "bad-instance-id": ("memory", _setting(lambda d: d["instances"], "HUMAN", {}),
                        "bad instance id 'HUMAN'"),
    "unknown-instance-concept": ("memory", _setting(lambda d: d["instances"], "GHOST-1", {}),
                                 "GHOST-1: concept prefix GHOST is not in the ontology"),
    "ontology-facets": ("ontology", _setting(lambda d: d["concepts"]["FASTEN"]["slots"],
                                             "AGENT", "HUMAN"),
                        "FASTEN.AGENT: expected an object with sem/default facets, got 'HUMAN'"),
    "scalar-out-of-range": ("lexicon", _setting(lambda d: _fix(d)["sem-struc"]["slots"],
                                                "POLITENESS", 2),
                            "fix-v2.POLITENESS: scalar slot values must lie in [0, 1]"),
    "senses-not-a-list": ("lexicon", _setting(lambda d: d, "senses", {}),
                          "senses must be a list"),
    "sense-id-not-a-string": ("lexicon", _setting(lambda d: d["senses"][0], "id", 5),
                              "senses[0] needs a string id, got 5"),
    "reference-person": ("lexicon", _setting(lambda d: _sense(d, "i-n1")["reference"], "person",
                                             4),
                         "i-n1: reference needs person 1-3 and singular/plural"),
    "reference-gender": ("lexicon", _setting(lambda d: _sense(d, "i-n1")["reference"], "gender",
                                             "x"),
                         "i-n1: reference gender must be male or female"),
    "instances-not-an-object": ("memory", _setting(lambda d: d, "instances", []),
                                "instances must be an object"),
    # two faults: the one read first is the one reported
    "ontology-first-of-two": ("ontology", _both(
        _setting(lambda d: d["concepts"]["OBJECT"], "parents", ["NOWHERE"]),
        _setting(lambda d: d["concepts"], "DINNER", 5)),
        "OBJECT: unknown parent NOWHERE"),
    "syn-struc-before-example-bindings": ("lexicon", _both(
        _setting(lambda d: _sense(d, "appreciate-v8")["syn-struc"][1], "root", ["will", " "]),
        _setting(lambda d: _sense(d, "appreciate-v8"), "example-bindings", [1])),
        "appreciate-v8: syn-struc aux root words must not be blank"),
    "lexicon-first-of-two": ("lexicon", _both(
        _setting(lambda d: _fix(d)["sem-struc"], "head", "NOWHERE"),
        _setting(lambda d: _sense(d, "blue-adj1"), "pos", "adjective")),
        "fix-v2: sem-struc head names unknown concept NOWHERE"),
}


@pytest.mark.parametrize("case", list(_LOAD_RULES))
def test_each_load_rule_names_its_file_and_its_subject(tmp_path, case):
    kind, mutate, message = _LOAD_RULES[case]
    doc = json.loads((KB_DIR / f"{kind}.json").read_text())
    mutate(doc)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    files = {k: KB_DIR / f"{k}.json" for k in ("ontology", "lexicon", "memory")}
    files[kind] = path
    with pytest.raises(KbValidationError) as exc:
        load_knowledge_base(files["ontology"], files["lexicon"], files["memory"])
    assert str(exc.value) == f"{path}: {message}"


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


def test_each_fixed_node_word_is_resolved_once_at_load(tmp_path):
    kb = _lexicon_with({
        "id": "act-v1", "headword": "act", "pos": "v",
        "syn-struc": [{"cat": "subj", "var": 1},
                      {"cat": "aux", "var": 2, "root": ["will", "would"]},
                      {"cat": "v", "var": 0},
                      {"cat": "adv", "var": 3, "root": ["now", "soon"]},
                      {"cat": "prep", "var": 4, "root": ["to", "onto"]},
                      {"cat": "aux", "var": 5, "root": ["could", "would"]}],
        "sem-struc": {"head": "EVENT", "slots": {}},
        "example-bindings": [["Tom", 1], ["would", 2], ["later", 3], ["onto", 4], ["to", 4],
                             ["might", 5], ["would", 5]],
    }, tmp_path)
    words = [node.word for node in kb.lexicon.senses["act-v1"].syn_struc]
    # no roots; a binding among the roots; one that is not; the first of two
    # bindings, among the roots and not
    assert words == [None, "would", None, "now", "onto", "could"]


def test_head_concept_index(kb):
    ids = [s.id for s in kb.lexicon.senses_by_head_concept("FASTEN")]
    assert ids == ["affix-v1", "fix-v2", "moor-v1", "skewer-v1"]
    assert kb.lexicon.senses_by_head_concept("VEHICLE") == []


def test_property_index_finds_graded_modifiers(kb):
    pretty = kb.lexicon.senses_for_property("AESTHETIC-ATTRIBUTE", 0.8)
    assert {s.id for s in pretty} == {"attractive-adj1", "lovely-adj1", "pretty-adj1"}
    blue = kb.lexicon.senses_for_property("COLOR", "blue")
    assert [s.id for s in blue] == ["blue-adj1"]
    assert kb.lexicon.senses_for_property("COLOR", "green") == []


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
