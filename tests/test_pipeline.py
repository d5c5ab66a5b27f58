"""Staged lexical selection: extraction, reference, aggregation, pruning."""
from __future__ import annotations

import json
import math
import sys
from collections import Counter

import pytest

from conftest import KB_DIR, TMR_DIR, fixture_path, load_fixture, make_kb
from genscen import build_attached_family, rank_every_set, ranked_rows
from ontogen import (
    AllSetsPruned,
    NoRealizableSense,
    OntogenError,
    generate,
    knowledge,
    load_knowledge_base,
    parse_tmr,
    pipeline,
    solution,
    tmr as tmr_module,
)
from ontogen.pipeline import (
    TraceRecord,
    _exclude,
    aggregate_sets,
    extract_candidates,
    manage_reference,
    prune_semantic,
    prune_syntactic,
    read_construction,
    run_lexical_selection,
)


def _extract(tmr, kb):
    return extract_candidates(tmr, kb, tmr_module.find_root_frame(tmr))


def _units_for(name: str, kb, config, context=()):
    tmr = load_fixture(name)
    units = _extract(tmr, kb)
    return tmr, manage_reference(units, tmr, kb, config, context=context)


def _score(cs):
    """A set's score: its deltas' exact sum, rounded once."""
    return math.fsum(entry.delta for _, entry in cs.entries())


def _unit(units, frame_id):
    return next(u for u in units if u.key == frame_id)


def _dict_tmr(frames: dict, **extra):
    return parse_tmr(json.dumps({"schema": "ontogen-tmr/1", "frames": frames, **extra}))


# --- stage 1: candidate extraction -----------------------------------------

def test_extraction_collects_senses_per_frame(kb):
    tmr = load_fixture("fasten_painting")
    units = _extract(tmr, kb)
    by_key = {u.key: u for u in units}
    assert set(by_key) == {"FASTEN-18", "HUMAN-104", "PICTURE-7", "WALL-40"}
    assert {c.sense.id for c in by_key["FASTEN-18"].candidates} == {
        "affix-v1", "fix-v2", "moor-v1", "skewer-v1"}
    assert {c.sense.id for c in by_key["PICTURE-7"].candidates} == {
        "cityscape-n1", "graffiti-n1", "landscape-n1", "painting-n1", "picture-n1"}
    assert [c.sense.id for c in by_key["WALL-40"].candidates] == ["wall-n1"]


def test_extraction_falls_back_to_ancestor_senses(tmp_path):
    kb = make_kb(tmp_path, ontology={"concepts": {
        "ALL": {"parents": []},
        "OBJECT": {"parents": ["ALL"]},
        "CONTAINER": {"parents": ["OBJECT"]},
        "BOX": {"parents": ["CONTAINER"]},
    }}, lexicon={"senses": [{
        "id": "container-n1", "headword": "container", "pos": "n",
        "syn-struc": [{"cat": "n", "var": 0}],
        "sem-struc": {"head": "CONTAINER", "slots": {}},
    }]})
    units = _extract(_dict_tmr({"BOX-1": {}}), kb)
    candidate = units[0].candidates[0]
    assert candidate.sense.id == "container-n1"
    assert any(entry.rule == "ancestor-fallback" for entry in candidate.ledger)


def test_extraction_fails_when_nothing_can_express_a_frame(kb):
    # no sense heads MEAL or anything above it
    with pytest.raises(NoRealizableSense):
        _extract(_dict_tmr({"MEAL-1": {}}), kb)


def test_extraction_spawns_modifier_units(kb):
    tmr = load_fixture("funny_waiter")
    units = _extract(tmr, kb)
    mods = [u for u in units if u.kind == "modifier"]
    assert len(mods) == 1
    assert mods[0].key == "WAITER-5/HUMOR-ATTRIBUTE"
    assert [c.sense.id for c in mods[0].candidates] == ["funny-adj1"]
    assert mods[0].value == 0.8


# --- stage 2: reference management ------------------------------------------

def test_speaker_and_hearer_become_participant_pronouns(kb, config):
    _, units = _units_for("speaker_agent", kb, config)
    speaker = _unit(units, "HUMAN-1")
    assert [c.sense.id for c in speaker.candidates] == ["i-n1"]
    assert all(c.is_pronoun for c in speaker.candidates)

    _, units = _units_for("hearer_agent", kb, config)
    hearer = _unit(units, "HUMAN-2")
    assert [c.sense.id for c in hearer.candidates] == ["you-n1"]


def test_named_human_realizes_as_name_until_it_enters_the_context(kb, config):
    _, units = _units_for("walk_named_agent", kb, config)
    agent = _unit(units, "HUMAN-77")
    assert [c.lemma for c in agent.candidates] == ["Johnny"]
    assert agent.candidates[0].proper

    _, units = _units_for("walk_named_agent", kb, config, context=("HUMAN-77",))
    agent = _unit(units, "HUMAN-77")
    lemmas = {c.lemma for c in agent.candidates}
    assert "Johnny" in lemmas
    pronouns = [c for c in agent.candidates if c.is_pronoun]
    assert [c.sense.id for c in pronouns] == ["he-n1"]
    assert any(e.rule == "reference-pronoun" for c in pronouns for e in c.ledger)


def test_known_plural_human_pronominalizes_as_they(kb, config):
    _, units = _units_for("moor_ship", kb, config)
    agent = _unit(units, "HUMAN-30")
    ids = [c.sense.id for c in agent.candidates]
    assert "they-n1" in ids
    assert all(c.is_pronoun or c.determiner == "definite" for c in agent.candidates)


def test_new_referents_take_indefinite_or_plural_articles(kb, config):
    _, units = _units_for("fasten_painting", kb, config)
    assert {c.determiner for c in _unit(units, "PICTURE-7").candidates} == {"indefinite"}

    _, units = _units_for("plural_paintings", kb, config)
    assert {c.determiner for c in _unit(units, "PICTURE-8").candidates} == {"some", "bare"}


def test_coreferred_object_gets_definite_and_a_pronoun_clone(kb, config):
    tmr, units = _units_for("fasten_painting_nlu", kb, config)
    wall = _unit(units, "WALL-2")
    determiners = [c.determiner for c in wall.candidates if c.pronoun_form is None]
    assert determiners == ["definite"]
    clones = [c for c in wall.candidates if c.pronoun_form]
    assert [(c.pronoun_form, c.determiner) for c in clones] == [("it", "none")]
    assert any(e.rule == "reference-pronoun" for c in clones for e in c.ledger)


def test_fresh_objects_never_pronominalize(kb, config):
    _, units = _units_for("fasten_painting", kb, config)
    wall = _unit(units, "WALL-40")  # coreferring frame absent here
    assert all(c.pronoun_form is None for c in wall.candidates)


def _survivors_for(name: str, kb, config):
    tmr, units = _units_for(name, kb, config)
    trace = {}
    return prune_syntactic(prune_semantic(units, tmr, config, trace), tmr,
                           tmr_module.find_root_frame(tmr), trace)


def test_each_stage_narrows_the_units_it_is_given_in_place(kb, config):
    tmr = load_fixture("fasten_painting")
    units = _extract(tmr, kb)
    given = list(units)
    trace = {}
    assert manage_reference(units, tmr, kb, config) is units
    assert prune_semantic(units, tmr, config, trace) is units
    assert prune_syntactic(units, tmr, tmr_module.find_root_frame(tmr), trace) is units
    assert all(a is b for a, b in zip(units, given, strict=True))
    assert [c.sense.id for c in _unit(units, "FASTEN-18").candidates] == ["affix-v1", "fix-v2"]


# --- stage 3: semantic pruning -----------------------------------------------

def test_running_example_excludes_narrow_and_content_mismatched_senses(kb):
    report = generate(load_fixture("fasten_painting"), kb)
    semantic = [(r.subject, r.rule, r.note) for r in report.trace if r.stage == "semantic"]
    assert ("FASTEN-18/moor-v1", "argument-mismatch",
            "THEME PICTURE violates SURFACE-WATER-VEHICLE") in semantic
    assert ("FASTEN-18/skewer-v1", "argument-mismatch",
            "asserts INSTRUMENT SKEWER, absent from the meaning") in semantic
    for sense, asserted in (("cityscape-n1", "DEPICTS CITY"),
                            ("landscape-n1", "DEPICTS COUNTRYSIDE"),
                            ("graffiti-n1", "LOCATION EXTERIOR-BUILDING-PART")):
        notes = [note for subject, rule, note in semantic
                 if subject == f"PICTURE-7/{sense}" and rule == "content-mismatch"]
        assert notes and all(f"asserts {asserted}" in note for note in notes)


def test_excluded_senses_never_reach_a_sentence(kb):
    report = generate(load_fixture("fasten_painting"), kb)
    for scored in report.sentences:
        for banned in ("moor-v1", "skewer-v1", "cityscape-n1", "graffiti-n1", "landscape-n1"):
            assert banned not in scored.signature


def test_narrowed_theme_earns_exact_narrow_and_content_bonuses(kb):
    report = generate(load_fixture("moor_ship"), kb)
    top = report.sentences[0]
    assert top.sentence == "They moored the ship."
    rules = {}
    for _, entry in top.ledger:
        rules.setdefault(entry.rule, 0)
        rules[entry.rule] += entry.delta
    assert rules["slot-exact"] == 20.0       # AGENT HUMAN hits the constraint exactly
    assert rules["slot-narrow"] == 10.0      # SHIP under the narrowed vessel override
    assert rules["content-match"] == 20.0    # asserted anchor is in the meaning
    assert rules["reference-pronoun"] == 2.0
    assert sum(rules.values()) == 52.0


def test_unexpressed_meaning_slots_are_penalized(kb):
    report = generate(load_fixture("moor_ship"), kb)
    fixers = [s for s in report.sentences if "fix-v2" in s.signature]
    assert fixers
    for scored in fixers:
        notes = [entry.note for _, entry in scored.ledger if entry.rule == "uncovered-slot"]
        assert "INSTRUMENT is not expressed by fix-v2" in notes


def test_default_facet_match_earns_the_default_bonus(kb):
    report = generate(load_fixture("walk_intransitive"), kb)
    top = report.sentences[0]
    entries = [entry for _, entry in top.ledger if entry.rule == "slot-default"]
    assert len(entries) == 1
    assert entries[0].delta == 4.0
    assert "AGENT HUMAN" in entries[0].note


def test_feature_distance_grades_the_bonus_and_prunes_beyond_tolerance(kb, config):
    tmr = _dict_tmr({
        "REQUEST-ACTION-1": {"AGENT": "HUMAN-1", "BENEFICIARY": "HUMAN-2",
                             "THEME": "PREPARE-FOOD-1",
                             "POLITENESS": 0.9, "REFUSAL-OPPORTUNITY": 0.9},
        "PREPARE-FOOD-1": {"AGENT": "HUMAN-2", "THEME": "DINNER-1"},
        "HUMAN-1": {}, "HUMAN-2": {}, "DINNER-1": {},
    }, speaker="HUMAN-1", hearer="HUMAN-2")
    result = run_lexical_selection(tmr, kb, config)
    appreciations = [cs for cs in result.sets
                     if cs.choices["REQUEST-ACTION-1"].sense.id == "appreciate-v8"]
    assert appreciations
    graded = [entry.delta for _, entry in appreciations[0].entries()
              if entry.rule == "feature-match"]
    assert graded.count(6) == 2  # politeness and refusal-opportunity, 0.1 away each
    assert any(r.subject == "REQUEST-ACTION-1/dammit-v1" and r.rule == "feature-mismatch"
               for r in result.trace)


_BOX_ONTOLOGY = {"concepts": {"ALL": {"parents": []}, "OBJECT": {"parents": ["ALL"]},
                              "BOX": {"parents": ["OBJECT"]}}}


@pytest.mark.parametrize("weight, sentence, entry", [
    (0.9, "A heavy box.", ("BOX-1/WEIGHT", "feature-match", 10, "WEIGHT 0.9 fits the modifier")),
    (0.5, "A box.", ("BOX-1", "uncovered-slot", -5, "WEIGHT is not expressed by box-n1")),
], ids=["its-value", "another-value"])
def test_a_scalar_modifier_slot_covers_only_its_own_value(tmp_path, weight, sentence, entry):
    kb = make_kb(tmp_path, ontology=_BOX_ONTOLOGY, lexicon={"senses": [
        {"id": "box-n1", "headword": "box", "pos": "n", "syn-struc": [{"cat": "n", "var": 0}],
         "sem-struc": {"head": "BOX", "slots": {}}},
        {"id": "heavy-adj1", "headword": "heavy", "pos": "adj",
         "syn-struc": [{"cat": "adj", "var": 0}],
         "sem-struc": {"head": "OBJECT", "slots": {"WEIGHT": 0.9}}}]})
    report = generate(_dict_tmr({"BOX-1": {"WEIGHT": weight}}), kb)
    assert [(s.sentence, s.ledger) for s in report.sentences] == [
        (sentence, ((entry[0], pipeline.LedgerEntry(*entry[1:])),))]


@pytest.mark.parametrize("slots, frames, modifiers", [
    ({"COLOR": {"concept": "OBJECT"}}, {"BOX-1": {"COLOR": "OBJECT"}}, ["BOX-1/COLOR"]),
    ({"THEME": {"concept": "OBJECT"}}, {"BOX-1": {"THEME": "OBJECT"}}, []),
    ({"CARDINALITY": 1}, {"BOX-1": {"CARDINALITY": 1}}, []),
    ({"COLOR": {"concept": "OBJECT"}}, {"BOX-1": {"COLOR": "BOX-2"}, "BOX-2": {}}, []),
], ids=["a-concept", "a-case-role", "a-reserved-slot", "an-instance"])
def test_a_modifier_says_a_property_a_concept_or_a_value_fills(tmp_path, slots, frames,
                                                               modifiers):
    """A modifier sense that covers a case role or a reserved slot, or a
    property an instance fills, makes no modifier unit: the role is a
    phrase's, the slot the engine's, and the instance its own frame's."""
    kb = make_kb(tmp_path, ontology=_BOX_ONTOLOGY, lexicon={"senses": [
        {"id": "box-n1", "headword": "box", "pos": "n", "syn-struc": [{"cat": "n", "var": 0}],
         "sem-struc": {"head": "BOX", "slots": {}}},
        {"id": "odd-adj1", "headword": "odd", "pos": "adj",
         "syn-struc": [{"cat": "adj", "var": 0}],
         "sem-struc": {"head": "OBJECT", "slots": slots}}]})
    units = _extract(_dict_tmr(frames), kb)
    assert [unit.key for unit in units if unit.kind == "modifier"] == modifiers


def test_each_excluded_candidate_is_traced_once(kb):
    report = generate(load_fixture("moor_ship"), kb)
    assert [(r.stage, r.subject) for r in report.trace] == [
        ("semantic", "FASTEN-7/skewer-v1")]
    for name in ("fasten_painting", "plural_paintings", "fasten_painting_nlu"):
        trace = generate(load_fixture(name), kb).trace
        assert len(set(trace)) == len(trace)


def test_a_candidate_excluded_twice_for_one_reason_is_traced_once(kb, config):
    _, units = _units_for("moor_ship", kb, config)
    choice = _unit(units, "HUMAN-30").candidates[0]
    trace: dict[TraceRecord, None] = {}
    for copy in (choice, choice._replace(determiner="definite")):
        _exclude(trace, "syntactic", copy, "unfillable", "no meaning to express")
    assert list(trace) == [TraceRecord("syntactic", f"HUMAN-30/{choice.sense.id}",
                                       "unfillable", "no meaning to express")]


# --- stage 4: syntactic pruning ----------------------------------------------

def test_missing_agent_rescues_transitives_into_the_passive(kb, config):
    tmr = load_fixture("fasten_passive")
    result = run_lexical_selection(tmr, kb, config)
    assert result.sets
    assert all(cs.choices["FASTEN-9"].reading[0] for cs in result.sets)


def test_a_request_reads_each_construction_once_at_syntactic_pruning(kb, monkeypatch):
    """The plan is built from the reading pruning kept on the candidate, so
    no construction is read again to compile it."""
    read, reached = [], []

    def read_counted(tmr, frame, sense, embedded):
        read.append((frame.instance_id, sense.id))
        return read_construction(tmr, frame, sense, embedded)

    def prune_counted(units, tmr, root, trace):
        reached.extend((unit.frame_id, choice.sense.id) for unit in units
                       for choice in unit.candidates if choice.sense.is_argument_taking)
        return prune_syntactic(units, tmr, root, trace)

    monkeypatch.setattr(pipeline, "read_construction", read_counted)
    monkeypatch.setattr(pipeline, "prune_syntactic", prune_counted)
    assert not hasattr(solution, "read_construction")
    for path in sorted(TMR_DIR.glob("*.json")):
        if path.stem != "empty":
            assert generate(load_fixture(path.stem), kb).sentences
    assert read == reached
    assert len(read) == 33


def test_pruning_narrows_each_candidate_record_in_place(kb, monkeypatch):
    """Semantic and syntactic pruning write what they decide on the records
    they keep, so neither copies one, and each record syntactic pruning
    keeps is one semantic pruning received. Only a second option from one
    base is a copy: a plural pair, a pronoun clone, a synonym clone."""
    copied, received, kept = [], [], []
    replace = pipeline.CandidateSense._replace

    def replace_counted(choice, **changes):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):  # a comprehension's own frame
            caller = caller.f_back
        copied.append(caller.f_code.co_name)
        return replace(choice, **changes)

    def semantic_recorded(units, *args):
        received.append([choice for unit in units for choice in unit.candidates])
        return prune_semantic(units, *args)

    def syntactic_recorded(units, *args):
        units = prune_syntactic(units, *args)
        kept.append([choice for unit in units for choice in unit.candidates])
        return units

    monkeypatch.setattr(pipeline.CandidateSense, "_replace", replace_counted)
    monkeypatch.setattr(pipeline, "prune_semantic", semantic_recorded)
    monkeypatch.setattr(pipeline, "prune_syntactic", syntactic_recorded)
    for path in sorted(TMR_DIR.glob("*.json")):
        if path.stem != "empty":
            assert generate(load_fixture(path.stem), kb).sentences
    assert Counter(copied) == {"manage_reference": 7, "aggregate_sets": 21}
    assert len(received) == len(kept) == 15
    for before, after in zip(received, kept):
        assert {id(choice) for choice in after} <= {id(choice) for choice in before}


def test_selection_grades_from_the_tables_built_at_load(kb, monkeypatch):
    """A request reads each slot's grade and text from its sense's program:
    over a cycle of the fixtures, nothing works out an effective sem facet,
    a narrowness or a constraint's text, which loading the KB does."""
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for module in [module for name, module in sys.modules.items()
                   if name == "ontogen" or name.startswith("ontogen.")]:
        for name in ("effective_sem", "_strictly_tighter", "constraint_text"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for path in sorted(TMR_DIR.glob("*.json")):
        if path.stem != "empty":
            assert generate(load_fixture(path.stem), kb).sentences
    assert calls == {}
    load_knowledge_base(KB_DIR / "ontology.json", KB_DIR / "lexicon.json", KB_DIR / "memory.json")
    assert set(calls) == {"effective_sem", "_strictly_tighter", "constraint_text"}


def test_nothing_survives_a_meaning_no_sense_can_host(kb, config):
    with pytest.raises(AllSetsPruned, match="syntactic"):
        run_lexical_selection(_dict_tmr({"WALK-9": {}}), kb, config)


def test_supplied_theme_kills_intransitive_senses(kb, config):
    result = run_lexical_selection(load_fixture("walk_transitive"), kb, config)
    assert all(cs.choices["WALK-6"].sense.id == "walk-v2" for cs in result.sets)
    assert any(r.rule == "unhosted-theme" and r.subject == "WALK-6/walk-v1"
               for r in result.trace)


def test_wrong_beneficiary_breaks_fixed_participant_words(kb, config):
    tmr = _dict_tmr({
        "REQUEST-ACTION-1": {"AGENT": "HUMAN-1", "BENEFICIARY": "HUMAN-3",
                             "THEME": "PREPARE-FOOD-1",
                             "POLITENESS": 0.8, "REFUSAL-OPPORTUNITY": 0.8},
        "PREPARE-FOOD-1": {"AGENT": "HUMAN-3", "THEME": "DINNER-1"},
        "HUMAN-1": {}, "HUMAN-3": {}, "DINNER-1": {},
    }, speaker="HUMAN-1", hearer="HUMAN-2")
    with pytest.raises(AllSetsPruned) as exc:
        run_lexical_selection(tmr, kb, config)
    assert any(r.rule == "participant-mismatch" for r in exc.value.trace)


def test_a_noun_for_a_frame_every_reading_says_through_v_is_excluded(tmp_path, kb):
    """Every sense of the request says PREPARE-FOOD-1 through a "v" node, so
    a noun sense of PREPARE-FOOD cannot fill it: the noun is excluded, and
    the request says only its verb phrases."""
    docs = {kind: json.loads((TMR_DIR.parent / "kb" / f"{kind}.json").read_text())
            for kind in ("ontology", "lexicon")}
    docs["lexicon"]["senses"].append({
        "id": "cookery-n1", "headword": "cookery", "pos": "n",
        "syn-struc": [{"cat": "n", "var": 0}],
        "sem-struc": {"head": "PREPARE-FOOD", "slots": {}}})
    report = generate(load_fixture("request_polite"), make_kb(tmp_path, **docs))
    assert [s.sentence for s in report.sentences] == \
        [s.sentence for s in generate(load_fixture("request_polite"), kb).sentences]
    assert [record for record in report.trace if record.rule == "verb-slot"] == [TraceRecord(
        "syntactic", "PREPARE-FOOD-1/cookery-n1", "verb-slot",
        "every reading left says PREPARE-FOOD-1 through v, as a verb phrase, and cookery-n1 "
        "takes no arguments")]


def test_modified_referents_cannot_be_pronouns(kb, config):
    result = run_lexical_selection(load_fixture("blue_painting"), kb, config)
    assert any(r.rule == "pronoun-with-modifiers" for r in result.trace)
    for cs in result.sets:
        choice = cs.choices["PICTURE-3"]
        assert choice.pronoun_form is None
        assert choice.modifiers == ("COLOR",)


@pytest.mark.parametrize("fixture, referent", [("speaker_agent", "HUMAN-1"),
                                                ("hearer_agent", "HUMAN-2")])
def test_a_modified_speaker_or_hearer_cannot_be_a_pronoun_either(kb, config, fixture, referent):
    doc = json.loads(fixture_path(fixture).read_text())
    doc["frames"][referent]["HUMOR-ATTRIBUTE"] = 0.8
    with pytest.raises(AllSetsPruned) as exc:
        generate(parse_tmr(json.dumps(doc)), kb, config)
    assert [r.rule for r in exc.value.trace if r.subject.startswith(f"{referent}/")] \
        == ["pronoun-with-modifiers"]


# --- stage 5: aggregation ----------------------------------------------------

def _bases(sets):
    """The sets that clone no synonym."""
    return [cs for cs in sets if not any(c.lemma_override for c in cs.choices.values())]


def test_aggregation_is_the_cartesian_product_of_units(kb, config):
    survivors = _survivors_for("fasten_painting", kb, config)
    assert [c.sense.id for c in _unit(survivors, "FASTEN-18").candidates] == [
        "affix-v1", "fix-v2"]
    sets, messages = aggregate_sets(survivors, config)
    expected = math.prod(len(unit.candidates) for unit in survivors)
    assert expected == 4
    assert len(_bases(sets)) == expected
    assert len({cs.signature() for cs in _bases(sets)}) == expected
    assert messages == []
    counts = run_lexical_selection(load_fixture("fasten_painting"), kb, config).counts
    assert counts["after-syntactic"] == expected
    assert counts["sets"] == math.prod(
        len(unit.candidates) for unit in _units_for("fasten_painting", kb, config)[1])


def test_aggregation_cap_truncates_with_a_message(kb, config):
    survivors = _survivors_for("fasten_painting", kb, config)
    full, _ = aggregate_sets(survivors, config)
    sets, messages = aggregate_sets(survivors, config._replace(set_cap=3))
    assert len(_bases(sets)) == 3
    assert [cs.signature() for cs in sets] == [cs.signature() for cs in full[:len(sets)]]
    assert len(messages) == 1
    assert "3" in messages[0]


def _with_frames(name: str, frames: dict):
    doc = json.loads(fixture_path(name).read_text())
    doc["frames"].update(frames)
    return parse_tmr(json.dumps(doc))


def _same_but_one_note(report, alone, note: str) -> None:
    """report ranks, counts and traces as alone, and adds only note."""
    assert ranked_rows(report.sentences) == ranked_rows(alone.sentences)
    assert report.counts == alone.counts
    assert report.trace == alone.trace
    assert report.messages == [note, *alone.messages]


@pytest.mark.parametrize("silent", [5, 6])
def test_silent_frames_past_the_cap_stay_expressible(kb, silent):
    """Slotless PICTURE frames that nothing attaches to, enough that their
    candidates would pass the default cap if they were combined: they
    leave the candidate sets, so nothing is truncated."""
    tmr = _with_frames("fasten_painting",
                       {f"PICTURE-{ident}": {} for ident in range(101, 101 + silent)})
    report = generate(tmr, kb)
    assert len(report.sentences) == 10
    assert report.counts["sets"] == 20
    ids = ", ".join(f"PICTURE-{ident}" for ident in range(101, 101 + silent))
    _same_but_one_note(report, generate(load_fixture("fasten_painting"), kb),
                       f"{ids} not expressed: nothing attaches them to FASTEN-18")


# --- frames the root never reaches -------------------------------------------

@pytest.mark.parametrize("silent", range(7))
def test_silent_frames_do_not_multiply_the_sets_built(kb, silent):
    tmr = _with_frames("fasten_painting",
                       {f"PICTURE-{ident}": {} for ident in range(101, 101 + silent)})
    report = generate(tmr, kb)
    assert report.counts["units"] == 4
    assert report.counts["after-syntactic"] == 4
    assert report.counts["after-synonyms"] == 10
    assert len(report.sentences) == 10
    assert len(report.messages) == (silent > 0)


def test_only_the_frames_the_root_reaches_are_extracted(kb):
    tmr = _with_frames("fasten_painting", {"PICTURE-101": {}, "PICTURE-102": {"COLOR": "blue"}})
    assert [unit.key for unit in _extract(tmr, kb)] == [
        unit.key for unit in _extract(load_fixture("fasten_painting"), kb)]


@pytest.mark.parametrize("agent", [{}, {"AGENT": "HUMAN-104"}], ids=["agentless", "shared-agent"])
def test_an_unattached_event_is_named_in_one_note(kb, agent):
    """A FASTEN frame that nothing attaches to, with its own modified
    PICTURE and WALL, beside a named HUMAN: none of them is scored, and one
    note names them all. Sharing the root's agent attaches the frame only
    through the agent's AGENT-OF inverse, which no sense binds, so the
    frame stays unreached."""
    tmr = _with_frames("fasten_painting", {
        "FASTEN-99": {**agent, "THEME": "PICTURE-99", "DESTINATION": "WALL-99"},
        "PICTURE-99": {"COLOR": "BLUE"},
        "WALL-99": {},
        "HUMAN-99": {"HAS-NAME": "Ann", "GENDER": "female"},
    })
    report = generate(tmr, kb)
    assert ranked_rows(report.sentences) == rank_every_set(tmr, kb)
    assert all("FASTEN-99" not in s.signature for s in report.sentences)
    _same_but_one_note(report, generate(load_fixture("fasten_painting"), kb),
                       "FASTEN-99, PICTURE-99, WALL-99, HUMAN-99 not expressed: "
                       "nothing attaches them to FASTEN-18")


def test_a_silent_frame_is_neither_pruned_nor_traced(kb):
    """WALK-99 has no AGENT, so every sense of it would be pruned; it is
    not reached, so it is not checked and the meaning stays expressible."""
    report = generate(_with_frames("fasten_painting", {"WALK-99": {}}), kb)
    assert not any(r.subject.startswith("WALK-99/") for r in report.trace)
    _same_but_one_note(report, generate(load_fixture("fasten_painting"), kb),
                       "WALK-99 not expressed: nothing attaches it to FASTEN-18")


def test_an_unreached_frame_needs_no_sense(kb):
    """No sense heads MEAL or anything above it, which ends the request only
    when the root reaches the frame."""
    report = generate(_with_frames("fasten_painting", {"MEAL-1": {}}), kb)
    _same_but_one_note(report, generate(load_fixture("fasten_painting"), kb),
                       "MEAL-1 not expressed: nothing attaches it to FASTEN-18")
    with pytest.raises(NoRealizableSense):
        generate(_with_frames("fasten_painting", {
            "MEAL-1": {}, "PICTURE-7": {"THEME-OF": "FASTEN-18", "DEPICTS": "MEAL-1"}}), kb)


def test_an_inverse_slot_a_sense_binds_is_followed(tmp_path):
    """A relation that a sense binds puts its filler in the sentence, so the
    filler's frame is reached and keeps every candidate. TOPIC-OF is not a
    case role's inverse, so it is a relation like any other slot."""
    human = {"id": "person-n1", "headword": "person", "pos": "n",
             "syn-struc": [{"cat": "n", "var": 0}], "sem-struc": {"head": "HUMAN", "slots": {}}}
    kb = make_kb(tmp_path, ontology={"concepts": {
        "ALL": {"parents": []},
        "OBJECT": {"parents": ["ALL"]},
        "HUMAN": {"parents": ["OBJECT"]},
        "EVENT": {"parents": ["ALL"]},
        "WANT": {"parents": ["EVENT"], "slots": {"AGENT": {"sem": "HUMAN"},
                                                 "THEME": {"sem": "EVENT"}}},
        "JUMP": {"parents": ["EVENT"], "slots": {"TOPIC-OF": {"sem": "HUMAN"}}},
    }}, lexicon={"senses": [
        human,
        {**human, "id": "man-n1", "headword": "man"},
        {"id": "want-v1", "headword": "want", "pos": "v",
         "syn-struc": [{"cat": "subj", "var": 1}, {"cat": "v", "var": 0},
                       {"cat": "prep", "var": 3, "root": ["to"]}, {"cat": "v", "var": 2}],
         "sem-struc": {"head": "WANT", "slots": {"AGENT": {"var": 1}, "THEME": {"var": 2}}}},
        {"id": "jump-v1", "headword": "jump", "pos": "v",
         "syn-struc": [{"cat": "v", "var": 0}, {"cat": "prep", "var": 2, "root": ["over"]},
                       {"cat": "n", "var": 1}],
         "sem-struc": {"head": "JUMP", "slots": {"TOPIC-OF": {"var": 1}}}},
    ]})
    tmr = _dict_tmr({"WANT-1": {"AGENT": "HUMAN-1", "THEME": "JUMP-1"},
                     "JUMP-1": {"TOPIC-OF": "HUMAN-2"}, "HUMAN-1": {}, "HUMAN-2": {}})
    report = generate(tmr, kb)
    assert len(report.sentences) == 4
    assert ranked_rows(report.sentences) == rank_every_set(tmr, kb)


def test_a_case_role_inverse_a_noun_binds_is_followed(tmp_path):
    """A root noun whose sense binds THEME-OF reaches the event it names:
    that frame is a unit, and the request ends in a report or an
    OntogenError, never in a lookup of a frame the walk left out."""
    docs = {kind: json.loads((KB_DIR / f"{kind}.json").read_text())
            for kind in ("ontology", "lexicon", "memory")}
    docs["lexicon"]["senses"].append(
        {"id": "hanging-n1", "headword": "hanging", "pos": "n",
         "syn-struc": [{"cat": "n", "var": 0}, {"cat": "prep", "var": 1, "root": ["by"]},
                       {"cat": "n", "var": 2}],
         "sem-struc": {"head": "PICTURE", "slots": {"THEME-OF": {"var": 2}}}})
    kb = make_kb(tmp_path, **docs)
    tmr = _dict_tmr({"PICTURE-1": {"THEME-OF": ["FASTEN-1"]},
                     "FASTEN-1": {"AGENT": "HUMAN-104", "THEME": "PICTURE-1",
                                  "SOURCE": "FASTEN-1"},
                     "HUMAN-104": {}})
    assert "FASTEN-1" in {unit.key for unit in _extract(tmr, kb)}
    try:
        generate(tmr, kb)
    except OntogenError:
        pass


# --- stage 6: synonym expansion ----------------------------------------------

def test_synonym_clones_share_everything_but_the_lemma(kb, config):
    result = run_lexical_selection(load_fixture("fasten_painting"), kb, config)
    family = [cs for cs in result.sets
              if cs.choices["FASTEN-18"].sense.id == "fix-v2"
              and cs.choices["PICTURE-7"].sense.id == "painting-n1"]
    assert {cs.choices["FASTEN-18"].lemma for cs in family} == {
        "fix", "attach", "fasten", "secure"}
    assert len({_score(cs) for cs in family}) == 1
    others = {tuple(sorted((k, c.sense.id) for k, c in cs.choices.items()))
              for cs in family}
    assert len(others) == 1


@pytest.mark.parametrize("n, count", [(1, 3), (2, 8), (3, 20), (4, 48), (5, 112), (6, 256)])
def test_the_attached_family_ties_at_one_total(n, count):
    """Each of n participants has two senses, the first with a synonym, all
    scoring alike: 2**(n-1) * (n + 2) distinct sentences tie at one total,
    so they rank alphabetically."""
    kb, tmr = build_attached_family(n)
    report = generate(tmr, kb)
    sentences = [s.sentence for s in report.sentences]
    assert len(sentences) == len(set(sentences)) == count == report.counts["after-synonyms"]
    assert {s.total for s in report.sentences} == {report.sentences[0].total}
    assert sentences == sorted(sentences)
    assert sentences[0] == " ".join(["A droid carries", "a box", "to a rack", "with a clamp",
                                     "for a child", "from a lorry"][:n]) + "."


def test_sets_share_each_synonym_clone(kb, config):
    result = run_lexical_selection(load_fixture("fasten_painting"), kb, config)
    attach = [cs.choices["FASTEN-18"] for cs in result.sets
              if cs.choices["FASTEN-18"].lemma == "attach"]
    assert len(attach) == 2
    assert len({id(choice) for choice in attach}) == 1


# --- whole stage run ----------------------------------------------------------

def test_selection_counts_shrink_through_the_stages(kb, config):
    result = run_lexical_selection(load_fixture("fasten_painting"), kb, config)
    counts = result.counts
    assert counts["units"] == 4
    assert counts["sets"] >= counts["after-semantic"] >= counts["after-syntactic"]
    assert counts["after-synonyms"] >= counts["after-syntactic"]


def test_an_empty_meaning_is_reported_as_inexpressible(kb, config):
    with pytest.raises(AllSetsPruned, match="no frames"):
        run_lexical_selection(load_fixture("empty"), kb, config)


def test_expressing_an_extra_slot_outranks_ignoring_it(kb, config):
    result = run_lexical_selection(load_fixture("fasten_depicts"), kb, config)
    def best(sense_id):
        return max(_score(cs) for cs in result.sets
                   if cs.choices["PICTURE-10"].sense.id == sense_id)
    assert best("landscape-n1") > best("painting-n1")


def test_a_request_reads_the_tables_of_its_kb_and_its_parse(kb, monkeypatch):
    """After the parse, no request sorts the lexicon or reads an instance id
    for its concept, and each finds its root frame once."""
    tmrs = [load_fixture(path.stem) for path in sorted(TMR_DIR.glob("*.json"))
            if path.stem != "empty"]
    calls = {"sorted-lexicon": 0, "concept_of": 0, "find_root_frame": 0}

    def counting(name, fn, counts=lambda *args: True):
        def counted(*args, **kwargs):
            calls[name] += counts(*args)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(knowledge, "sorted", counting("sorted-lexicon", sorted,
                                                      lambda items, **_: items is kb.lexicon.senses),
                        raising=False)
    for module in (tmr_module, pipeline, solution):
        for name in ("concept_of", "find_root_frame"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for number, tmr in enumerate(tmrs, start=1):
        assert generate(tmr, kb).sentences
        assert calls == {"sorted-lexicon": 0, "concept_of": 0, "find_root_frame": number}
