"""Staged lexical selection: extraction, reference, aggregation, pruning."""
from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

from conftest import fixture_path, load_fixture, make_kb
from genscen import rank_every_set, ranked_rows
from ontogen import AllSetsPruned, GenerationConfig, NoRealizableSense, generate, parse_tmr
from ontogen.pipeline import (
    aggregate_sets,
    expand_synonyms,
    extract_candidates,
    manage_reference,
    prune_semantic,
    prune_syntactic,
    run_lexical_selection,
)


def _units_for(name: str, kb, config, context=()):
    tmr = load_fixture(name)
    units = extract_candidates(tmr, kb)
    return tmr, manage_reference(units, tmr, kb, config, context=context)


def _unit(units, frame_id):
    return next(u for u in units if u.key == frame_id)


def _dict_tmr(frames: dict, **extra):
    return parse_tmr(json.dumps({"schema": "ontogen-tmr/1", "frames": frames, **extra}))


# --- stage 1: candidate extraction -----------------------------------------

def test_extraction_collects_senses_per_frame(kb):
    tmr = load_fixture("fasten_painting")
    units = extract_candidates(tmr, kb)
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
    units = extract_candidates(_dict_tmr({"BOX-1": {}}), kb)
    candidate = units[0].candidates[0]
    assert candidate.sense.id == "container-n1"
    assert any(entry.rule == "ancestor-fallback" for entry in candidate.ledger)


def test_extraction_fails_when_nothing_can_express_a_frame(kb):
    # no sense heads MEAL or anything above it
    with pytest.raises(NoRealizableSense):
        extract_candidates(_dict_tmr({"MEAL-1": {}}), kb)


def test_extraction_spawns_modifier_units(kb):
    tmr = load_fixture("funny_waiter")
    units = extract_candidates(tmr, kb)
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
    assert all(c.is_pronoun or c.decoration.determiner == "definite"
               for c in agent.candidates)


def test_new_referents_take_indefinite_or_plural_articles(kb, config):
    _, units = _units_for("fasten_painting", kb, config)
    assert {c.decoration.determiner for c in _unit(units, "PICTURE-7").candidates} == {"indefinite"}

    _, units = _units_for("plural_paintings", kb, config)
    assert {c.decoration.determiner for c in _unit(units, "PICTURE-8").candidates} == {"some", "bare"}


def test_coreferred_object_gets_definite_and_a_pronoun_clone(kb, config):
    tmr, units = _units_for("fasten_painting_nlu", kb, config)
    wall = _unit(units, "WALL-2")
    determiners = [c.decoration.determiner for c in wall.candidates
                   if c.decoration and c.decoration.pronoun_form is None]
    assert determiners == ["definite"]
    clones = [c for c in wall.candidates if c.decoration and c.decoration.pronoun_form]
    assert [c.decoration.pronoun_form for c in clones] == ["it"]
    assert any(e.rule == "reference-pronoun" for c in clones for e in c.ledger)


def test_fresh_objects_never_pronominalize(kb, config):
    _, units = _units_for("fasten_painting", kb, config)
    wall = _unit(units, "WALL-40")  # coreferring frame absent here
    assert all(c.decoration.pronoun_form is None for c in wall.candidates)


def _survivors_for(name: str, kb, config):
    tmr, units = _units_for(name, kb, config)
    trace = []
    return prune_syntactic(prune_semantic(units, tmr, kb, config, trace), tmr, trace)


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
    graded = [entry.delta for _, entry in appreciations[0].ledger
              if entry.rule == "feature-match"]
    assert graded.count(6) == 2  # politeness and refusal-opportunity, 0.1 away each
    assert any(r.subject == "REQUEST-ACTION-1/dammit-v1" and r.rule == "feature-mismatch"
               for r in result.trace)


def test_each_excluded_candidate_is_traced_once(kb):
    report = generate(load_fixture("moor_ship"), kb)
    assert [(r.stage, r.subject) for r in report.trace] == [
        ("semantic", "FASTEN-7/skewer-v1")]
    for name in ("fasten_painting", "plural_paintings", "fasten_painting_nlu"):
        trace = generate(load_fixture(name), kb).trace
        assert len(set(trace)) == len(trace)


# --- stage 4: syntactic pruning ----------------------------------------------

def test_missing_agent_rescues_transitives_into_the_passive(kb, config):
    result = run_lexical_selection(load_fixture("fasten_passive"), kb, config)
    assert result.sets
    assert all(cs.choices["FASTEN-9"].passive for cs in result.sets)


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


def test_modified_referents_cannot_be_pronouns(kb, config):
    result = run_lexical_selection(load_fixture("blue_painting"), kb, config)
    assert any(r.rule == "pronoun-with-modifiers" for r in result.trace)
    for cs in result.sets:
        choice = cs.choices["PICTURE-3"]
        assert choice.decoration.pronoun_form is None
        assert choice.modifiers == ("COLOR",)
        assert not hasattr(choice.decoration, "modifiers")


# --- stage 5: aggregation ----------------------------------------------------

def test_aggregation_is_the_cartesian_product_of_units(kb, config):
    survivors = _survivors_for("fasten_painting", kb, config)
    assert [c.sense.id for c in _unit(survivors, "FASTEN-18").candidates] == [
        "affix-v1", "fix-v2"]
    sets, messages = aggregate_sets(survivors, config)
    expected = math.prod(len(unit.candidates) for unit in survivors)
    assert expected == 4
    assert len(sets) == expected
    assert messages == []
    counts = run_lexical_selection(load_fixture("fasten_painting"), kb, config).counts
    assert counts["after-syntactic"] == expected
    assert counts["sets"] == math.prod(
        len(unit.candidates) for unit in _units_for("fasten_painting", kb, config)[1])


def test_aggregation_cap_truncates_with_a_message(kb, config):
    survivors = _survivors_for("fasten_painting", kb, config)
    full, _ = aggregate_sets(survivors, config)
    sets, messages = aggregate_sets(survivors, replace(config, set_cap=3))
    assert [cs.signature() for cs in sets] == [cs.signature() for cs in full[:3]]
    assert len(messages) == 1
    assert "3" in messages[0]


@pytest.mark.parametrize("silent", [5, 6])
def test_silent_frames_past_the_cap_stay_expressible(kb, silent):
    """Each unattached PICTURE frame has 5 candidates, 2 of which survive:
    the raw product passes the default cap, the survivor product does not."""
    doc = json.loads(fixture_path("fasten_painting").read_text())
    for ident in range(101, 101 + silent):
        doc["frames"][f"PICTURE-{ident}"] = {}
    report = generate(parse_tmr(json.dumps(doc)), kb)
    assert [s.sentence for s in report.sentences] == [
        s.sentence for s in generate(load_fixture("fasten_painting"), kb).sentences]
    assert len(report.sentences) == 10
    assert report.counts["sets"] == 20 * 5 ** silent > GenerationConfig().set_cap
    assert report.counts["after-syntactic"] == 4 * 2 ** silent
    assert report.messages == []


# --- frames the root never reaches -------------------------------------------

def _with_frames(name: str, frames: dict):
    doc = json.loads(fixture_path(name).read_text())
    doc["frames"].update(frames)
    return parse_tmr(json.dumps(doc))


@pytest.mark.parametrize("silent", range(7))
def test_silent_frames_do_not_multiply_the_sets_built(kb, silent):
    tmr = _with_frames("fasten_painting",
                       {f"PICTURE-{ident}": {} for ident in range(101, 101 + silent)})
    report = generate(tmr, kb)
    assert report.counts["after-syntactic"] == 4 * 2 ** silent
    assert report.counts["after-synonyms"] == 10
    assert len(report.sentences) == 10


@pytest.mark.parametrize("agent", [{}, {"AGENT": "HUMAN-104"}], ids=["agentless", "shared-agent"])
def test_an_unattached_event_is_held_at_its_best_candidates(kb, agent):
    """A FASTEN frame that nothing attaches to, with its own modified
    PICTURE and WALL, beside a named HUMAN: their candidates score
    differently, and each is held at its first best. Sharing the root's
    agent attaches the frame only through the agent's AGENT-OF inverse,
    which no sense binds, so the frame stays unreached."""
    tmr = _with_frames("fasten_painting", {
        "FASTEN-99": {**agent, "THEME": "PICTURE-99", "DESTINATION": "WALL-99"},
        "PICTURE-99": {"COLOR": "BLUE"},
        "WALL-99": {},
        "HUMAN-99": {"HAS-NAME": "Ann", "GENDER": "female"},
    })
    report = generate(tmr, kb)
    assert ranked_rows(report.sentences) == ranked_rows(rank_every_set(tmr, kb))
    assert report.counts["after-synonyms"] == 10
    assert "FASTEN-99=affix-v1" in report.sentences[0].signature


def test_a_silent_frame_is_still_pruned_and_traced(kb):
    tmr = _with_frames("fasten_painting", {"WALK-99": {}})
    with pytest.raises(AllSetsPruned, match="syntactic") as caught:
        generate(tmr, kb)
    assert any(r.subject == "WALK-99/walk-v1" and r.rule == "unfillable"
               for r in caught.value.trace)


def test_an_inverse_slot_a_sense_binds_is_followed(tmp_path):
    """A sense that binds an -OF slot puts that slot's filler in the
    sentence, so the filler's frame is reached and keeps every candidate."""
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
    assert ranked_rows(report.sentences) == ranked_rows(rank_every_set(tmr, kb))


# --- stage 6: synonym expansion ----------------------------------------------

def test_synonym_clones_share_everything_but_the_lemma(kb, config):
    result = run_lexical_selection(load_fixture("fasten_painting"), kb, config)
    family = [cs for cs in result.sets
              if cs.choices["FASTEN-18"].sense.id == "fix-v2"
              and cs.choices["PICTURE-7"].sense.id == "painting-n1"]
    assert {cs.choices["FASTEN-18"].lemma for cs in family} == {
        "fix", "attach", "fasten", "secure"}
    assert len({cs.score for cs in family}) == 1
    others = {tuple(sorted((k, c.sense.id) for k, c in cs.choices.items()))
              for cs in family}
    assert len(others) == 1


def test_held_units_are_not_cloned(kb, config):
    sets, _ = aggregate_sets(_survivors_for("fasten_painting", kb, config), config)
    assert len(expand_synonyms(sets)) == 10
    assert expand_synonyms(sets, frozenset({"FASTEN-18"})) == sets


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
        return max(cs.score for cs in result.sets
                   if cs.choices["PICTURE-10"].sense.id == sense_id)
    assert best("landscape-n1") > best("painting-n1")
