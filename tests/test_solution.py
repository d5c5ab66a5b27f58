"""Constituent-tree building from chosen candidate sets."""
from __future__ import annotations

import json

import pytest

from conftest import TMR_DIR, load_fixture
from genscen import build_attached_family, linearize, nested_requests, rank_every_set, walk
from ontogen import (AllSetsPruned, GenerationConfig, NoRealizableSense, TmrError,
                     bundled_morphology, cli, generate, parse_tmr, realizer, solution)
from ontogen.pipeline import CandidateSense, CandidateSet, run_lexical_selection
from ontogen.solution import Forest, build_solution, derive_tense
from ontogen.tmr import find_root_frame


def _solutions(name, kb, config, context=()):
    tmr = load_fixture(name)
    result = run_lexical_selection(tmr, kb, config, context=context)
    forest = Forest(tmr, result.root, bundled_morphology(), result.sets[0].options)
    return tmr, [build_solution(cs, forest) for cs in result.sets]


def _leaves(root):
    return [c for c in walk(root) if c.is_leaf]


def _pick(solutions, **want):
    """First solution whose root-frame choice matches sense id and lemma."""
    for sol in solutions:
        choices = sol.candidate_set.choices
        ok = True
        for frame_id, (sense_id, lemma) in want.items():
            choice = choices.get(frame_id.replace("_", "-"))
            if choice is None or choice.sense.id != sense_id or choice.lemma != lemma:
                ok = False
        if ok:
            return sol
    raise AssertionError(f"no solution matching {want}")


# --- root frame and tense ----------------------------------------------------

def test_the_root_frame_is_the_one_nothing_points_at(kb):
    assert find_root_frame(load_fixture("fasten_painting")).instance_id == "FASTEN-18"
    assert find_root_frame(load_fixture("request_polite")).instance_id == "REQUEST-ACTION-1"
    assert find_root_frame(load_fixture("moor_ship")).instance_id == "FASTEN-7"


def test_tense_follows_the_relative_time_of_the_root_frame(kb):
    tmr = load_fixture("fasten_painting")
    assert derive_tense(find_root_frame(tmr), tmr) == "past"

    untimed = parse_tmr(json.dumps({
        "schema": "ontogen-tmr/1",
        "frames": {"WALK-1": {"AGENT": "HUMAN-104"}, "HUMAN-104": {}}}))
    assert derive_tense(find_root_frame(untimed), untimed) == "present"

    future = parse_tmr(json.dumps({
        "schema": "ontogen-tmr/1",
        "frames": {"WALK-1": {"AGENT": "HUMAN-104", "TIME": "after-reference"},
                   "HUMAN-104": {}}}))
    assert derive_tense(find_root_frame(future), future) == "future"


def test_future_time_surfaces_as_will(kb):
    report = generate(parse_tmr(json.dumps({
        "schema": "ontogen-tmr/1",
        "frames": {"WALK-1": {"AGENT": "HUMAN-104", "TIME": "after-reference"},
                   "HUMAN-104": {}}})), kb)
    assert report.sentences[0].sentence == "Tom will walk."


# --- tree shape ---------------------------------------------------------------

def test_transitive_clause_tree_shape(kb, config):
    _, solutions = _solutions("fasten_painting", kb, config)
    sol = _pick(solutions, FASTEN_18=("fix-v2", "secure"), PICTURE_7=("painting-n1", "painting"))

    root = sol.root
    assert root.function == "clause"
    assert [c.function for c in root.children] == [
        "subject", "main-verb", "direct-object", "prepositional-phrase"]

    subject, verb, dobj, pp = root.children
    assert [ (c.function, c.lemma, c.proper) for c in subject.children] == [
        ("noun-head", "Tom", True)]
    assert verb.lemma == "secure"
    assert verb.features.tense == "past"
    assert verb.features.person == 3 and verb.features.number == "singular"

    assert [(c.function, c.lemma) for c in dobj.children] == [
        ("determiner", "a"), ("noun-head", "painting")]

    prep, obj = pp.children
    assert (prep.function, prep.lemma) == ("preposition", "to")
    assert [(c.function, c.lemma) for c in obj.children] == [
        ("determiner", "the"), ("noun-head", "wall")]

    assert sol.mood == "declarative"
    assert sol.voice == "active"
    assert sol.tense == "past"


def test_modifiers_sit_between_determiner_and_noun(kb, config):
    _, solutions = _solutions("blue_painting", kb, config)
    sol = _pick(solutions, FASTEN_22=("fix-v2", "secure"))
    dobj = next(c for c in sol.root.children if c.function == "direct-object")
    assert [(c.function, c.lemma) for c in dobj.children] == [
        ("determiner", "the"), ("modifier", "blue"), ("noun-head", "painting")]


def test_a_named_referent_keeps_its_modifiers(kb):
    doc = json.loads((TMR_DIR / "funny_waiter.json").read_text())
    doc["frames"]["WAITER-5"]["HAS-NAME"] = "Johnny"
    top = generate(parse_tmr(json.dumps(doc)), kb).sentences[0]
    assert top.sentence == "Funny Johnny walked."
    subject = top.solution.root.children[0]
    assert [(c.function, c.lemma, c.proper) for c in subject.children] == [
        ("modifier", "funny", False), ("noun-head", "Johnny", True)]
    # the modifier the ledger credits is the one the sentence says
    assert top.signature == ("WALK-9=walk-v1 WAITER-5=johnny-pn1 "
                             "WAITER-5/HUMOR-ATTRIBUTE=funny-adj1")
    assert [(unit, entry.rule, entry.delta) for unit, entry in top.ledger] == [
        ("WALK-9", "slot-default", 4), ("WAITER-5/HUMOR-ATTRIBUTE", "feature-match", 10)]


# --- moods ---------------------------------------------------------------------

def test_verb_first_constructions_are_imperative(kb, config):
    _, solutions = _solutions("request_blunt", kb, config)
    assert solutions
    for sol in solutions:
        assert sol.mood == "imperative"
        first = sol.root.children[0]
        assert first.function == "verb-phrase"
        verb = first.children[0]
        assert verb.function == "main-verb"
        assert verb.features.verb_form == "base"


def test_auxiliary_first_constructions_are_interrogative(kb, config):
    _, solutions = _solutions("request_polite", kb, config)
    could = [s for s in solutions
             if s.candidate_set.choices["REQUEST-ACTION-1"].sense.id == "could-v9"]
    assert could
    assert all(s.mood == "interrogative" for s in could)
    assert could[0].root.children[0].function == "auxiliary"
    assert could[0].root.children[0].lemma == "could"


# --- passive promotion -----------------------------------------------------------

def test_agentless_transitive_promotes_the_theme_to_subject(kb, config):
    _, solutions = _solutions("fasten_passive", kb, config)
    sol = _pick(solutions, FASTEN_9=("fix-v2", "secure"))
    assert sol.voice == "passive"

    subject = sol.root.children[0]
    assert subject.function == "subject"
    heads = [c.lemma for c in subject.children if c.function == "noun-head"]
    assert heads == ["painting"]

    functions = [c.function for c in sol.root.children]
    assert "direct-object" not in functions
    aux = next(c for c in sol.root.children if c.function == "auxiliary")
    assert aux.lemma == "be" and aux.features.tense == "past"
    verb = next(c for c in sol.root.children if c.function == "main-verb")
    assert verb.features.verb_form == "participle"


def _with(name: str, edit) -> object:
    doc = json.loads((TMR_DIR / f"{name}.json").read_text())
    edit(doc["frames"])
    return parse_tmr(json.dumps(doc))


def test_an_agentless_embedded_frame_leaves_the_clause_active(kb):
    # the embedded frame is realized without its subject, so it cannot
    # turn the clause that embeds it passive
    tmr = _with("request_polite", lambda frames: frames["PREPARE-FOOD-1"].pop("AGENT"))
    top = generate(tmr, kb).sentences[0]
    assert (top.rank, top.sentence, top.solution.voice) == (
        1, "I would really appreciate it if you would make dinner.", "active")


def test_an_unattached_agentless_frame_leaves_the_sentences_alone(kb):
    tmr = _with("fasten_painting", lambda frames: frames.update({
        "FASTEN-99": {"THEME": "PICTURE-98", "DESTINATION": "WALL-97"},
        "PICTURE-98": {}, "WALL-97": {}}))
    report = generate(tmr, kb)
    expected = [s.sentence for s in generate(load_fixture("fasten_painting"), kb).sentences]
    assert len(expected) == 10
    assert [s.sentence for s in report.sentences] == expected
    assert {s.solution.voice for s in report.sentences} == {"active"}


# --- embedded phrases -------------------------------------------------------------

def test_embedded_event_is_a_base_form_verb_phrase(kb, config):
    _, solutions = _solutions("request_polite", kb, config)
    sol = _pick(solutions, REQUEST_ACTION_1=("appreciate-v8", "appreciate"))

    vps = [c for c in walk(sol.root) if c.function == "verb-phrase"]
    assert len(vps) == 1
    make = vps[0].children[0]
    assert (make.function, make.lemma, make.features.verb_form) == ("main-verb", "make", "base")
    dinner = vps[0].children[1]
    # DINNER is an event-like meal: bare nominal, no article
    assert [(c.function, c.lemma) for c in dinner.children] == [("noun-head", "dinner")]

    assert [c.lemma for c in _leaves(sol.root)] == [
        "i", "would", "really", "appreciate", "it", "if", "you", "would", "make", "dinner"]


def test_participant_pronouns_carry_person_and_case(kb, config):
    _, solutions = _solutions("request_polite", kb, config)
    sol = _pick(solutions, REQUEST_ACTION_1=("appreciate-v8", "appreciate"))
    pronouns = [c for c in walk(sol.root) if c.pronoun]
    assert [c.lemma for c in pronouns] == ["i"]
    speaker = pronouns[0]
    assert speaker.features.person == 1
    assert speaker.features.case == "subjective"
    # the construction's second participant is a fixed word, not a choice
    fixed = [c.lemma for c in walk(sol.root) if c.function == "fixed-word"]
    assert "you" in fixed


def test_a_frame_that_embeds_itself_is_a_tmr_error_naming_the_path(kb):
    # a request that embeds (request-v2) needs a speaker and a hearer to ask
    request = {"AGENT": "HUMAN-1", "BENEFICIARY": "HUMAN-2", "POLITENESS": 0.8,
               "REFUSAL-OPPORTUNITY": 0.8}
    frames = {"REQUEST-ACTION-1": {"THEME": "REQUEST-ACTION-2", **request},
              "REQUEST-ACTION-2": {"THEME": "REQUEST-ACTION-1", **request},
              "HUMAN-1": {}, "HUMAN-2": {}}
    tmr = parse_tmr(json.dumps({"schema": "ontogen-tmr/1", "speaker": "HUMAN-1",
                                "hearer": "HUMAN-2", "frames": frames}), source="loop.json")
    with pytest.raises(TmrError) as caught:
        generate(tmr, kb)
    assert str(caught.value) == ("loop.json: a frame embeds itself: "
                                 "REQUEST-ACTION-1 -> REQUEST-ACTION-2 -> REQUEST-ACTION-1")


def test_each_embedded_clause_takes_one_stack_frame(kb):
    """600 nested requests fit the interpreter's default stack of 1,000
    frames; 2,000 do not, and are a TmrError naming the TMR."""
    tmr = parse_tmr(json.dumps(nested_requests(600, "PREPARE-FOOD-1")), source="<600 deep>")
    inner = "request that you " * 599 + "make dinner"
    assert [s.sentence for s in generate(tmr, kb).sentences] == [
        f"I would really appreciate it if you would {inner}.", f"I request that you {inner}.",
        f"Could you please {inner}?"]
    tmr = parse_tmr(json.dumps(nested_requests(2000, "PREPARE-FOOD-1")), source="<2000 deep>")
    with pytest.raises(TmrError) as caught:
        generate(tmr, kb)
    assert str(caught.value) == "<2000 deep>: verb phrases nested too deeply"


# --- sharing within one request ---------------------------------------------------

def test_a_request_compiles_each_construction_once_and_inflects_each_leaf_once(
        kb, monkeypatch):
    compiled, inflected = [], []

    def compile_counted(frame, choice, forest):
        compiled.append((frame.instance_id, choice.sense.id, forest.tense,
                         frame is not forest.root))
        return compile_plan(frame, choice, forest)

    def leaf_counted(tables, leaf):
        inflected.append(leaf)  # held, so no two leaves share an id
        return leaf_token(tables, leaf)

    compile_plan, leaf_token = solution._compile, realizer._leaf_token
    monkeypatch.setattr(solution, "_compile", compile_counted)
    monkeypatch.setattr(realizer, "_leaf_token", leaf_counted)
    report = generate(load_fixture("fasten_painting_nlu"), kb)

    assert report.counts["after-synonyms"] == 20
    # the root's synonym clones share their sense's plan: its main verb is a
    # hole filled per lemma
    assert sorted(compiled) == [("FASTEN-1", "affix-v1", "past", False),
                                ("FASTEN-1", "fix-v2", "past", False)]
    assert len({id(leaf) for leaf in inflected}) == len(inflected)
    # the main verb of every set is one shared leaf per lemma, inflected once
    verbs = [leaf.lemma for leaf in inflected if leaf.function == "main-verb"]
    assert sorted(verbs) == ["affix", "attach", "fasten", "fix", "secure"]


def _no_tree(_solution):
    raise AssertionError("a solution's tree was read")


def test_generate_builds_no_node_per_set_and_reads_no_tree(kb, monkeypatch):
    def explained(report):
        return [(s.sentence, s.total, s.terms, s.signature, s.ledger, s.solution.mood,
                 s.solution.voice, json.dumps(cli._tree_json(s.solution.root)))
                for s in report.sentences]

    expected = explained(generate(load_fixture("fasten_painting_nlu"), kb))
    built, described = [], []
    describe_real = CandidateSense.describe

    class Counted(solution.Constituent):
        __slots__ = ()

        def __init__(self, function, *args, **kwargs):
            built.append(function)
            super().__init__(function, *args, **kwargs)

    def describe_counted(choice):
        described.append(choice)
        return describe_real(choice)

    tree = vars(solution.CandidateSolution)["root"]
    monkeypatch.setattr(solution, "Constituent", Counted)
    monkeypatch.setattr(solution.CandidateSolution, "root", property(_no_tree))
    monkeypatch.setattr(CandidateSense, "describe", describe_counted)
    nodes = {}
    for cap in (1, 1000):
        built.clear()
        report = generate(load_fixture("fasten_painting_nlu"), kb, GenerationConfig(set_cap=cap))
        nodes[report.counts["after-synonyms"]] = len(built)
        assert "clause" not in built and "verb-phrase" not in built
    # from one set to twenty, fewer new nodes than new sets: each is a piece
    # of a candidate the first set does not hold, a plan leaf or a verb lemma
    assert nodes.keys() == {1, 20}
    assert 0 < nodes[20] - nodes[1] < 20 - 1
    # rank describes no choice: a signature is made when it is first read
    assert not described

    monkeypatch.setattr(solution.CandidateSolution, "root", tree)
    built.clear()
    assert explained(report) == expected
    # reading the trees builds one clause per ranked sentence and nothing else
    assert built == ["clause"] * len(report.sentences)


# --- totality over the corpus -------------------------------------------------------

def test_every_expressible_fixture_builds_trees(kb, config):
    built = 0
    for path in sorted(TMR_DIR.glob("*.json")):
        tmr = load_fixture(path.stem)
        try:
            result = run_lexical_selection(tmr, kb, config)
        except (AllSetsPruned, NoRealizableSense):
            continue
        forest = Forest(tmr, result.root, bundled_morphology(), result.sets[0].options)
        for cs in result.sets:
            sol = build_solution(cs, forest)
            assert sol.root.function == "clause"
            assert any(c.is_leaf for c in walk(sol.root))
            built += 1
    assert built > 30


def test_leaf_lemmas_come_from_the_knowledge_base(kb, config):
    """Every leaf is traceable: a headword, synonym, fixed node word,
    decoration article, pronoun form or name from the lexicon."""
    allowed = {"a", "the", "some", "be", "it", "they"}
    for sense in kb.lexicon.senses.values():
        allowed.add(sense.headword.lower())
        allowed.update(s.lower() for s in sense.synonyms)
        allowed.update(node.word.lower() for node in sense.syn_struc if node.word)
    for name in ("Tom", "Johnny"):
        allowed.add(name.lower())

    for name in ("fasten_painting", "moor_ship", "request_polite", "walk_transitive"):
        tmr = load_fixture(name)
        result = run_lexical_selection(tmr, kb, config)
        forest = Forest(tmr, result.root, bundled_morphology(), result.sets[0].options)
        for cs in result.sets:
            sol = build_solution(cs, forest)
            for leaf in _leaves(sol.root):
                assert leaf.lemma.lower() in allowed, leaf


def test_one_more_set_builds_no_choices_ledger_or_node(kb, monkeypatch):
    """At n = 6 the attached family ranks 256 sets from 18 candidates: no
    set's choices are gathered, no ledger is walked and no node is built
    per set; what a ranked sentence explains is made when it is read, and
    is what the reference gives."""
    family_kb, tmr = build_attached_family(6)
    built, entries, gathered = [], [], []
    entries_of, choices_of = CandidateSet.entries, CandidateSet.choices

    class Counted(solution.Constituent):
        __slots__ = ()

        def __init__(self, function, *args, **kwargs):
            built.append(function)
            super().__init__(function, *args, **kwargs)

    monkeypatch.setattr(solution, "Constituent", Counted)
    monkeypatch.setattr(CandidateSet, "entries", lambda cs: entries.append(cs) or entries_of(cs))
    monkeypatch.setattr(CandidateSet, "choices",
                        property(lambda cs: gathered.append(cs) or choices_of.fget(cs)))
    report = generate(tmr, family_kb)
    assert len(report.sentences) == 256
    assert entries == [] and gathered == []
    assert "clause" not in built and "verb-phrase" not in built
    assert len(built) < 100  # about five nodes per candidate, plan leaf and verb

    tables = bundled_morphology()
    read = [(s.sentence, s.total, s.terms, s.signature, s.ledger) for s in report.sentences]
    assert read == rank_every_set(tmr, family_kb)
    assert all(linearize(s.solution.root, s.solution.mood, tables)[0] == s.sentence
               for s in report.sentences)
    assert len(entries) == 256
