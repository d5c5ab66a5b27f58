"""Acceptance gate: one test per shipped behavior guarantee.

Each test states its guarantee in the docstring and checks it end to end
against the bundled knowledge base. The terminal summary hook prints one
pass/fail line per criterion.
"""
from __future__ import annotations

import re

from conftest import load_fixture
from morphdata import ARTICLE_CASES, PLURAL_CASES, VERB_CASES
from ontogen import generate, serialize_tmr, strip_metadata, tmr_isomorphic
from ontogen.realizer import indefinite_article, inflect_verb, pluralize
from ontogen.solution import Features
from test_properties import (
    check_determinism,
    check_ledger_sums,
    check_product_cardinality,
    check_rank_permutation,
    check_scaling_invariance,
    check_token_conservation,
)


def _sentences(report):
    return [s.sentence for s in report.sentences]


def test_criterion_1_synonym_family_for_the_running_example(kb):
    """The picture-fastening meaning yields the four synonym variants of the
    everyday verb, including the exact secured form."""
    report = generate(load_fixture("fasten_painting"), kb)
    family = {s.sentence for s in report.sentences
              if "fix-v2" in s.signature and "painting-n1" in s.signature}
    assert family == {
        "Tom fixed a painting to the wall.",
        "Tom attached a painting to the wall.",
        "Tom fastened a painting to the wall.",
        "Tom secured a painting to the wall.",
    }
    assert "Tom secured a painting to the wall." in _sentences(report)


def test_criterion_2_semantic_exclusions_are_traced(kb):
    """Senses that violate constraints or assert absent content are excluded
    with a named rule, and never surface in a sentence."""
    report = generate(load_fixture("fasten_painting"), kb)
    semantic = {(r.subject, r.rule) for r in report.trace if r.stage == "semantic"}
    assert ("FASTEN-18/moor-v1", "argument-mismatch") in semantic
    assert ("FASTEN-18/skewer-v1", "argument-mismatch") in semantic
    for sense in ("cityscape-n1", "graffiti-n1", "landscape-n1"):
        assert (f"PICTURE-7/{sense}", "content-mismatch") in semantic
    excluded = ("moor-v1", "skewer-v1", "cityscape-n1", "graffiti-n1", "landscape-n1")
    for scored in report.sentences:
        assert not any(sense in scored.signature for sense in excluded)


def test_criterion_3_narrow_senses_win_their_own_ground(kb):
    """When the meaning matches a sense's narrowed arguments and asserted
    content, that sense outranks the generic family."""
    report = generate(load_fixture("moor_ship"), kb)
    assert report.sentences[0].sentence == "They moored the ship."
    generic = [s for s in report.sentences
               if "fix-v2" in s.signature or "affix-v1" in s.signature]
    assert generic
    for scored in generic:
        assert report.sentences[0].total > scored.total


def test_criterion_4_feature_values_steer_register(kb):
    """Politeness and refusal-opportunity pick the construction: high values
    prefer the elaborate request, low values leave only the blunt one."""
    polite = generate(load_fixture("request_polite"), kb)
    assert polite.sentences[0].sentence == \
        "I would really appreciate it if you would make dinner."
    texts = _sentences(polite)
    assert "I request that you make dinner." in texts
    assert "Could you please make dinner?" in texts

    blunt = generate(load_fixture("request_blunt"), kb)
    assert blunt.sentences[0].sentence == "Make dinner, dammit!"
    assert all("appreciate" not in t for t in _sentences(blunt))
    assert all(t.endswith("!") for t in _sentences(blunt))


def test_criterion_5_stripping_analyzer_metadata_preserves_the_meaning(kb):
    """Dropping analyzer metadata is meaning-preserving and idempotent."""
    original = load_fixture("fasten_painting_nlu")
    stripped = strip_metadata(original)
    ok, mapping = tmr_isomorphic(stripped, load_fixture("fasten_painting_nlu"))
    assert ok and mapping
    assert all(frame.metadata is None for frame in stripped.frames)
    once = serialize_tmr(stripped)
    assert serialize_tmr(strip_metadata(stripped)) == once


def test_criterion_6_reference_decides_articles_names_and_pronouns(kb):
    """Known referents get definite phrases or pronouns, new ones indefinite
    phrases, participants personal pronouns, and modified referents are
    never pronominal."""
    blue = _sentences(generate(load_fixture("blue_painting"), kb))
    assert any("the blue painting" in t for t in blue)
    assert not any(re.search(r"\bblue (it|they|them)\b", t) for t in blue)

    fresh = _sentences(generate(load_fixture("fasten_painting"), kb))
    assert any("a painting" in t for t in fresh)
    assert not any(" the painting" in t for t in fresh)

    plural = _sentences(generate(load_fixture("plural_paintings"), kb))
    assert "Tom secured paintings to the wall." in plural
    assert "Tom secured some paintings to the wall." in plural

    assert generate(load_fixture("speaker_agent"), kb).sentences[0].sentence == "I walked."
    assert generate(load_fixture("hearer_agent"), kb).sentences[0].sentence == "You walked."

    waiter = generate(load_fixture("funny_waiter"), kb)
    assert waiter.sentences[0].sentence == "The funny waiter walked."


def test_criterion_7_closed_class_morphology_tables(morph):
    """Verb, plural, and article realization match a fixed table of at least
    fifty verb and noun forms and twenty article choices."""
    assert len(VERB_CASES) + len(PLURAL_CASES) >= 50
    assert len(ARTICLE_CASES) == 20
    for lemma, feature_kwargs, expected in VERB_CASES:
        assert inflect_verb(morph, lemma, Features(**feature_kwargs)) == expected
    for noun, expected in PLURAL_CASES:
        assert pluralize(morph, noun) == expected
    for word, expected in ARTICLE_CASES:
        assert indefinite_article(morph, word) == expected


def test_criterion_8_discourse_history_flips_name_and_pronoun(kb):
    """A referent already in the discourse pronominalizes; repeating the name
    is penalized below the pronoun."""
    report = generate(load_fixture("walk_named_agent"), kb,
                      context=("HUMAN-77",),
                      history=("Johnny jumped off the stairs onto his "
                               "grandmother's couch.",))
    texts = _sentences(report)
    assert texts[0] == "He walked."
    assert "Johnny walked." in texts
    pronoun = report.sentences[0]
    named = next(s for s in report.sentences if s.sentence == "Johnny walked.")
    assert pronoun.total > named.total
    assert dict(named.terms)["repetition"] < 0


def test_criterion_9_structural_invariants_hold_across_random_scenarios():
    """Aggregation of the pruning survivors, a once-only exclusion trace,
    explained scores, permutation ranking, scale invariance, determinism, and
    token conservation hold on generated scenarios."""
    for seed in range(12):
        check_product_cardinality(seed)
        check_ledger_sums(seed)
        check_rank_permutation(seed)
        check_scaling_invariance(seed, 2.0)
        check_determinism(seed)
        check_token_conservation(seed)
