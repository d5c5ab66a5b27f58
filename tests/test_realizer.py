"""Surface realization: morphology tables, agreement, articles, punctuation."""
from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA, load_fixture
from genscen import walk
from morphdata import ARTICLE_CASES, PLURAL_CASES, REGULAR_VERBS, VERB_CASES
from ontogen import SchemaError, generate, parse_tmr, realizer, selector
from ontogen.realizer import (
    bundled_morphology,
    indefinite_article,
    inflect_verb,
    parse_morphology,
    pluralize,
    pronoun_form,
    realize,
)
from ontogen.solution import CandidateSolution, Constituent, Features


def test_the_tables_cover_at_least_fifty_forms():
    assert len(VERB_CASES) + len(PLURAL_CASES) >= 50
    assert len(ARTICLE_CASES) == 20


@pytest.mark.parametrize("lemma,feature_kwargs,expected", VERB_CASES,
                         ids=[f"{l}-{e}" for l, _, e in VERB_CASES])
def test_verb_inflection(morph, lemma, feature_kwargs, expected):
    assert inflect_verb(morph, lemma, Features(**feature_kwargs)) == expected


@pytest.mark.parametrize("noun,expected", PLURAL_CASES, ids=[n for n, _ in PLURAL_CASES])
def test_noun_plurals(morph, noun, expected):
    assert pluralize(morph, noun) == expected


@pytest.mark.parametrize("word,expected", ARTICLE_CASES, ids=[w for w, _ in ARTICLE_CASES])
def test_indefinite_article(morph, word, expected):
    assert indefinite_article(morph, word) == expected


def _deinflect_past(morph, form: str) -> set[str]:
    """Every bounded inverse of the regular past rules that re-inflects back.
    The mapping is not injective ("pulled" covers both "pul" and "pull"), so
    the inverse is a set."""
    guesses = {form[:-2], form[:-1]}
    if form.endswith("ied"):
        guesses.add(form[:-3] + "y")
    if len(form) >= 5 and form[-3] == form[-4] and form[-3] not in "aeiou":
        guesses.add(form[:-3])
    past = Features(tense="past")
    return {g for g in guesses if g and inflect_verb(morph, g, past) == form}


@pytest.mark.parametrize("lemma", REGULAR_VERBS)
def test_regular_past_round_trips(morph, lemma):
    form = inflect_verb(morph, lemma, Features(tense="past"))
    assert form != lemma
    inverses = _deinflect_past(morph, form)
    assert lemma in inverses
    assert len(inverses) <= 3


def test_pronoun_case_forms(morph):
    assert pronoun_form(morph, "i", "subjective") == "I"
    assert pronoun_form(morph, "i", "objective") == "me"
    assert pronoun_form(morph, "he", "objective") == "him"
    assert pronoun_form(morph, "they", "objective") == "them"
    assert pronoun_form(morph, "you", "objective") == "you"
    assert pronoun_form(morph, "it", "subjective") == "it"
    # unknown lemmas pass through untouched
    assert pronoun_form(morph, "tom", "objective") == "tom"


def test_morphology_document_needs_its_schema_tag():
    with pytest.raises(SchemaError):
        parse_morphology({"irregular-verbs": {}})


@pytest.mark.parametrize("table,junk,name", [
    ("an-before", 5, "an-before"),
    ("a-before", 5, "a-before"),
    ("pronouns", {"he": 5}, "pronoun 'he'"),
    ("irregular-verbs", {"go": {"past": 5}}, "irregular verb 'go'"),
    ("irregular-plurals", {"man": 5}, "irregular-plurals"),
    ("be", {"participle": 5}, "be participle"),
    ("be", {"past": 5}, "be 'past'"),
], ids=["an-before", "a-before", "pronoun-paradigm", "verb-form", "plural", "be-participle",
        "be-tense"])
def test_json_shaped_junk_in_a_table_is_a_schema_error(table, junk, name):
    doc = json.loads((DATA / "morphology.json").read_text())
    doc[table] = junk
    with pytest.raises(SchemaError, match=f"^morph.json: {name} must be "):
        parse_morphology(doc, source="morph.json")


# --- agreement in full sentences --------------------------------------------

def _tmr(frames, **extra):
    return parse_tmr(json.dumps({"schema": "ontogen-tmr/1", "frames": frames, **extra}))


def test_present_tense_agrees_with_subject_number(kb):
    plural = _tmr({"WALK-1": {"AGENT": "HUMAN-104"},
                   "HUMAN-104": {"CARDINALITY": 2}})
    # plural cardinality keeps the name off; the description pluralizes
    sentences = [s.sentence for s in generate(plural, kb).sentences]
    assert any(s.endswith("walk.") for s in sentences)

    singular = _tmr({"WALK-1": {"AGENT": "HUMAN-104"}, "HUMAN-104": {}})
    assert generate(singular, kb).sentences[0].sentence == "Tom walks."


def test_past_passive_agrees_with_promoted_subject(kb):
    plural = _tmr({"FASTEN-1": {"THEME": "PICTURE-1", "DESTINATION": "WALL-1",
                                "TIME": "before-reference"},
                   "PICTURE-1": {"THEME-OF": ["FASTEN-1"], "CARDINALITY": 3},
                   "WALL-1": {"DESTINATION-OF": ["FASTEN-1"]}})
    sentences = [s.sentence for s in generate(plural, kb).sentences]
    assert "Paintings were secured to the wall." in sentences
    assert "Some paintings were secured to the wall." in sentences


def test_article_picks_an_before_vowel_initial_nouns(kb):
    tmr = _tmr({"FASTEN-1": {"AGENT": "HUMAN-104", "THEME": "ANCHOR-5",
                             "DESTINATION": "WALL-1", "TIME": "before-reference"},
                "HUMAN-104": {"AGENT-OF": ["FASTEN-1"]},
                "ANCHOR-5": {"THEME-OF": ["FASTEN-1"]},
                "WALL-1": {"DESTINATION-OF": ["FASTEN-1"]}})
    assert generate(tmr, kb).sentences[0].sentence == "Tom secured an anchor to the wall."


def test_synonym_variants_differ_in_exactly_one_position(kb):
    report = generate(load_fixture("fasten_painting"), kb)
    family = sorted(s.sentence for s in report.sentences
                    if "fix-v2" in s.signature and "painting-n1" in s.signature)
    expected = {f"Tom {verb} a painting to the wall."
                for verb in ("fixed", "attached", "fastened", "secured")}
    assert set(family) == expected
    split = [s.split() for s in family]
    for words in split[1:]:
        assert len(words) == len(split[0])
        assert sum(a != b for a, b in zip(words, split[0])) == 1


def test_fixed_commas_attach_to_the_previous_word(kb):
    report = generate(load_fixture("request_blunt"), kb)
    assert report.sentences[0].sentence == "Make dinner, dammit!"


def test_sentences_are_capitalized_and_terminated(kb):
    for name in ("fasten_painting", "moor_ship", "request_polite", "walk_intransitive"):
        for scored in generate(load_fixture(name), kb).sentences:
            text = scored.sentence
            first_alpha = next(c for c in text if c.isalpha())
            assert first_alpha == first_alpha.upper()
            assert text[-1] in ".?!"
            assert "  " not in text


# --- assembly from shared pieces -----------------------------------------------

# Leaf words: articles, exception-list heads, multiword tokens, tokens that
# open with or contain a comma or apostrophe, a first character that is not
# a letter, non-ASCII letters, and an empty lemma that yields no token.
_WORDS = ["a", "a", "A", "an", "the", "hour", "unicorn", "apple", "box", "will be", "will",
          ",", ", dammit", "'s", "'", "x ,y", "x 'y", "1st", "  egg", "élan", "Ünit", "?", ""]
_MOODS = ["declarative", "interrogative", "imperative"]


def _piece_spec():
    """A leaf word, a proper name ("P", word), or a list of pieces."""
    leaf = st.sampled_from(_WORDS) | st.tuples(st.just("P"), st.sampled_from(_WORDS))
    return st.recursive(leaf, lambda inner: st.lists(inner, max_size=4), max_leaves=10)


@st.composite
def _clauses(draw):
    """A pool of pieces and clauses that each pick pieces from the pool, or
    a verb phrase of pool pieces, so clauses share pieces as a request's
    sets do."""
    pool = draw(st.lists(_piece_spec(), min_size=1, max_size=5))
    index = st.integers(min_value=0, max_value=len(pool) - 1)
    picks = st.lists(index | st.lists(index, max_size=3), max_size=5)
    return pool, draw(st.lists(picks, min_size=1, max_size=4)), draw(st.sampled_from(_MOODS))


def _build(spec) -> Constituent:
    if isinstance(spec, str):
        return Constituent("fixed-word", lemma=spec)
    if isinstance(spec, tuple):
        return Constituent("noun-head", lemma=spec[1], proper=True)
    return Constituent("nominal", children=tuple(_build(child) for child in spec))


def _reference(tables, root: Constituent, mood: str) -> tuple[str, tuple[str, ...]]:
    """The whole tree's tokens, then articles token by token, then the join
    and the capital: the sentence and names realize must give."""
    leaves = [node for node in walk(root) if node.is_leaf]
    tokens = [node.lemma for node in leaves if node.lemma]
    names = tuple(node.lemma for node in leaves if node.proper and node.lemma)
    resolved = []
    for index, token in enumerate(tokens):
        if token == "a" and index + 1 < len(tokens):
            token = indefinite_article(tables, tokens[index + 1].split()[0])
        resolved.append(token)
    text = ""
    for token in resolved:
        if not text:
            text = token
        elif token.startswith(",") or token.startswith("'"):
            text += token
        else:
            text += " " + token
    for index, char in enumerate(text):
        if char.isalpha():
            text = text[:index] + char.upper() + text[index + 1:]
            break
    return text + {"declarative": ".", "interrogative": "?", "imperative": "!"}[mood], names


@given(_clauses())
@example(([["the", "a"], ["hour", "x"], "a"], [[0, 1], [1, 2], [2, 2, 0]], "declarative"))
@example(([", x", "'s", "1st", ["x ,y", "x 'y"], "will be"], [[0, 1, 3], [2, 4], [1]],
          "interrogative"))
@example(([["a", ("P", "Ünit")], ["a"], [[["a"]], "  egg"]], [[1, 0], [1, 2], [2, 1]],
          "imperative"))
@example(([""], [[0], []], "declarative"))
@example((["a", ",", "hour"], [[0, [1, 0], 2], [[0], [], [2]]], "declarative"))
@example((["a", ["hour", "'s"], ["unicorn", ", dammit"]], [[0, 1], [0, 2]], "declarative"))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_realize_matches_a_whole_tree_linearization(case):
    """Sentences assembled from shared pieces, as a forest gives them to a
    set, against the whole tree the solution builds when read."""
    pool_specs, picks, mood = case
    tables = bundled_morphology()
    pool = [realizer._piece(tables, _build(spec)) for spec in pool_specs]
    for chosen in picks:
        pieces = []
        for pick in chosen:
            if isinstance(pick, list):
                inner = [pool[index] for index in pick]
                pieces.append(realizer._assemble(tables, inner) + (inner,))
            else:
                pieces.append(pool[pick])
        solution = CandidateSolution(None, pieces, mood, "present", "active", "X")
        expected = _reference(tables, solution.root, mood)
        assert (realize(solution, tables), solution.names) == expected
        assert solution.sentence == expected[0]


def test_the_bundled_tables_are_read_once_per_process(kb, monkeypatch):
    parsed = []

    def counting(parse, kind):
        def counted(*args, **kwargs):
            parsed.append(kind)
            return parse(*args, **kwargs)
        return counted

    monkeypatch.setattr(realizer, "parse_morphology",
                        counting(realizer.parse_morphology, "morphology"))
    monkeypatch.setattr(selector, "parse_frequency",
                        counting(selector.parse_frequency, "frequency"))
    realizer.bundled_morphology.cache_clear()
    selector.bundled_frequency.cache_clear()
    tmr = load_fixture("moor_ship")
    first, second = generate(tmr, kb), generate(tmr, kb)
    assert sorted(parsed) == ["frequency", "morphology"]
    assert [s.sentence for s in first.sentences] == [s.sentence for s in second.sentences]
    assert realizer.bundled_morphology() is realizer.bundled_morphology()
