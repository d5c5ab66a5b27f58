"""Ranking: frequency lookup, repetition, tie breaks, deduplication."""
from __future__ import annotations

import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fixture_path, load_fixture
from ontogen import (FrequencyTable, GenerationConfig, OntogenError, SchemaError, generate,
                     selector)
from ontogen.cli import main
from ontogen.knowledge import identity_problem
from ontogen.pipeline import CandidateSense, CandidateSet, run_lexical_selection
from ontogen.realizer import realize
from ontogen.selector import extra_mentions, history_mentions, load_frequency, parse_frequency, rank
from ontogen.solution import Forest, build_solution


def _solutions(name, kb, config, morph):
    tmr = load_fixture(name)
    result = run_lexical_selection(tmr, kb, config)
    forest = Forest(tmr, result.root, morph, result.sets[0].options)
    solutions = [build_solution(cs, forest) for cs in result.sets]
    for sol in solutions:
        realize(sol, morph)
    return tmr, solutions


def _repetition(solution, freq, config, history):
    """The repeats rank() charges solution for, given the history."""
    [scored] = rank([solution], freq, config, history)
    return dict(scored.terms)["repetition"] / -config.repetition_penalty


# --- frequency table ----------------------------------------------------------

def test_lookup_prefers_lemma_then_sense_then_default():
    table = FrequencyTable(values={"fix": 0.9, "fix-v2": 0.4}, default=0.2)
    assert table.lookup("fix", "fix-v2") == 0.9
    assert table.lookup("attach", "fix-v2") == 0.4
    assert table.lookup("attach", "attach-v9") == 0.2


def test_frequency_document_validation():
    with pytest.raises(SchemaError):
        parse_frequency({"values": {}})
    with pytest.raises(SchemaError):
        parse_frequency({"schema": "ontogen-freq/1", "values": {"fix": 1.5}})
    with pytest.raises(SchemaError):
        parse_frequency({"schema": "ontogen-freq/1", "values": {"fix": True}})
    with pytest.raises(SchemaError):
        parse_frequency({"schema": "ontogen-freq/1", "values": {}, "default": -0.1})
    with pytest.raises(SchemaError, match="must be a number in"):
        parse_frequency({"schema": "ontogen-freq/1", "default": 10 ** 400})
    with pytest.raises(SchemaError, match="must be a number in"):
        parse_frequency({"schema": "ontogen-freq/1", "values": {"fix": -10 ** 400}})
    table = parse_frequency({"schema": "ontogen-freq/1", "values": {"fix": 1}})
    assert table.lookup("fix", "x") == 1.0


@pytest.mark.parametrize("text,match", [
    ('{"schema": "ontogen-freq/1", "default": 1' + "0" * 400 + "}", "outside the float range"),
    ('{"schema": "ontogen-freq/1", "values": {"fix": 1e400}}', "number 1e400 is outside"),
], ids=["huge-default", "huge-value"])
def test_frequency_numbers_beyond_the_float_range_are_rejected(tmp_path, text, match):
    path = tmp_path / "frequency.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=match):
        load_frequency(path)


# --- repetition ------------------------------------------------------------------

def test_repetition_counts_whole_word_mentions_only(kb, freq, config, morph):
    _, solutions = _solutions("walk_named_agent", kb, config, morph)
    johnny = next(s for s in solutions if "Johnny" in (s.sentence or ""))
    assert _repetition(johnny, freq, config, ()) == 0
    assert _repetition(johnny, freq, config, ("Johnny jumped.",)) == 1
    assert _repetition(johnny, freq, config, ("Johnny met Johnny's twin.",)) == 2
    # substrings of other words never count
    assert _repetition(johnny, freq, config, ("Johnnyson ran.",)) == 0


# Names and the text around them: regex metacharacters, white space,
# apostrophes, word characters that extend a name, and non-ASCII letters.
_NAME_CHARS = "Tomy. *+?()[]{}|^$\\'’-_9éÅßZ\n"
_AROUND_CHARS = _NAME_CHARS + "ëø,\t"


@st.composite
def _name_and_history(draw):
    """A name a TMR or memory may hold (identity_problem accepts it), and
    history lines around it."""
    name = draw((st.text(alphabet=_NAME_CHARS, max_size=5)
                 | st.sampled_from(["Tom", "O'Brien", "Jean Luc", "C++", "(x)", "Åsa", "Zoë"]))
                .filter(lambda name: identity_problem("HAS-NAME", name) is None))
    piece = st.just(name) | st.text(alphabet=_AROUND_CHARS, max_size=3)
    lines = draw(st.lists(st.lists(piece, max_size=6).map("".join), max_size=6))
    return name, tuple(lines)


# 1,000 lines, with mentions at line edges and ones a word character extends
_LONG_HISTORY = tuple(f"Tom met {i} Tom_{i} and Tom" if i % 3 else f"{i}Tom, Tom's Tom"
                      for i in range(1000))


def _per_line_reference(name: str, history: tuple[str, ...]) -> int:
    return sum(len(re.findall(rf"\b{re.escape(name)}\b", line)) for line in history)


@given(_name_and_history())
@example(("Tom", ()))
@example(("Tom", ("Tom", " Tom", "Tom.", "Tom's", "TomTom", "Tomás", "Tom_", "éTom")))
@example(("Åsa", ("Åsa", "xÅsa Åsa", "Åsaë")))
@example(("C++", ("C++ C++", "xC++", "C+++")))
@example(("Tom", ("x Tom", "Tom y")))  # nor the seam between two lines
@example(("aa", ("aaa aa", "aa", "aaaa")))  # self-overlapping names
@example(("a-a", ("xa-a-a", "a-a-a", "a-a")))
@example(("'Tom", ("'Tom", "x'Tom 'Tom", "'Tomy", "''Tom")))  # a non-word first character
@example(("-", ("-", "a-b", "--", "x- -y", "a -")))
@example(("C++", ("C++", "xC++ C++", "C++y")))  # a non-word last character
@example(("Tom", _LONG_HISTORY))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_history_mentions_equal_the_per_line_regex_count(case):
    name, history = case
    assert history_mentions(name, history) == _per_line_reference(name, history)


@given(_name_and_history())
@example(("Tom", ()))
@example(("Tom", ("Tom", " Tom", "Tom.", "Tom's", "TomTom", "Tomás", "Tom_", "éTom")))
@example(("Tom", ("Tom Tom", "Tom and Tom's", "TomTom Tom", "Tom Tomás", "TomTomTom")))
@example(("Åsa", ("Åsa", "xÅsa Åsa", "Åsaë", "Åsa Åsaë Åsa")))
@example(("C++", ("C++ C++", "xC++", "C+++", "C++C++")))
@example(("Tom", ("x Tom\nTom y",)))
@example(("aa", ("aaa aa aa", "aa aa", "aaaa aa")))
@example(("a-a", ("xa-a-a a-a", "a-a-a a-a", "a-a a-a")))
@example(("'Tom", ("'Tom 'Tom", "x'Tom 'Tom 'Tom", "'Tomy 'Tom")))
@example(("-", ("- -", "a-b -", "-- -", "x- -y -")))
@example(("C++", ("C++ C++", "xC++ C++ C++", "C++y C++")))
@example(("Tom", _LONG_HISTORY))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_extra_mentions_equal_the_regex_count_past_the_first(case):
    name, sentences = case
    for sentence in sentences:
        expected = max(0, len(re.findall(rf"\b{re.escape(name)}\b", sentence)) - 1)
        assert extra_mentions(name, sentence) == expected


class _CountingPattern:
    """A compiled pattern that records each scan it makes."""

    def __init__(self, pattern: re.Pattern, scans: list):
        self.pattern = pattern
        self.scans = scans

    def findall(self, text, *args):
        self.scans.append(text)
        return self.pattern.findall(text, *args)

    def finditer(self, text, *args):
        self.scans.append(text)
        return self.pattern.finditer(text, *args)

    def search(self, text, *args):
        self.scans.append(text)
        return self.pattern.search(text, *args)


def test_rank_scans_the_history_once_per_distinct_name(kb, freq, morph, config, monkeypatch):
    tmr, solutions = _solutions("fasten_painting_nlu", kb, config, morph)
    names = {name for sol in solutions for name in sol.names}
    assert names == {"Tom"} and len(solutions) >= 10
    history = ("Tom walked.", "Johnny met Tom's dog.") * 100
    scans = []
    pattern = selector._pattern
    monkeypatch.setattr(selector, "_pattern", lambda name: _CountingPattern(pattern(name), scans))
    ranked = rank(solutions, freq, config, history)
    assert len(scans) == len(names)
    assert {dict(s.terms)["repetition"] for s in ranked} == {-config.repetition_penalty * 200}


def test_rank_builds_no_ledger_and_describes_no_choice(kb, monkeypatch):
    described, entries = [], []
    describe, entries_of = CandidateSense.describe, CandidateSet.entries
    monkeypatch.setattr(CandidateSense, "describe",
                        lambda choice: described.append(choice) or describe(choice))
    report = generate(load_fixture("fasten_painting_nlu"), kb)
    assert report.counts["after-synonyms"] == 20
    assert described == []

    # an explanation is made for the sentence that is read, once
    first = report.sentences[0]
    choices = list(first.solution.candidate_set.choices.values())
    signature = first.signature
    assert described == choices
    assert first.signature is signature and described == choices
    monkeypatch.setattr(CandidateSet, "entries", lambda cs: entries.append(cs) or entries_of(cs))
    first_ledger = first.ledger
    assert entries == [first.solution.candidate_set]
    assert first.ledger is first_ledger and len(entries) == 1

    # the CLI explains only the sentences it prints, and only when it prints explanations
    described.clear()
    argv = ["generate", "--tmr", str(fixture_path("fasten_painting_nlu")), "--top", "5"]
    assert main(argv) == 0 and described == []
    assert main(argv + ["--trace"]) == 0
    assert len(described) == sum(len(s.solution.candidate_set.choices)
                                 for s in report.sentences[:5])


def test_pronoun_sentences_never_accrue_repetition(kb, freq, config, morph):
    _, solutions = _solutions("walk_named_agent", kb, config, morph)
    for sol in solutions:
        if "Johnny" not in (sol.sentence or ""):
            assert _repetition(sol, freq, config, ("Johnny walked.",) * 3) == 0


# --- scoring terms -----------------------------------------------------------------

def test_terms_sum_to_total_and_name_every_contribution(kb, freq, config):
    report = generate(load_fixture("moor_ship"), kb)
    top = report.sentences[0]
    assert top.sentence == "They moored the ship."
    names = [name for name, _ in top.terms]
    assert names == ["pipeline", "frequency", "repetition", "length"]
    by_name = dict(top.terms)
    assert by_name["pipeline"] == 52.0
    assert by_name["frequency"] == pytest.approx(2.75)
    assert by_name["repetition"] == 0.0
    assert by_name["length"] == 0.0
    assert top.total == pytest.approx(sum(by_name.values()))


def test_history_penalty_reranks_a_repeated_name(kb):
    tmr = load_fixture("walk_named_agent")
    quiet = generate(tmr, kb, context=("HUMAN-77",))
    assert quiet.sentences[0].sentence == "He walked."
    with_history = generate(load_fixture("walk_named_agent"), kb,
                            context=("HUMAN-77",),
                            history=("Johnny jumped off the stairs.",))
    sentences = [s.sentence for s in with_history.sentences]
    assert sentences.index("He walked.") < sentences.index("Johnny walked.")
    named = next(s for s in with_history.sentences if s.sentence == "Johnny walked.")
    assert dict(named.terms)["repetition"] == -10.0


# --- ordering -----------------------------------------------------------------------

@pytest.mark.parametrize("name, config, total", [
    ("fasten_painting", GenerationConfig(pipeline_weight=1e308), "inf"),
    ("fasten_painting", GenerationConfig(pipeline_weight=1e308, length_tie_break=1e308), "nan"),
    ("request_blunt", GenerationConfig(feature_bonus=sys.float_info.max,
                                       exact_bonus=sys.float_info.max), "inf"),
], ids=["infinite", "not-a-number", "feature-bonus"])
def test_a_total_that_is_not_finite_is_an_error_naming_its_sentence(kb, name, config, total):
    with pytest.raises(OntogenError) as caught:
        generate(load_fixture(name), kb, config=config)
    assert type(caught.value) is OntogenError
    assert re.fullmatch(rf"'[^']+' totals {total}: a config weight or bonus is too large "
                        "for the score arithmetic", str(caught.value))


def test_ranks_are_contiguous_and_order_is_total_then_text(kb):
    report = generate(load_fixture("fasten_painting"), kb)
    assert [s.rank for s in report.sentences] == list(range(1, len(report.sentences) + 1))
    keys = [(-s.total, s.sentence) for s in report.sentences]
    assert keys == sorted(keys)


def test_equal_totals_break_ties_alphabetically(kb):
    report = generate(load_fixture("fasten_painting"), kb)
    by_text = {s.sentence: s for s in report.sentences}
    painting = by_text["Tom secured a painting to the wall."]
    picture = by_text["Tom secured a picture to the wall."]
    assert painting.total == picture.total
    assert painting.rank < picture.rank


def test_length_tie_break_prefers_shorter_sentences(kb, freq, morph, config):
    tmr, solutions = _solutions("fasten_painting", kb, config, morph)
    stretched = config._replace(length_tie_break=0.5)
    report = rank(solutions, freq, stretched)
    texts = [s.sentence for s in report]
    # "picture" is a letter shorter than "painting", so it now wins the tie
    assert texts.index("Tom secured a picture to the wall.") \
        < texts.index("Tom secured a painting to the wall.")
    lengths = {s.sentence: dict(s.terms)["length"] for s in report}
    assert lengths["Tom secured a picture to the wall."] == -0.5 * len(
        "Tom secured a picture to the wall.")


def test_duplicate_sentences_keep_only_the_best_row(kb, freq, morph, config):
    tmr, solutions = _solutions("moor_ship", kb, config, morph)
    report = rank(solutions + solutions, freq, config)
    texts = [s.sentence for s in report]
    assert len(texts) == len(set(texts))
    assert report[0].sentence == "They moored the ship."

