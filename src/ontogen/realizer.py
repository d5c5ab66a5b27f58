"""Surface realization: constituent trees to English sentences.

Inflection is table-first (irregular verbs, irregular plurals, the pronoun
paradigm, the paradigm of "be"), with regular rules as the fallback. The
tree is linearized depth-first; tokens opening with a comma or apostrophe
attach to the word on their left, and "a" becomes "an" before a word that
takes it.

Each piece of a sentence is realized once per request, by the forest that
builds the request's sets (solution.py), into its text, whether it ends in
"a", and its proper names. A set's sentence is one assembly over its
pieces: their texts joined, a piece's final "a" resolved against the first
word of the next piece, then the capital and the terminal mark.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import SchemaError
from .strictjson import document, read_json, reading

if TYPE_CHECKING:
    from .solution import CandidateSolution, Constituent, Features

SCHEMA_MORPH = "ontogen-morph/1"

_VOWELS = "aeiou"
_SIBILANT_ENDINGS = ("s", "x", "z", "ch", "sh")
_TERMINAL = {"declarative": ".", "interrogative": "?", "imperative": "!"}
_MODALS = frozenset({"will", "would", "can", "could", "shall", "should",
                     "may", "might", "must"})
# a text's first word: up to a space, or to a token that attaches to it by
# opening with a comma or an apostrophe
_FIRST_WORD = re.compile(r"\s*([,']?[^\s,']*)")


class MorphTables:
    def __init__(self, irregular_verbs: dict[str, dict[str, str]],
                 irregular_plurals: dict[str, str], pronouns: dict[str, dict[str, str]],
                 be_forms: dict[str, dict[str, str]], an_before: frozenset[str],
                 a_before: frozenset[str]):
        self.irregular_verbs = irregular_verbs
        self.irregular_plurals = irregular_plurals
        self.pronouns = pronouns
        self.be_forms = be_forms
        self.an_before = an_before
        self.a_before = a_before


def _words(table, name: str) -> dict[str, str]:
    """table itself, once it is an object whose values are all words."""
    if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
        raise SchemaError(f"{name} must be an object of words, got {table!r}")
    return table


def _word_list(words, name: str) -> frozenset[str]:
    """words as a set, once it is a list of words."""
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise SchemaError(f"{name} must be a list of words, got {words!r}")
    return frozenset(words)


def parse_morphology(doc: dict, source: str = "<morphology>") -> MorphTables:
    with reading(source):
        document(doc, SCHEMA_MORPH)
        verbs = doc.get("irregular-verbs", {})
        pronouns = doc.get("pronouns", {})
        be_forms = doc.get("be", {})
        for name, table in (("irregular-verbs", verbs), ("pronouns", pronouns), ("be", be_forms)):
            if not isinstance(table, dict):
                raise SchemaError(f"{name} must be an object")
        for lemma, forms in verbs.items():
            if "past" not in _words(forms, f"irregular verb {lemma!r}"):
                raise SchemaError(f"irregular verb {lemma!r} needs at least a past form")
        for lemma, paradigm in pronouns.items():
            _words(paradigm, f"pronoun {lemma!r}")
        if not isinstance(be_forms.get("participle", ""), str):
            raise SchemaError(f"be participle must be a word, got {be_forms['participle']!r}")
        for tense, forms in be_forms.items():
            if tense != "participle":
                _words(forms, f"be {tense!r}")
        return MorphTables(
            irregular_verbs=verbs,
            irregular_plurals=_words(doc.get("irregular-plurals", {}), "irregular-plurals"),
            pronouns=pronouns,
            be_forms=be_forms,
            an_before=_word_list(doc.get("an-before", []), "an-before"),
            a_before=_word_list(doc.get("a-before", []), "a-before"),
        )


def load_morphology(path: str | Path) -> MorphTables:
    with reading(str(path)):
        return parse_morphology(read_json(path), str(path))


@functools.cache
def bundled_morphology() -> MorphTables:
    """The bundled tables, read once per process and shared by every
    caller: nothing in ontogen changes a MorphTables, and no caller may."""
    return load_morphology(Path(__file__).parent / "data" / "morphology.json")


# ---------------------------------------------------------------------------
# inflection

def _doubles_final(lemma: str) -> bool:
    # one-syllable consonant-vowel-consonant stems double: stop -> stopped
    if len(lemma) < 3:
        return False
    a, b, c = lemma[-3], lemma[-2], lemma[-1]
    if a in _VOWELS or b not in _VOWELS or c in _VOWELS or c in "wxy":
        return False
    return len(re.findall(f"[{_VOWELS}]+", lemma)) == 1


def _regular_past(lemma: str) -> str:
    if lemma.endswith("e"):
        return lemma + "d"
    if lemma.endswith("y") and len(lemma) > 1 and lemma[-2] not in _VOWELS:
        return lemma[:-1] + "ied"
    if _doubles_final(lemma):
        return lemma + lemma[-1] + "ed"
    return lemma + "ed"


def _regular_third(lemma: str) -> str:
    if lemma.endswith(_SIBILANT_ENDINGS) or lemma.endswith("o"):
        return lemma + "es"
    if lemma.endswith("y") and len(lemma) > 1 and lemma[-2] not in _VOWELS:
        return lemma[:-1] + "ies"
    return lemma + "s"


def _regular_plural(noun: str) -> str:
    if noun.endswith("f"):
        return noun[:-1] + "ves"
    if noun.endswith("fe"):
        return noun[:-2] + "ves"
    return _regular_third(noun)


def _be_form(tables: MorphTables, features: Features) -> str:
    tense = features.tense or "present"
    if tense == "future":
        return "will be"
    person = features.person or 3
    number = features.number or "singular"
    table = tables.be_forms.get(tense, {})
    return table.get(f"{person}-{number}", "is" if tense == "present" else "was")


def inflect_verb(tables: MorphTables, lemma: str, features: Features) -> str:
    """The finite or requested non-finite form of a verb lemma."""
    if features.verb_form == "base" or lemma in _MODALS:
        return lemma
    if lemma == "be":
        if features.verb_form == "participle":
            return tables.be_forms.get("participle", "been")
        return _be_form(tables, features)
    irregular = tables.irregular_verbs.get(lemma, {})
    if features.verb_form == "participle":
        return irregular.get("participle", irregular.get("past", _regular_past(lemma)))
    tense = features.tense or "present"
    if tense == "past":
        return irregular.get("past", _regular_past(lemma))
    if tense == "future":
        return "will " + lemma
    if (features.person or 3) == 3 and (features.number or "singular") == "singular":
        return irregular.get("third", _regular_third(lemma))
    return lemma


def pluralize(tables: MorphTables, noun: str) -> str:
    return tables.irregular_plurals.get(noun, _regular_plural(noun))


def pronoun_form(tables: MorphTables, lemma: str, case: str | None) -> str:
    paradigm = tables.pronouns.get(lemma.lower())
    if paradigm is None:
        return lemma
    return paradigm.get(case or "subjective", lemma)


def indefinite_article(tables: MorphTables, next_word: str) -> str:
    """"a" or "an" for the word that follows, exception lists first."""
    lowered = next_word.lower()
    if lowered in tables.an_before:
        return "an"
    if lowered in tables.a_before:
        return "a"
    return "an" if lowered[:1] in _VOWELS else "a"


# ---------------------------------------------------------------------------
# linearization

def _leaf_token(tables: MorphTables, leaf: Constituent) -> str:
    lemma = leaf.lemma or ""
    if leaf.pronoun:
        return pronoun_form(tables, lemma, leaf.features.case)
    if leaf.function in ("main-verb", "auxiliary"):
        return inflect_verb(tables, lemma, leaf.features)
    if leaf.function == "noun-head" and not leaf.proper:
        if leaf.features.number == "plural":
            return pluralize(tables, lemma)
    return lemma


def _piece(tables: MorphTables, node: Constituent) -> tuple:
    """The node as a piece of text: (text, whether its last token is "a",
    proper-name lemmas in surface order, node). The text is the node's
    tokens joined, every article resolved but a final "a", which waits for
    the word that follows the node."""
    if node.is_leaf:
        token = _leaf_token(tables, node)
        names = (node.lemma,) if node.proper and node.lemma else ()
        return token, token == "a", names, node
    return _assemble(tables, [_piece(tables, child) for child in node.children]) + (node,)


def _assemble(tables: MorphTables, pieces: list[tuple]) -> tuple[str, bool, tuple]:
    """Pieces in surface order as one: (text, whether the last token is
    "a", names). A piece's final "a" becomes "a" or "an" for the first word
    of the next piece with text; a piece opening with a comma or an
    apostrophe attaches to the text on its left."""
    text = ""
    ends_in_a = False
    names: tuple[str, ...] = ()
    for word, last_is_a, piece_names, _ in pieces:
        if piece_names:
            names += piece_names
        if not word:
            continue
        if text:
            if ends_in_a:
                text = text[:-1] + indefinite_article(tables, _FIRST_WORD.match(word)[1])
            if not word.startswith((",", "'")):
                text += " "
        text += word
        ends_in_a = last_is_a
    return text, ends_in_a, names


def _capitalize(text: str) -> str:
    for index, char in enumerate(text):
        if char.isalpha():
            return text[:index] + char.upper() + text[index + 1:]
    return text


def realize(solution: CandidateSolution, tables: MorphTables) -> str:
    """The finished sentence: the solution's pieces joined, capitalized
    and given the mood's terminal mark; stored on the solution with its
    proper names."""
    text, _, solution.names = _assemble(tables, solution.pieces)
    text = _capitalize(text) + _TERMINAL.get(solution.mood, ".")
    solution.sentence = text
    return text
