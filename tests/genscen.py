"""Randomized small knowledge bases and meaning fixtures for property tests.

A scenario is a seeded draw of: a tiny ontology (at most 10 concepts), a
lexicon (at most 15 senses), optional episodic memory, and one matching
meaning representation. Every draw is constructed so at least one candidate
survives the pipeline unless the draw deliberately removes the subject.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import tempfile
from collections import Counter
from pathlib import Path

from ontogen import (
    GenerationConfig,
    KnowledgeBase,
    Tmr,
    bundled_frequency,
    bundled_morphology,
    load_knowledge_base,
    parse_tmr,
)
from ontogen.pipeline import (
    CandidateSet,
    extract_candidates,
    manage_reference,
    prune_semantic,
    prune_syntactic,
)
from ontogen.realizer import inflect_verb, pluralize, pronoun_form, realize
from ontogen.selector import rank
from ontogen.solution import Forest, build_solution
from ontogen.tmr import find_root_frame

# concept name -> its two noun lemmas
OBJECT_POOL = {
    "BOX": ("box", "crate"),
    "STONE": ("stone", "rock"),
    "CHAIR": ("chair", "seat"),
    "LAMP": ("lamp", "light"),
    "ROBOT": ("robot", "machine"),
    "PLANT": ("plant", "fern"),
}
VERB_POOL = ["lift", "pull", "push", "paint", "clean", "carry", "grab", "drop"]
INTRANS_POOL = ["walk", "jump", "dance", "smile", "hurry", "jog"]


def _noun(sense_id: str, lemma: str, head: str) -> dict:
    return {
        "id": sense_id,
        "headword": lemma,
        "pos": "n",
        "syn-struc": [{"cat": "n", "var": 0}],
        "sem-struc": {"head": head, "slots": {}},
    }


def _verb(sense_id: str, lemma: str, head: str, transitive: bool,
          synonyms: list[str] | None = None) -> dict:
    syn = [{"cat": "subj", "var": 1}, {"cat": "v", "var": 0}]
    slots: dict = {"AGENT": {"var": 1}}
    if transitive:
        syn.append({"cat": "directobject", "var": 2})
        slots["THEME"] = {"var": 2}
    sense = {
        "id": sense_id,
        "headword": lemma,
        "pos": "v",
        "syn-struc": syn,
        "sem-struc": {"head": head, "slots": slots},
    }
    if synonyms:
        sense["synonyms"] = synonyms
    return sense


def build_scenario(seed: int) -> tuple[KnowledgeBase, Tmr]:
    """One deterministic random scenario; same seed, same scenario."""
    rng = random.Random(seed)

    object_names = rng.sample(sorted(OBJECT_POOL), rng.randint(1, 3))
    concepts: dict = {
        "ALL": {"parents": []},
        "OBJECT": {"parents": ["ALL"]},
        "EVENT": {"parents": ["ALL"]},
        "HUMAN": {"parents": ["OBJECT"]},
    }
    for name in object_names:
        concepts[name] = {"parents": ["OBJECT"]}

    transitive = rng.random() < 0.6
    event = "MOVE-EVENT" if transitive else "ACT-EVENT"
    slots = {"AGENT": {"sem": "HUMAN"}}
    if transitive:
        slots["THEME"] = {"sem": "OBJECT"}
    concepts[event] = {"parents": ["EVENT"], "slots": slots}
    assert len(concepts) <= 10

    verbs = rng.sample(VERB_POOL if transitive else INTRANS_POOL, rng.randint(1, 2))
    senses = [_noun("person-n1", "person", "HUMAN")]
    for pid, lemma, ref in (
        ("i-n1", "i", {"person": 1, "number": "singular"}),
        ("he-n1", "he", {"person": 3, "number": "singular", "gender": "male"}),
        ("she-n1", "she", {"person": 3, "number": "singular", "gender": "female"}),
        ("they-n1", "they", {"person": 3, "number": "plural"}),
    ):
        senses.append({**_noun(pid, lemma, "HUMAN"), "reference": ref})
    for i, lemma in enumerate(verbs, start=1):
        synonyms = None
        if rng.random() < 0.4:
            pool = [w for w in (VERB_POOL if transitive else INTRANS_POOL) if w not in verbs]
            synonyms = rng.sample(pool, rng.randint(1, 2))
        senses.append(_verb(f"{lemma}-v{i}", lemma, event, transitive, synonyms))
    if rng.random() < 0.3:
        # distractor with the wrong valency; the syntactic stage must remove it
        senses.append(_verb("odd-v9", "tug", event, not transitive))
    for name in object_names:
        first, second = OBJECT_POOL[name]
        senses.append(_noun(f"{first}-n1", first, name))
        if rng.random() < 0.5:
            senses.append(_noun(f"{second}-n1", second, name))
    assert len(senses) <= 15

    instances: dict = {}
    agent_known = rng.random() < 0.5
    if agent_known:
        instances["HUMAN-1"] = {"GENDER": rng.choice(["male", "female"])} if rng.random() < 0.5 else {}

    theme_concept = rng.choice(object_names)
    frames: dict = {}
    event_frame: dict = {"AGENT": "HUMAN-1"}
    agent_frame: dict = {}
    drop_agent = transitive and rng.random() < 0.15
    if drop_agent:
        event_frame.pop("AGENT")
    elif rng.random() < 0.2:
        agent_frame["CARDINALITY"] = rng.randint(2, 4)
    if transitive:
        event_frame["THEME"] = f"{theme_concept}-1"
        theme_frame: dict = {}
        if rng.random() < 0.3:
            theme_frame["CARDINALITY"] = rng.randint(2, 4)
        if rng.random() < 0.3:
            instances[f"{theme_concept}-1"] = {}
        frames[f"{theme_concept}-1"] = theme_frame
    if rng.random() < 0.5:
        event_frame["TIME"] = "before-reference"
    frames[f"{event}-1"] = event_frame
    if not drop_agent:
        frames["HUMAN-1"] = agent_frame

    doc: dict = {"schema": "ontogen-tmr/1", "frames": frames}
    if not drop_agent and rng.random() < 0.2:
        doc["speaker"] = "HUMAN-1"

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "ontology.json").write_text(json.dumps(
            {"schema": "ontogen-kb/1", "kind": "ontology", "concepts": concepts}))
        (base / "lexicon.json").write_text(json.dumps(
            {"schema": "ontogen-kb/1", "kind": "lexicon", "senses": senses}))
        (base / "memory.json").write_text(json.dumps(
            {"schema": "ontogen-kb/1", "kind": "memory", "instances": instances}))
        kb = load_knowledge_base(base / "ontology.json", base / "lexicon.json",
                                 base / "memory.json")
    tmr = parse_tmr(json.dumps(doc), source=f"<scenario {seed}>")
    return kb, tmr


def leaf_words(solution, tables) -> list[str]:
    """Lowercased surface words each leaf contributes, mirroring leaf rendering."""
    words: list[str] = []
    for node in solution.root.walk():
        if not node.is_leaf:
            continue
        feats = node.features
        if node.pronoun:
            token = pronoun_form(tables, node.lemma, feats.case)
        elif node.function in ("main-verb", "auxiliary"):
            token = inflect_verb(tables, node.lemma, feats)
        elif node.function == "noun-head" and feats.number == "plural" and not node.proper:
            token = pluralize(tables, node.lemma)
        else:
            token = node.lemma
        words.extend(token.replace(",", " ").lower().split())
    return ["a" if w == "an" else w for w in words]


def sentence_words(sentence: str) -> list[str]:
    body = sentence.rstrip(".?!").replace(",", " ").lower()
    return ["a" if w == "an" else w for w in body.split()]


def tokens_conserved(scored, tables) -> bool:
    return Counter(sentence_words(scored.sentence)) == Counter(leaf_words(scored.solution, tables))


def rank_every_set(tmr: Tmr, kb: KnowledgeBase, config: GenerationConfig | None = None):
    """The ranked sentences of generate() built the long way: every survivor
    of every unit combined, every synonym cloned, every set built, realized
    and ranked, with no frame held at one candidate, and no set sharing a
    forest or a realization memo with another."""
    config = config or GenerationConfig()
    units = manage_reference(extract_candidates(tmr, kb), tmr, kb, config)
    trace: list = []
    survivors = prune_syntactic(prune_semantic(units, tmr, kb, config, trace), tmr, trace)
    columns = [unit.candidates for unit in survivors]
    assert math.prod(map(len, columns)) <= config.set_cap, "the reference must not be truncated"
    sets = []
    for combo in itertools.product(*columns):
        choices = {choice.unit_key: choice for choice in combo}
        sets.append(CandidateSet(choices))
        sets.extend(CandidateSet({**choices, choice.unit_key: choice._replace(lemma_override=word)})
                    for choice in combo for word in choice.sense.synonyms)
    root = find_root_frame(tmr)
    solutions = [build_solution(cs, Forest(tmr, root)) for cs in sets]
    tables = bundled_morphology()
    for solution in solutions:
        realize(solution, tables, {})
    return rank(solutions, bundled_frequency(), config)


def ranked_rows(sentences) -> list[tuple]:
    """What a ranking reports for each sentence."""
    return [(s.sentence, s.total, s.terms, s.signature, s.ledger) for s in sentences]
