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


# the event chain below MOVE-EVENT a redeclaring scenario draws from
EVENT_CHAIN = ["HANDLE-EVENT", "LIFT-EVENT", "HOIST-EVENT"]


def build_redeclared_scenario(seed: int) -> tuple[KnowledgeBase, Tmr]:
    """One deterministic scenario whose ontology declares THEME on
    MOVE-EVENT and redeclares it, with a narrower sem and perhaps a
    default, on a descendant in a chain of one to three events below it.
    One object concept also has a child, named after its second lemma.
    The verbs head concepts anywhere in the chain, and a verb's THEME may
    override its sem with the narrower concept, so the constraint a sense
    reads, and the degree its filler matches at, depend on which
    declaration is nearest. The THEME filler is the narrower concept or
    its child, so the scenario is always expressible."""
    rng = random.Random(seed)
    object_names = rng.sample(sorted(OBJECT_POOL), rng.randint(1, 3))
    narrow = rng.choice(object_names)
    child = OBJECT_POOL[narrow][1].upper()
    chain = ["MOVE-EVENT"] + EVENT_CHAIN[:rng.randint(1, 3)]
    concepts: dict = {
        "ALL": {"parents": []},
        "OBJECT": {"parents": ["ALL"]},
        "EVENT": {"parents": ["ALL"]},
        "HUMAN": {"parents": ["OBJECT"]},
        **{name: {"parents": ["OBJECT"]} for name in object_names},
        child: {"parents": [narrow]},
        "MOVE-EVENT": {"parents": ["EVENT"],
                       "slots": {"AGENT": {"sem": "HUMAN"}, "THEME": {"sem": "OBJECT"}}},
    }
    for parent, name in zip(chain, chain[1:]):
        concepts[name] = {"parents": [parent]}
    redeclared = {"sem": narrow}
    if rng.random() < 0.7:
        redeclared["default"] = narrow
    concepts[rng.choice(chain[1:])]["slots"] = {"THEME": redeclared}

    senses = [_noun("person-n1", "person", "HUMAN")]
    for name in object_names:
        senses.append(_noun(f"{OBJECT_POOL[name][0]}-n1", OBJECT_POOL[name][0], name))
    senses.append(_noun(f"{child.lower()}-n1", child.lower(), child))
    for i, lemma in enumerate(rng.sample(VERB_POOL, rng.randint(1, 3)), start=1):
        sense = _verb(f"{lemma}-v{i}", lemma, rng.choice(chain), True)
        if rng.random() < 0.5:
            sense["sem-struc"]["slots"]["THEME"]["sem"] = narrow
        senses.append(sense)

    theme = rng.choice([narrow, child])
    frames = {f"{chain[-1]}-1": {"AGENT": "HUMAN-1", "THEME": f"{theme}-1"},
              "HUMAN-1": {}, f"{theme}-1": {}}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for kind, key, body in (("ontology", "concepts", concepts), ("lexicon", "senses", senses),
                                ("memory", "instances", {})):
            (base / f"{kind}.json").write_text(json.dumps(
                {"schema": "ontogen-kb/1", "kind": kind, key: body}))
        kb = load_knowledge_base(base / "ontology.json", base / "lexicon.json",
                                 base / "memory.json")
    tmr = parse_tmr(json.dumps({"schema": "ontogen-tmr/1", "frames": frames}),
                    source=f"<redeclared scenario {seed}>")
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
    of every unit of the frames the root reaches combined, every synonym
    cloned, every set built, realized and ranked, and no set sharing a
    forest or a realization memo with another."""
    config = config or GenerationConfig()
    root = find_root_frame(tmr)
    units = manage_reference(extract_candidates(tmr, kb, root), tmr, kb, config)
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
    tables = bundled_morphology()
    solutions = [build_solution(cs, Forest(tmr, root, tables)) for cs in sets]
    for solution in solutions:
        realize(solution, tables)
    return rank(solutions, bundled_frequency(), config)


def ranked_rows(sentences) -> list[tuple]:
    """What a ranking reports for each sentence."""
    return [(s.sentence, s.total, s.terms, s.signature, s.ledger) for s in sentences]
