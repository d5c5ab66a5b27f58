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
import re
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import ontogen
from ontogen import (
    GenerationConfig,
    KnowledgeBase,
    OntogenError,
    Tmr,
    bundled_frequency,
    bundled_morphology,
    generate,
    load_knowledge_base,
    parse_tmr,
    parse_tmr_file,
)
from ontogen.pipeline import (
    CandidateSet,
    extract_candidates,
    manage_reference,
    prune_semantic,
    prune_syntactic,
)
from ontogen.realizer import indefinite_article, inflect_verb, pluralize, pronoun_form
from ontogen.solution import Forest, build_solution
from ontogen.tmr import CASE_ROLES, find_root_frame

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


def write_kb(directory: Path, concepts: dict, senses: list,
             instances: dict | None = None) -> tuple[Path, Path, Path]:
    """The ontology, lexicon and memory files of a knowledge base, written
    into directory; their paths in load_knowledge_base's order."""
    paths = []
    for kind, key, body in (("ontology", "concepts", concepts), ("lexicon", "senses", senses),
                            ("memory", "instances", instances or {})):
        path = Path(directory) / f"{kind}.json"
        path.write_text(json.dumps({"schema": "ontogen-kb/1", "kind": kind, key: body}))
        paths.append(path)
    return tuple(paths)


def load_kb(concepts: dict, senses: list, instances: dict | None = None) -> KnowledgeBase:
    """The knowledge base of these documents, loaded through its files."""
    with tempfile.TemporaryDirectory() as tmp:
        return load_knowledge_base(*write_kb(Path(tmp), concepts, senses, instances))


def isa_chain(n: int) -> dict:
    """The concepts of an ontology that is one IS-A chain of n concepts:
    C0 is the root and each Ci the child of C(i-1); none declares a slot."""
    return {f"C{i}": {"parents": [f"C{i - 1}"] if i else []} for i in range(n)}


# the depth of each chain of concepts in broad_kb's deep shape
BROAD_DEPTH = 100


def broad_kb(senses: int, deep: bool) -> tuple[dict, list]:
    """The concepts and senses of a broad-coverage knowledge base: `senses`
    senses, ten to a concept, over concepts that alternate between objects
    and events, below OBJECT and EVENT. EVENT declares AGENT (sem HUMAN)
    and THEME (sem OBJECT). An object's ten senses are nouns; an event's
    are transitive verbs binding AGENT and THEME, and every other one
    narrows THEME to the object concept just before the event's, so loading
    reads the ancestry of every event and of every object narrowed to. In
    the shallow shape every concept is a child of OBJECT or EVENT; in the
    deep shape each kind's concepts hang from it in chains BROAD_DEPTH long,
    so an event's constraints are inherited from up to BROAD_DEPTH levels up."""
    concepts: dict = {
        "ALL": {"parents": []},
        "OBJECT": {"parents": ["ALL"]},
        "HUMAN": {"parents": ["OBJECT"]},
        "EVENT": {"parents": ["ALL"],
                  "slots": {"AGENT": {"sem": "HUMAN"}, "THEME": {"sem": "OBJECT"}}},
    }
    for c in range((senses + 9) // 10):
        kind, prefix = ("OBJECT", "THING") if c % 2 == 0 else ("EVENT", "ACT")
        index = c // 2
        parent = f"{prefix}{index - 1}" if deep and index % BROAD_DEPTH else kind
        concepts[f"{prefix}{index}"] = {"parents": [parent]}
    lexicon = []
    for i in range(senses):
        c = i // 10
        if c % 2 == 0:
            lexicon.append(_noun(f"thing{i}-n1", f"thing{i}", f"THING{c // 2}"))
            continue
        verb = _verb(f"act{i}-v1", f"act{i}", f"ACT{c // 2}", True)
        if i % 2:
            verb["sem-struc"]["slots"]["THEME"]["sem"] = f"THING{c // 2}"
        lexicon.append(verb)
    return concepts, lexicon


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

    kb = load_kb(concepts, senses, instances)
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
    kb = load_kb(concepts, senses)
    tmr = parse_tmr(json.dumps({"schema": "ontogen-tmr/1", "frames": frames}),
                    source=f"<redeclared scenario {seed}>")
    return kb, tmr


# an attached participant's concept, in case-role order -> its two noun
# lemmas and the synonym of the first
ATTACHED_POOL = {
    "ROBOT": ("robot", "machine", "droid"),
    "BOX": ("box", "crate", "carton"),
    "SHELF": ("shelf", "rack", "ledge"),
    "HOOK": ("hook", "clamp", "clip"),
    "CHILD": ("child", "kid", "youngster"),
    "TRUCK": ("truck", "lorry", "van"),
}
# the syn-struc nodes of each case role after the subject and the verb
_ATTACHED_NODES = {
    "THEME": [{"cat": "directobject", "var": 2}],
    "DESTINATION": [{"cat": "prep", "var": 3, "root": ["to"]}, {"cat": "n", "var": 4}],
    "INSTRUMENT": [{"cat": "prep", "var": 5, "root": ["with"]}, {"cat": "n", "var": 6}],
    "BENEFICIARY": [{"cat": "prep", "var": 7, "root": ["for"]}, {"cat": "n", "var": 8}],
    "SOURCE": [{"cat": "prep", "var": 9, "root": ["from"]}, {"cat": "n", "var": 10}],
}


def build_attached_family(n: int) -> tuple[KnowledgeBase, Tmr]:
    """One event whose first n case roles (1 <= n <= 6) are each filled by
    a participant: a concept with two noun senses, the first with one
    synonym. Every choice scores alike, so the event ranks
    2**(n-1) * (n + 2) sentences at one total, alphabetical among them."""
    roles = CASE_ROLES[:n]
    participants = list(ATTACHED_POOL)[:n]
    concepts: dict = {
        "ALL": {"parents": []},
        "OBJECT": {"parents": ["ALL"]},
        "EVENT": {"parents": ["ALL"]},
        "CARRY": {"parents": ["EVENT"], "slots": {role: {"sem": "OBJECT"} for role in roles}},
        **{name: {"parents": ["OBJECT"]} for name in participants},
    }
    syn = [{"cat": "subj", "var": 1}, {"cat": "v", "var": 0}]
    slots: dict = {"AGENT": {"var": 1}}
    null_sem = []
    for role in roles[1:]:
        nodes = _ATTACHED_NODES[role]
        syn.extend(nodes)
        slots[role] = {"var": nodes[-1]["var"]}
        null_sem.extend(node["var"] for node in nodes[:-1])
    senses = [{"id": "carry-v1", "headword": "carry", "pos": "v", "syn-struc": syn,
               "sem-struc": {"head": "CARRY", "slots": slots, "null-sem": null_sem}}]
    for name in participants:
        first, second, synonym = ATTACHED_POOL[name]
        senses.append({**_noun(f"{first}-n1", first, name), "synonyms": [synonym]})
        senses.append(_noun(f"{second}-n1", second, name))
    frames = {"CARRY-1": {role: f"{name}-1" for role, name in zip(roles, participants)},
              **{f"{name}-1": {} for name in participants}}
    kb = load_kb(concepts, senses)
    tmr = parse_tmr(json.dumps({"schema": "ontogen-tmr/1", "frames": frames}),
                    source=f"<attached family {n}>")
    return kb, tmr


def nested_requests(depth: int, innermost: str) -> dict:
    """The request_polite TMR document with depth requests, each but the
    last the THEME of the one before: REQUEST-ACTION-1's THEME is
    REQUEST-ACTION-2, and so on, and REQUEST-ACTION-<depth>'s THEME is
    innermost, the fixture's PREPARE-FOOD-1 or its DINNER-1 (then the only
    frame below the requests)."""
    doc = json.loads((Path(ontogen.__file__).parent / "data" / "tmr" / "request_polite.json")
                     .read_text())
    frames = doc["frames"]
    if innermost == "DINNER-1":
        del frames["PREPARE-FOOD-1"]
    for k in range(2, depth + 1):
        frames[f"REQUEST-ACTION-{k}"] = {**frames["REQUEST-ACTION-1"],
                                         "THEME-OF": [f"REQUEST-ACTION-{k - 1}"]}
    for k in range(1, depth):
        frames[f"REQUEST-ACTION-{k}"]["THEME"] = f"REQUEST-ACTION-{k + 1}"
    frames[f"REQUEST-ACTION-{depth}"]["THEME"] = innermost
    frames[innermost] = {**frames[innermost], "THEME-OF": [f"REQUEST-ACTION-{depth}"]}
    return doc


def reference_cases():
    """(label, tmr, kb) for every bundled fixture, genscen seeds 0-299 and
    the attached family n = 1..6."""
    data = Path(ontogen.__file__).parent / "data"
    kb = load_knowledge_base(data / "kb" / "ontology.json", data / "kb" / "lexicon.json",
                             data / "kb" / "memory.json")
    for path in sorted((data / "tmr").glob("*.json")):
        yield path.stem, parse_tmr_file(path), kb
    for seed in range(300):
        scenario_kb, tmr = build_scenario(seed)
        yield f"seed {seed}", tmr, scenario_kb
    for n in range(1, 7):
        family_kb, tmr = build_attached_family(n)
        yield f"attached {n}", tmr, family_kb


# the default config, and one whose sums are not exact in floats and whose
# length term breaks ties
REFERENCE_CONFIGS = {
    "default": GenerationConfig(),
    "thirds": GenerationConfig(pipeline_weight=0.1, exact_bonus=0.7, narrow_bonus=1 / 3,
                               uncovered_penalty=1 / 7, length_tie_break=0.01),
}


def reference_mismatches() -> tuple[int, list[str]]:
    """The number of sentences generate() ranked over reference_cases under
    each REFERENCE_CONFIGS config, and the label of each case and config
    whose ranking differs from rank_every_set's."""
    compared, mismatches = 0, []
    for label, tmr, kb in reference_cases():
        for name, config in REFERENCE_CONFIGS.items():
            try:
                report = generate(tmr, kb, config=config)
            except OntogenError:
                continue
            compared += len(report.sentences)
            if ranked_rows(report.sentences) != rank_every_set(tmr, kb, config):
                mismatches.append(f"{label} [{name}]: generate() differs from the reference")
    return compared, mismatches


def walk(node):
    """The node and every node under it, depth-first, in surface order."""
    yield node
    for child in node.children:
        yield from walk(child)


def leaf_token(node, tables) -> str:
    """The surface token of one leaf: a pronoun in its case, a verb
    inflected, a common noun in its number, else its lemma."""
    feats = node.features
    if node.pronoun:
        return pronoun_form(tables, node.lemma, feats.case)
    if node.function in ("main-verb", "auxiliary"):
        return inflect_verb(tables, node.lemma, feats)
    if node.function == "noun-head" and feats.number == "plural" and not node.proper:
        return pluralize(tables, node.lemma)
    return node.lemma


def leaf_words(solution, tables) -> list[str]:
    """Lowercased surface words each leaf contributes, mirroring leaf rendering."""
    words: list[str] = []
    for node in walk(solution.root):
        if node.is_leaf:
            words.extend(leaf_token(node, tables).replace(",", " ").lower().split())
    return ["a" if w == "an" else w for w in words]


def sentence_words(sentence: str) -> list[str]:
    body = sentence.rstrip(".?!").replace(",", " ").lower()
    return ["a" if w == "an" else w for w in body.split()]


def tokens_conserved(scored, tables) -> bool:
    return Counter(sentence_words(scored.sentence)) == Counter(leaf_words(scored.solution, tables))


def rank_every_set(tmr: Tmr, kb: KnowledgeBase,
                   config: GenerationConfig | None = None) -> list[tuple]:
    """The rows generate() should rank, made the long way: every survivor of
    every unit of the frames the root reaches combined, every synonym
    cloned, every set built on its own forest, its tree linearized here
    (linearize) and its total summed here as fractions, rounded once; then
    sorted by total and sentence, the first set in exhaustive order keeping
    a sentence. A row is (sentence, total, terms, signature, ledger), as
    ranked_rows gives it."""
    config = config or GenerationConfig()
    root = find_root_frame(tmr)
    units = manage_reference(extract_candidates(tmr, kb, root), tmr, kb, config)
    trace: dict = {}
    survivors = prune_syntactic(prune_semantic(units, tmr, config, trace), tmr, root, trace)
    columns = [unit.candidates for unit in survivors]
    assert math.prod(map(len, columns)) <= config.set_cap, "the reference must not be truncated"
    sets = []
    for combo in itertools.product(*columns):
        sets.append(combo)
        sets.extend(combo[:u] + (choice._replace(lemma_override=word),) + combo[u + 1:]
                    for u, choice in enumerate(combo) for word in choice.sense.synonyms)
    tables, freq = bundled_morphology(), bundled_frequency()
    rows = []
    for combo in sets:
        # a set of one option per unit, alone on its forest
        options = tuple((c,) for c in combo)
        solution = build_solution(CandidateSet(options, (0,) * len(combo)),
                                  Forest(tmr, root, tables, options))
        sentence, names = linearize(solution.root, solution.mood, tables)
        ledger = tuple((c.unit_key, entry) for part in ("ledger", "semantic", "uncovered")
                       for c in combo for entry in getattr(c, part))
        head = next(c for c in combo if c.unit_key == root.instance_id)
        repeats = sum(max(0, len(re.findall(rf"\b{re.escape(name)}\b", sentence)) - 1)
                      for name in dict.fromkeys(names))
        terms = (("pipeline", config.pipeline_weight
                  * float(sum(Fraction(entry.delta) for _, entry in ledger))),
                 ("frequency", config.frequency_weight
                  * freq.lookup(head.lemma.lower(), head.sense.id)),
                 ("repetition", -config.repetition_penalty * repeats),
                 ("length", -config.length_tie_break * len(sentence)))
        total = float(sum(Fraction(value) for _, value in terms))
        signature = " ".join(f"{c.unit_key}={c.describe()}" for c in combo)
        rows.append((sentence, total, terms, signature, ledger))
    rows.sort(key=lambda row: (-row[1], row[0]))
    ranked, seen = [], set()
    for row in rows:
        if row[0] not in seen:
            seen.add(row[0])
            ranked.append(row)
    return ranked


def linearize(root, mood: str, tables) -> tuple[str, tuple[str, ...]]:
    """The sentence and proper names of a whole tree, token by token: each
    leaf rendered, each "a" made "a" or "an" for the next token, tokens
    joined (one opening with a comma or an apostrophe attaches to the
    left), the first letter capitalized and the mood's mark added."""
    leaves = [node for node in walk(root) if node.is_leaf]
    names = tuple(node.lemma for node in leaves if node.proper and node.lemma)
    tokens = [token for token in (leaf_token(leaf, tables) for leaf in leaves) if token]
    text = ""
    for index, token in enumerate(tokens):
        if token == "a" and index + 1 < len(tokens):
            token = indefinite_article(tables, tokens[index + 1].split()[0])
        text += token if not text or token.startswith((",", "'")) else " " + token
    first = next((i for i, char in enumerate(text) if char.isalpha()), None)
    if first is not None:
        text = text[:first] + text[first].upper() + text[first + 1:]
    return text + {"declarative": ".", "interrogative": "?", "imperative": "!"}[mood], names


def ranked_rows(sentences) -> list[tuple]:
    """What a ranking reports for each sentence."""
    return [(s.sentence, s.total, s.terms, s.signature, s.ledger) for s in sentences]
