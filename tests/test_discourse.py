"""Discourse golden: ranked output under a long history and a context.

Repetition is the only score term that reads the history, and no bundled
fixture or CLI run passes one, so this golden pins it. Each of the eleven
fixtures with a named or known referent is generated once in a seeded
conversation: 200 earlier turns fill a rolling window of said sentences
(the fixtures' own top-1 sentences plus a few lines whose name mentions sit
at word-boundary edges), and every instance id those turns mentioned is in
the context. The golden holds, for every ranked sentence, its text, total,
terms, signature and ledger; totals are stored at full float precision.

After a deliberate output change, regenerate it with

    PYTHONPATH=src python tests/test_discourse.py

and review the diff.
"""
from __future__ import annotations

import json
import random
from collections import deque
from pathlib import Path

from ontogen import generate, load_knowledge_base, parse_tmr_file

GOLDEN = Path(__file__).resolve().parent / "golden" / "discourse" / "history200.json"
DATA = Path(__file__).resolve().parents[1] / "src" / "ontogen" / "data"
KB_DIR, TMR_DIR = DATA / "kb", DATA / "tmr"

FIXTURES = (
    "blue_painting", "fasten_depicts", "fasten_painting", "fasten_painting_nlu",
    "fasten_passive", "funny_waiter", "moor_ship", "plural_paintings",
    "walk_intransitive", "walk_named_agent", "walk_transitive",
)
HISTORY_LINES = 200
SEED = "discourse-golden-1"
# Said lines that mention no instance: names inside other words, before an
# apostrophe, at both line edges, and next to non-ASCII letters.
ASIDES = (
    "Tom's dog met Johnny.",
    "Tomás and Johnnyson walked.",
    "Johnny",
    "Tom, Tom and Tom.",
    "Zoë saw Tomb Raider with Tom_Tom.",
    "Ask Johnny-Tom.",
)


def _top_sentence(name: str) -> str:
    report = json.loads((Path(__file__).parent / "golden" / f"{name}.json").read_text())
    return report["sentences"][0]["sentence"]


def _mentioned_ids(name: str) -> frozenset[str]:
    frames = json.loads((TMR_DIR / f"{name}.json").read_text())["frames"]
    ids = set(frames)
    for slots in frames.values():
        ids.update(slots[key] for key in ("COREF", "COREFER") if key in slots)
    return frozenset(ids)


def conversation():
    """(fixture, history, context) for each fixture, in seeded order."""
    rng = random.Random(SEED)
    turns = [(_top_sentence(name), _mentioned_ids(name)) for name in FIXTURES]
    turns += [(line, frozenset()) for line in ASIDES]
    window: deque[tuple[str, frozenset[str]]] = deque(maxlen=HISTORY_LINES)
    for _ in range(HISTORY_LINES):
        window.append(rng.choice(turns))
    order = list(FIXTURES)
    rng.shuffle(order)
    for name in order:
        history = tuple(line for line, _ in window)
        context = tuple(sorted(set().union(*(ids for _, ids in window))))
        yield name, history, context
        window.append(turns[FIXTURES.index(name)])


def bundled_kb():
    return load_knowledge_base(KB_DIR / "ontology.json", KB_DIR / "lexicon.json",
                               KB_DIR / "memory.json")


def discourse_report(kb) -> dict:
    out = {}
    for name, history, context in conversation():
        tmr = parse_tmr_file(TMR_DIR / f"{name}.json")
        report = generate(tmr, kb, context=context, history=history)
        out[name] = [
            {"sentence": s.sentence, "total": s.total,
             "terms": {term: value for term, value in s.terms},
             "signature": s.signature,
             "ledger": [[unit, entry.rule, entry.delta, entry.note]
                        for unit, entry in s.ledger]}
            for s in report.sentences
        ]
    return out


def discourse_text(kb) -> str:
    """The golden's text."""
    return json.dumps(discourse_report(kb), indent=1, ensure_ascii=False) + "\n"


def test_the_conversation_repeats_both_names():
    for name, history, context in conversation():
        assert len(history) == HISTORY_LINES
        assert any("Tom" in line for line in history)
        assert any("Johnny" in line for line in history)
        assert "HUMAN-77" in context


def test_discourse_report_matches_the_golden(kb):
    assert discourse_text(kb) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(discourse_text(bundled_kb()), encoding="utf-8")
