"""Seeded inputs and output oracles for the four benchmark workloads.

Inputs depend only on the seed and the bundled TMR files, never on what
the engine returns. Each workload is an endless sequence of cycles; a
cycle is one seeded permutation of the workload's distinct requests, and
a run measures whole cycles so that every request kind carries the same
weight in its percentiles whatever the seed.

The oracles are written by hand from the documented behaviour (README,
tests/test_acceptance.py) and do not call the engine.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TMR_DIR = ROOT / "src" / "ontogen" / "data" / "tmr"

# fixture: (top-1 sentence, number of distinct sentences); None means the
# meaning is inexpressible: AllSetsPruned from the library, exit 2 from the CLI.
FIXTURES = {
    "blue_painting": ("Tom secured the blue painting to the wall.", 10),
    "empty": None,
    "fasten_depicts": ("Tom secured a landscape to the wall.", 15),
    "fasten_painting": ("Tom secured a painting to the wall.", 10),
    "fasten_painting_nlu": ("Tom secured a painting to it.", 20),
    "fasten_passive": ("A painting was secured to the wall.", 10),
    "funny_waiter": ("The funny waiter walked.", 1),
    "hearer_agent": ("You walked.", 1),
    "moor_ship": ("They moored the ship.", 12),
    "plural_paintings": ("Tom secured paintings to the wall.", 20),
    "request_blunt": ("Make dinner, dammit!", 1),
    "request_polite": ("I would really appreciate it if you would make dinner.", 3),
    "speaker_agent": ("I walked.", 1),
    "walk_intransitive": ("Tom walked.", 1),
    "walk_named_agent": ("Johnny walked.", 1),
    "walk_transitive": ("Tom walked the dog.", 1),
}

# fasten_painting in rank order (README shows the first five). Frames that
# nothing attaches to cannot change the surface, so every member of the
# scaling family must give exactly this list.
SCALING_SENTENCES = (
    "Tom secured a painting to the wall.",
    "Tom secured a picture to the wall.",
    "Tom attached a painting to the wall.",
    "Tom attached a picture to the wall.",
    "Tom fastened a painting to the wall.",
    "Tom fastened a picture to the wall.",
    "Tom fixed a painting to the wall.",
    "Tom fixed a picture to the wall.",
    "Tom affixed a painting to the wall.",
    "Tom affixed a picture to the wall.",
)
SCALING_KS = (0, 1, 2, 3, 4)
# Past the 10,000-set cap these exit 2 although the meaning is expressible;
# traced runs probe them once instead of timing them (see README.md).
CAP_PROBE_KS = (5, 6)

# Fixtures with a named referent (HAS-NAME, or a name in episodic memory)
# or a known one (remembered, or coreferent with an earlier instance).
DISCOURSE_FIXTURES = (
    "blue_painting", "fasten_depicts", "fasten_painting", "fasten_painting_nlu",
    "fasten_passive", "funny_waiter", "moor_ship", "plural_paintings",
    "walk_intransitive", "walk_named_agent", "walk_transitive",
)
HISTORY_LINES = 200
# Every proper name the bundled memory and fixtures give a referent.
PROPER_NAMES = ("Tom", "Johnny")
REPETITION_PENALTY = 10.0  # GenerationConfig default

TOP_ALL = 1_000_000  # --top large enough to print every sentence

WORKLOADS = ("fixtures", "scaling", "discourse", "cli")


@dataclass(frozen=True)
class Request:
    label: str  # fixture name, or "k=<n>" for the scaling family
    tmr: str  # TMR JSON text
    path: Path | None = None  # the bundled file, for the CLI
    history: tuple[str, ...] = ()
    context: tuple[str, ...] = ()


def _fixture_text(name: str) -> str:
    return (TMR_DIR / f"{name}.json").read_text(encoding="utf-8")


def scaling_text(k: int, rng_ids: list[int]) -> str:
    """fasten_painting plus k slotless PICTURE frames nothing refers to."""
    doc = json.loads(_fixture_text("fasten_painting"))
    for ident in rng_ids[:k]:
        doc["frames"][f"PICTURE-{ident}"] = {}
    return json.dumps(doc, indent=2)


def scaling_ids(seed: int) -> list[int]:
    return random.Random(f"scaling-ids-{seed}").sample(range(100, 1000), max(CAP_PROBE_KS))


def cycles(workload: str, seed: int):
    """Endless seeded cycles of requests for one workload."""
    rng = random.Random(f"{workload}-{seed}")
    if workload in ("fixtures", "cli"):
        pool = [Request(name, _fixture_text(name), TMR_DIR / f"{name}.json")
                for name in FIXTURES]
        while True:
            rng.shuffle(pool)
            yield list(pool)
    elif workload == "scaling":
        ids = scaling_ids(seed)
        pool = [Request(f"k={k}", scaling_text(k, ids)) for k in SCALING_KS]
        while True:
            rng.shuffle(pool)
            yield list(pool)
    elif workload == "discourse":
        yield from _discourse_cycles(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def mentioned_ids(tmr_text: str) -> tuple[str, ...]:
    """Instance ids a TMR mentions: its frames and their coreferents."""
    frames = json.loads(tmr_text)["frames"]
    ids = set(frames)
    for slots in frames.values():
        for key in ("COREF", "COREFER"):
            if isinstance(slots.get(key), str):
                ids.add(slots[key])
    return tuple(sorted(ids))


def _discourse_cycles(rng: random.Random):
    """Each request carries the last 200 top sentences said before it (the
    documented top-1 of each earlier request) and every id those requests
    mentioned. The window is filled by 200 seeded earlier turns first."""
    texts = {name: _fixture_text(name) for name in DISCOURSE_FIXTURES}
    ids = {name: mentioned_ids(text) for name, text in texts.items()}
    said: deque[str] = deque(maxlen=HISTORY_LINES)
    window: deque[tuple[str, ...]] = deque(maxlen=HISTORY_LINES)
    in_window: Counter = Counter()

    def record(name: str) -> None:
        if len(window) == HISTORY_LINES:
            in_window.subtract(window[0])
        said.append(FIXTURES[name][0])
        window.append(ids[name])
        in_window.update(ids[name])

    for _ in range(HISTORY_LINES):
        record(rng.choice(DISCOURSE_FIXTURES))
    order = list(DISCOURSE_FIXTURES)
    while True:
        rng.shuffle(order)
        cycle = []
        for name in order:
            context = tuple(sorted(i for i, n in in_window.items() if n > 0))
            cycle.append(Request(name, texts[name], TMR_DIR / f"{name}.json",
                                 history=tuple(said), context=context))
            record(name)
        yield cycle


# ---------------------------------------------------------------------------
# oracles. An outcome is (exit code, ranked sentences) where exit code is 0
# on success, 2 for an inexpressible meaning and 1 for any other error, and
# each ranked sentence is (rank, sentence, total, {term: value}).

_WORD = re.compile(r"[A-Za-z0-9_]+")


def name_count(name: str, text: str) -> int:
    return sum(1 for word in _WORD.findall(text) if word == name)


def expected_repeats(sentence: str, history: tuple[str, ...]) -> int:
    """Mentions of the sentence's proper names in the history, plus any
    extra mention within the sentence itself."""
    repeats = 0
    for name in PROPER_NAMES:
        own = name_count(name, sentence)
        if own:
            repeats += sum(name_count(name, line) for line in history) + own - 1
    return repeats


def check(workload: str, request: Request, exit_code: int, ranked: list) -> bool:
    if workload == "scaling":
        return exit_code == 0 and tuple(s[1] for s in ranked) == SCALING_SENTENCES
    if workload == "discourse":
        return exit_code == 0 and _check_discourse(request, ranked)
    expected = FIXTURES[request.label]
    if expected is None:
        return exit_code == 2 and not ranked
    top, count = expected
    return exit_code == 0 and len(ranked) == count and ranked[0][1] == top


def _check_discourse(request: Request, ranked: list) -> bool:
    if not ranked or [s[0] for s in ranked] != list(range(1, len(ranked) + 1)):
        return False
    if len({s[1] for s in ranked}) != len(ranked):
        return False
    previous = float("inf")
    for _rank, sentence, total, terms in ranked:
        if abs(sum(terms.values()) - total) > 1e-9 * max(1.0, abs(total)) or total > previous:
            return False
        previous = total
        if terms.get("repetition") != -REPETITION_PENALTY * expected_repeats(
                sentence, request.history):
            return False
    return True
