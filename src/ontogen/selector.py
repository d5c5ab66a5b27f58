"""Final ranking: pipeline score plus corpus frequency minus repetition.

Every term that enters a sentence's total is kept by name, so a rank can
always be explained. Ties break lexicographically on the sentence text,
which keeps output order stable across runs.

Repetition counts whole-word mentions (``\\b<name>\\b``) of each proper name
a sentence contains. One rank() call reads every set's ledger once, for its
score and its report; finds the proper names of each subtree its solutions
share once; and scans the discourse history once per distinct name, sharing
that count among all its solutions. Only the extra mentions inside a
sentence are counted per solution, and only when the sentence holds the
name twice as a substring.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path

from .config import GenerationConfig
from .errors import SchemaError
from .pipeline import LedgerEntry, ledger_score
from .solution import CandidateSolution
from .strictjson import document, read_json
from .tmr import Tmr

SCHEMA_FREQ = "ontogen-freq/1"


class FrequencyTable:
    def __init__(self, values: dict[str, float], default: float = 0.5):
        self.values = values
        self.default = default

    def lookup(self, lemma: str, sense_id: str) -> float:
        if lemma in self.values:
            return self.values[lemma]
        if sense_id in self.values:
            return self.values[sense_id]
        return self.default


def parse_frequency(doc: dict, source: str = "<frequency>") -> FrequencyTable:
    document(doc, SCHEMA_FREQ, source)
    values = doc.get("values", {})
    if not isinstance(values, dict):
        raise SchemaError("values must be an object", source)
    cleaned = {}
    for key, value in values.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not 0 <= value <= 1:
            raise SchemaError(f"frequency for {key!r} must be a number in [0, 1]", source)
        cleaned[key] = float(value)
    default = doc.get("default", 0.5)
    if not isinstance(default, (int, float)) or isinstance(default, bool) \
            or not 0 <= default <= 1:
        raise SchemaError("default frequency must be a number in [0, 1]", source)
    return FrequencyTable(values=cleaned, default=float(default))


def load_frequency(path: str | Path) -> FrequencyTable:
    return parse_frequency(read_json(path), source=str(path))


@functools.cache
def bundled_frequency() -> FrequencyTable:
    """The bundled table, read once per process and shared by every caller:
    nothing in ontogen changes a FrequencyTable, and no caller may."""
    return load_frequency(Path(__file__).parent / "data" / "frequency.json")


class ScoredSentence:
    def __init__(self, rank: int, sentence: str, total: float,
                 terms: tuple[tuple[str, float], ...], signature: str,
                 ledger: tuple[tuple[str, LedgerEntry], ...], solution: CandidateSolution):
        self.rank = rank
        self.sentence = sentence
        self.total = total
        self.terms = terms
        self.signature = signature
        self.ledger = ledger
        self.solution = solution


def _pattern(name: str) -> re.Pattern:
    return re.compile(rf"\b{re.escape(name)}\b")


def history_mentions(name: str, history: tuple[str, ...]) -> int:
    """Whole-word mentions of name summed over the history lines. A line
    without name as a substring holds no match, so only the rest are
    searched."""
    pattern = _pattern(name)
    return sum(len(pattern.findall(line)) for line in history if name in line)


def extra_mentions(name: str, sentence: str) -> int:
    """Whole-word mentions of name in the sentence beyond the first. The
    matches do not overlap, so there are at most sentence.count(name) of
    them, and the sentence is searched only when that is more than one."""
    if sentence.count(name) < 2:
        return 0
    return max(0, len(_pattern(name).findall(sentence)) - 1)


def repetition_count(solution: CandidateSolution, history: tuple[str, ...],
                     mentions: dict[str, int] | None = None, names: dict | None = None) -> int:
    """Proper-name mentions already present in the discourse history, plus
    extra mentions inside the sentence itself. mentions caches each name's
    history count and names each subtree's proper names; rank shares one of
    each across all of a request's solutions."""
    if mentions is None:
        mentions = {}
    sentence = solution.sentence or ""
    repeats = 0
    for name in dict.fromkeys(solution.proper_names(names)):
        if name not in mentions:
            mentions[name] = history_mentions(name, history)
        repeats += mentions[name] + extra_mentions(name, sentence)
    return repeats


def rank(solutions: list[CandidateSolution], tmr: Tmr, freq: FrequencyTable,
         config: GenerationConfig, history: tuple[str, ...] = ()) -> list[ScoredSentence]:
    """Scored, deduplicated, ordered best-first with ranks assigned. tmr is
    the meaning the solutions express; each solution names its root frame."""
    mentions: dict[str, int] = {}
    names: dict = {}
    scored: list[tuple[float, str, CandidateSolution, tuple, tuple]] = []
    for solution in solutions:
        sentence = solution.sentence
        if not sentence:
            continue
        ledger = tuple(solution.candidate_set.ledger)
        choice = solution.candidate_set.choices[solution.root_id]
        repeats = repetition_count(solution, history, mentions, names)
        terms = (
            ("pipeline", config.pipeline_weight * ledger_score(ledger)),
            ("frequency", config.frequency_weight * freq.lookup(choice.lemma.lower(),
                                                                choice.sense.id)),
            ("repetition", -config.repetition_penalty * repeats),
            ("length", -config.length_tie_break * len(sentence)),
        )
        total = sum(value for _, value in terms)
        scored.append((total, sentence, solution, terms, ledger))
    scored.sort(key=lambda item: (-item[0], item[1]))

    out: list[ScoredSentence] = []
    seen: set[str] = set()
    for total, sentence, solution, terms, ledger in scored:
        if sentence in seen:
            continue
        seen.add(sentence)
        out.append(ScoredSentence(
            rank=len(out) + 1,
            sentence=sentence,
            total=total,
            terms=terms,
            signature=solution.candidate_set.signature(),
            ledger=ledger,
            solution=solution,
        ))
    return out
