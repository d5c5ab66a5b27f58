"""Final ranking: pipeline score plus corpus frequency minus repetition.

Every term that enters a sentence's total is kept by name, so a rank can
always be explained. Ties break lexicographically on the sentence text,
which keeps output order stable across runs.

Repetition counts whole-word mentions (``\\b<name>\\b``) of each proper name
a sentence contains. One rank() call scans the discourse history once per
distinct name and shares that count among all its solutions; only the
extra mentions inside the sentence itself are counted per solution.
"""

from __future__ import annotations

import re
from pathlib import Path

from .config import GenerationConfig
from .errors import SchemaError
from .pipeline import CandidateSet, LedgerEntry
from .solution import CandidateSolution
from .strictjson import document, read_json
from .tmr import Tmr, find_root_frame

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


def bundled_frequency() -> FrequencyTable:
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


def repetition_count(solution: CandidateSolution, history: tuple[str, ...],
                     mentions: dict[str, int] | None = None) -> int:
    """Proper-name mentions already present in the discourse history, plus
    extra mentions inside the sentence itself. mentions caches each name's
    history count; rank shares one across all of a request's solutions."""
    if mentions is None:
        mentions = {}
    sentence = solution.sentence or ""
    repeats = 0
    for name in dict.fromkeys(solution.proper_names()):
        if name not in mentions:
            mentions[name] = history_mentions(name, history)
        repeats += mentions[name] + max(0, len(_pattern(name).findall(sentence)) - 1)
    return repeats


def score_sentence(solution: CandidateSolution, root_id: str, freq: FrequencyTable,
                   config: GenerationConfig, history: tuple[str, ...] = (),
                   mentions: dict[str, int] | None = None,
                   ) -> tuple[float, tuple[tuple[str, float], ...]]:
    """Total plus the named terms that sum to it; root_id names the root frame."""
    cs: CandidateSet = solution.candidate_set
    choice = cs.choices[root_id]
    frequency = freq.lookup(choice.lemma.lower(), choice.sense.id)
    repeats = repetition_count(solution, history, mentions)
    sentence = solution.sentence or ""
    terms = (
        ("pipeline", config.pipeline_weight * cs.score),
        ("frequency", config.frequency_weight * frequency),
        ("repetition", -config.repetition_penalty * repeats),
        ("length", -config.length_tie_break * len(sentence)),
    )
    total = sum(value for _, value in terms)
    return total, terms


def rank(solutions: list[CandidateSolution], tmr: Tmr, freq: FrequencyTable,
         config: GenerationConfig, history: tuple[str, ...] = ()) -> list[ScoredSentence]:
    """Scored, deduplicated, ordered best-first with ranks assigned."""
    if not solutions:
        return []
    root_id = find_root_frame(tmr).instance_id
    mentions: dict[str, int] = {}
    scored: list[tuple[float, str, CandidateSolution, tuple]] = []
    for solution in solutions:
        if not solution.sentence:
            continue
        total, terms = score_sentence(solution, root_id, freq, config, history, mentions)
        scored.append((total, solution.sentence, solution, terms))
    scored.sort(key=lambda item: (-item[0], item[1]))

    out: list[ScoredSentence] = []
    seen: set[str] = set()
    for total, sentence, solution, terms in scored:
        if sentence in seen:
            continue
        seen.add(sentence)
        out.append(ScoredSentence(
            rank=len(out) + 1,
            sentence=sentence,
            total=total,
            terms=terms,
            signature=solution.candidate_set.signature(),
            ledger=tuple(solution.candidate_set.ledger),
            solution=solution,
        ))
    return out
