"""Final ranking: pipeline score plus corpus frequency minus repetition.

Every term that enters a sentence's total is kept by name, so a rank can
always be explained. Ties break lexicographically on the sentence text,
which keeps output order stable across runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .config import GenerationConfig
from .errors import SchemaError
from .pipeline import CandidateSet, LedgerEntry
from .solution import CandidateSolution
from .strictjson import document, read_json
from .tmr import Tmr, find_root_frame

SCHEMA_FREQ = "ontogen-freq/1"


@dataclass(frozen=True)
class FrequencyTable:
    values: dict[str, float]
    default: float = 0.5

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


@dataclass
class ScoredSentence:
    rank: int
    sentence: str
    total: float
    terms: tuple[tuple[str, float], ...]
    signature: str
    ledger: tuple[tuple[str, LedgerEntry], ...]
    solution: CandidateSolution


def _word_count(name: str, text: str) -> int:
    return len(re.findall(rf"\b{re.escape(name)}\b", text))


def repetition_count(solution: CandidateSolution, history: tuple[str, ...]) -> int:
    """Proper-name mentions already present in the discourse history, plus
    extra mentions inside the sentence itself."""
    sentence = solution.sentence or ""
    repeats = 0
    counted: set[str] = set()
    for name in solution.proper_names():
        if name in counted:
            continue
        counted.add(name)
        for line in history:
            repeats += _word_count(name, line)
        repeats += max(0, _word_count(name, sentence) - 1)
    return repeats


def score_sentence(solution: CandidateSolution, tmr: Tmr, freq: FrequencyTable,
                   config: GenerationConfig,
                   history: tuple[str, ...] = ()) -> tuple[float, tuple[tuple[str, float], ...]]:
    """Total plus the named terms that sum to it."""
    cs: CandidateSet = solution.candidate_set
    root = find_root_frame(tmr)
    choice = cs.choices[root.instance_id]
    frequency = freq.lookup(choice.lemma.lower(), choice.sense.id)
    repeats = repetition_count(solution, history)
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
    scored: list[tuple[float, str, CandidateSolution, tuple]] = []
    for solution in solutions:
        if not solution.sentence:
            continue
        total, terms = score_sentence(solution, tmr, freq, config, history)
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
