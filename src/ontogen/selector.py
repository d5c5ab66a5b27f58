"""Final ranking: pipeline score plus corpus frequency minus repetition.

Every term that enters a sentence's total is kept by name, so a rank can
always be explained. Ties break lexicographically on the sentence text,
which keeps output order stable across runs.

Repetition counts whole-word mentions (``\\b<name>\\b``) of each proper name
a sentence contains. Each candidate's deltas and each root candidate's
frequency term are made once per rank() call. What one set then costs: one
exact sum of its candidates' deltas, rounded once; and, for a set whose
sentence holds a name, that name's extra mentions inside the sentence,
counted only when the sentence holds it twice as a substring. It reads the
names realize recorded, walks no tree, builds no ledger and describes no
choice: a ranked sentence's ledger and signature are made when first read.
Per rank() call, the whole history is scanned once per distinct name, as
one text, by a pattern that leads with the name so that ``re`` looks for it
as a literal prefix. A total is its terms' exact sum, rounded once, and
finite: config.FIELD_BOUND bounds every weight and bonus.
"""

from __future__ import annotations

import functools
import math
import re
from itertools import chain
from pathlib import Path

from .config import GenerationConfig
from .errors import SchemaError
from .pipeline import LedgerEntry
from .solution import CandidateSolution
from .strictjson import document, read_json, reading

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
    with reading(source):
        document(doc, SCHEMA_FREQ)
        values = doc.get("values", {})
        if not isinstance(values, dict):
            raise SchemaError("values must be an object")
        cleaned = {}
        for key, value in values.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or not 0 <= value <= 1:
                raise SchemaError(f"frequency for {key!r} must be a number in [0, 1]")
            cleaned[key] = float(value)
        default = doc.get("default", 0.5)
        if not isinstance(default, (int, float)) or isinstance(default, bool) \
                or not 0 <= default <= 1:
            raise SchemaError("default frequency must be a number in [0, 1]")
        return FrequencyTable(values=cleaned, default=float(default))


def load_frequency(path: str | Path) -> FrequencyTable:
    with reading(str(path)):
        return parse_frequency(read_json(path), str(path))


@functools.cache
def bundled_frequency() -> FrequencyTable:
    """The bundled table, read once per process and shared by every caller:
    nothing in ontogen changes a FrequencyTable, and no caller may."""
    return load_frequency(Path(__file__).parent / "data" / "frequency.json")


class ScoredSentence:
    """One ranked sentence. Its ledger and its set's signature are read
    from solution.candidate_set when first asked for, then kept."""

    def __init__(self, rank: int, sentence: str, total: float,
                 terms: tuple[tuple[str, float], ...], solution: CandidateSolution):
        self.rank = rank
        self.sentence = sentence
        self.total = total
        self.terms = terms
        self.solution = solution

    @functools.cached_property
    def ledger(self) -> tuple[tuple[str, LedgerEntry], ...]:
        return tuple(self.solution.candidate_set.entries())

    @functools.cached_property
    def signature(self) -> str:
        return self.solution.candidate_set.signature()


def _pattern(name: str) -> re.Pattern:
    """Whole-word mentions of name, a non-blank name: a match of
    ``\\b<name>\\b``. The name leads, so ``re`` finds candidates by its
    literal-prefix search; the leading ``\\b`` becomes a lookbehind over the
    character before it."""
    escaped = re.escape(name)
    first = name[0]
    # what \b reads as a word character
    if first.isalnum() or first == "_":
        return re.compile(rf"{escaped}(?<!\w{escaped})\b")
    return re.compile(rf"{escaped}(?<=\w{escaped})\b")


def history_mentions(name: str, history: tuple[str, ...]) -> int:
    """Whole-word mentions of name summed over the history lines, in one
    scan of the lines joined by newlines. A name is one line, not blank
    (knowledge.identity_problem), so a match stays inside one line, and the
    newline reads as the line's edge."""
    return len(_pattern(name).findall("\n".join(history)))


def extra_mentions(name: str, sentence: str) -> int:
    """Whole-word mentions of name in the sentence beyond the first. The
    matches do not overlap, so there are at most sentence.count(name) of
    them, and the sentence is searched only when that is more than one."""
    if sentence.count(name) < 2:
        return 0
    return max(0, len(_pattern(name).findall(sentence)) - 1)


def rank(solutions: list[CandidateSolution], freq: FrequencyTable, config: GenerationConfig,
         history: tuple[str, ...] = ()) -> list[ScoredSentence]:
    """Scored, deduplicated, ordered best-first with ranks assigned. The
    solutions are the sets of one request, at least one: they share their
    options and their root frame, and each holds the names realize found. A
    set's repeats are its names' mentions in the history, each name counted
    on its first lookup, plus their extra mentions inside its own sentence.
    The config is checked (config.check_config), so every total is finite."""
    mentions: dict[str, int] = {}
    pipeline_weight, frequency_weight = config.pipeline_weight, config.frequency_weight
    repetition_penalty, length_tie_break = config.repetition_penalty, config.length_tie_break
    scored: list[tuple[float, str, int, CandidateSolution, tuple]] = []  # the first set wins a tie
    options = solutions[0].candidate_set.options
    deltas = tuple([[e.delta for e in (*c.ledger, *c.semantic, *c.uncovered)]
                    for c in column] for column in options)
    root = [column[0].unit_key for column in options].index(solutions[0].root_id)
    frequencies = [frequency_weight * freq.lookup(c.lemma.lower(), c.sense.id)
                   for c in options[root]]
    for solution in solutions:
        sentence = solution.sentence
        candidate_set = solution.candidate_set
        repeats = 0
        if solution.names:
            for name in dict.fromkeys(solution.names):
                count = mentions.get(name)
                if count is None:
                    count = mentions[name] = history_mentions(name, history)
                repeats += count + extra_mentions(name, sentence)
        frequency = frequencies[candidate_set.positions[root]]
        repetition = -repetition_penalty * repeats
        length = -length_tie_break * len(sentence)
        pipeline = pipeline_weight * math.fsum(chain.from_iterable(
            map(list.__getitem__, deltas, candidate_set.positions)))
        total = math.fsum((pipeline, frequency, repetition, length))
        terms = (("pipeline", pipeline), ("frequency", frequency), ("repetition", repetition),
                 ("length", length))
        scored.append((-total, sentence, len(scored), solution, terms))
    scored.sort()

    out: list[ScoredSentence] = []
    seen: set[str] = set()
    for negated, sentence, _, solution, terms in scored:
        if sentence in seen:
            continue
        seen.add(sentence)
        out.append(ScoredSentence(len(out) + 1, sentence, -negated, terms, solution))
    return out
