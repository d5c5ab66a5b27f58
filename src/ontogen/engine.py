"""End-to-end generation: selection, building, realization, ranking."""

from __future__ import annotations

from .config import DEFAULT_CONFIG, GenerationConfig, check_config
from .knowledge import KnowledgeBase
from .pipeline import TraceRecord, run_lexical_selection
from .realizer import MorphTables, bundled_morphology, realize
from .selector import FrequencyTable, ScoredSentence, bundled_frequency, rank
from .solution import Forest, build_solution
from .tmr import Tmr


class RunReport:
    def __init__(self, sentences: list[ScoredSentence], counts: dict[str, int],
                 trace: list[TraceRecord], messages: list[str] | None = None):
        self.sentences = sentences
        self.counts = counts
        self.trace = trace
        self.messages = [] if messages is None else messages


def generate(tmr: Tmr, kb: KnowledgeBase, config: GenerationConfig | None = None,
             freq: FrequencyTable | None = None, morph: MorphTables | None = None,
             context: tuple[str, ...] = (), history: tuple[str, ...] = ()) -> RunReport:
    """Every surviving candidate set built, realized and ranked from parts
    made once per candidate, with the trace explaining scores and exclusions."""
    config = DEFAULT_CONFIG if config is None else check_config(config)
    freq = freq or bundled_frequency()
    morph = morph or bundled_morphology()

    selection = run_lexical_selection(tmr, kb, config, context)
    forest = Forest(tmr, selection.root, morph, selection.sets[0].options)
    solutions = []
    for cs in selection.sets:
        solution = build_solution(cs, forest)
        realize(solution, morph)
        solutions.append(solution)
    sentences = rank(solutions, freq, config, history)
    counts = dict(selection.counts)
    counts["sentences"] = len(sentences)
    return RunReport(sentences=sentences, counts=counts, trace=selection.trace,
                     messages=list(selection.messages))
