"""Each ranked sentence's pipeline term is its ledger's exact sum, rounded once.

rank() scores a set from its choices' deltas without building the ledger,
and a sentence's ledger and signature are made when first read. This
checks, for every expressible fixture and genscen seeds 0-49, under the
default config and three configs with non-dyadic values, that:

- the pipeline term equals ``pipeline_weight * float(sum(Fraction(delta)))``
  over the sentence's ledger: the exact sum, rounded once, then weighted,
  compared by ``float.hex``, so a sum rounded more than once or in another
  way shows even where it differs in the last bit;
- ``.ledger`` and ``.signature`` equal a fresh ``tuple(cs.entries())`` and
  ``cs.signature()``.

The check imports no pytest, so it also runs on its own, from the
repository root:

    PYTHONPATH=src:tests python tests/test_rank_exactness.py

``tests/test_genscen_golden.py --check`` runs it too.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import ontogen
from genscen import build_scenario
from ontogen import GenerationConfig, OntogenError, generate, load_knowledge_base, parse_tmr_file

DATA = Path(ontogen.__file__).resolve().parent / "data"
SEEDS = range(50)
CONFIGS = {
    "default": GenerationConfig(),
    "thirds": GenerationConfig(pipeline_weight=0.1, exact_bonus=0.7, narrow_bonus=1 / 3),
    "sevenths": GenerationConfig(uncovered_penalty=0.3, frequency_weight=1 / 7,
                                 length_tie_break=0.01, feature_bonus=7 / 3),
    "tenths": GenerationConfig(pipeline_weight=1 / 3, default_bonus=0.1, pronoun_bonus=0.2,
                               narrow_bonus=0.3, uncovered_penalty=1 / 7, exact_bonus=1.1),
}


def cases():
    """(label, tmr, kb) for every fixture and genscen seed checked."""
    kb = load_knowledge_base(DATA / "kb" / "ontology.json", DATA / "kb" / "lexicon.json",
                             DATA / "kb" / "memory.json")
    for path in sorted((DATA / "tmr").glob("*.json")):
        yield path.stem, parse_tmr_file(path), kb
    for seed in SEEDS:
        scenario_kb, tmr = build_scenario(seed)
        yield f"seed {seed}", tmr, scenario_kb


def exactness_failures() -> tuple[int, list[str]]:
    """The number of sentences checked, and one line per sentence that fails."""
    checked, failures = 0, []
    for label, tmr, kb in cases():
        for name, config in CONFIGS.items():
            try:
                report = generate(tmr, kb, config=config)
            except OntogenError:
                continue
            for s in report.sentences:
                checked += 1
                cs = s.solution.candidate_set
                exact = sum(Fraction(entry.delta) for _, entry in cs.entries())
                pipeline = config.pipeline_weight * float(exact)
                where = f"{label} [{name}] rank {s.rank}"
                if dict(s.terms)["pipeline"].hex() != float(pipeline).hex():
                    failures.append(f"{where}: pipeline {dict(s.terms)['pipeline']!r} "
                                    f"!= {pipeline!r}")
                if s.ledger != tuple(cs.entries()) or s.signature != cs.signature():
                    failures.append(f"{where}: ledger or signature differs from the set's")
    return checked, failures


def test_every_pipeline_term_is_the_exact_sum_of_its_ledger_rounded_once():
    checked, failures = exactness_failures()
    assert checked > 1000
    assert not failures, "\n".join(failures)


if __name__ == "__main__":
    checked, failures = exactness_failures()
    print("\n".join(failures))
    print(f"{checked} sentences checked, {len(failures)} failed")
    sys.exit(1 if failures else 0)
