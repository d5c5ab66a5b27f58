"""The package's public surface."""
from __future__ import annotations

import ontogen

PUBLIC = [
    "generate", "RunReport", "ScoredSentence",
    "GenerationConfig", "load_config",
    "KnowledgeBase", "load_knowledge_base",
    "Tmr", "parse_tmr", "parse_tmr_file", "serialize_tmr", "strip_metadata", "tmr_isomorphic",
    "FrequencyTable", "bundled_frequency", "load_frequency",
    "MorphTables", "bundled_morphology", "load_morphology",
    "OntogenError", "SchemaError", "KbValidationError", "TmrError", "MalformedInstanceId",
    "NoRealizableSense", "AllSetsPruned", "EmptySolution",
]


def test_all_is_the_public_surface_and_every_name_resolves():
    assert sorted(ontogen.__all__) == sorted(PUBLIC)
    assert len(ontogen.__all__) == len(set(ontogen.__all__)) == 27
    for name in ontogen.__all__:
        assert getattr(ontogen, name) is not None, name
