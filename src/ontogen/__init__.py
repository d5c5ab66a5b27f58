"""Explainable knowledge-based sentence generation.

Meaning representations go in; ranked English sentences come out, each
with a ledger explaining every score it received and a trace explaining
every candidate that was excluded.
"""

from __future__ import annotations

from .config import GenerationConfig, load_config
from .engine import RunReport, generate
from .errors import (
    AllSetsPruned,
    KbValidationError,
    MalformedInstanceId,
    NoRealizableSense,
    OntogenError,
    SchemaError,
    TmrError,
)
from .knowledge import KnowledgeBase, load_knowledge_base
from .realizer import MorphTables, bundled_morphology, load_morphology
from .selector import FrequencyTable, ScoredSentence, bundled_frequency, load_frequency
from .tmr import Tmr, parse_tmr, parse_tmr_file, serialize_tmr, strip_metadata, tmr_isomorphic

__version__ = "0.1.0"

__all__ = [
    "AllSetsPruned",
    "FrequencyTable",
    "GenerationConfig",
    "KbValidationError",
    "KnowledgeBase",
    "MalformedInstanceId",
    "MorphTables",
    "NoRealizableSense",
    "OntogenError",
    "RunReport",
    "SchemaError",
    "ScoredSentence",
    "Tmr",
    "TmrError",
    "bundled_frequency",
    "bundled_morphology",
    "generate",
    "load_config",
    "load_frequency",
    "load_knowledge_base",
    "load_morphology",
    "parse_tmr",
    "parse_tmr_file",
    "serialize_tmr",
    "strip_metadata",
    "tmr_isomorphic",
]
