"""Error taxonomy shared by all stages.

Loaders raise SchemaError subclasses that name their file (strictjson.reading);
pipeline stages raise OntogenError subclasses that name the offending
frame, sense, or variable so traces stay explainable.
"""

from __future__ import annotations


class OntogenError(Exception):
    """Base class for every error this package raises on purpose."""


class SchemaError(OntogenError):
    """A versioned JSON input failed to parse or declared the wrong schema."""

    def __init__(self, message: str, source: str | None = None):
        self.message = message
        self.source = source
        super().__init__(f"{source}: {message}" if source else message)


class KbValidationError(SchemaError):
    """Ontology/lexicon/memory content violates a knowledge-base invariant."""


class TmrError(SchemaError):
    """A meaning representation is malformed or internally contradictory."""


class MalformedInstanceId(TmrError):
    """An instance id lacks the CONCEPT-<digits> shape."""


class NoRealizableSense(OntogenError):
    """A frame's concept and all of its ancestors have zero lexical senses."""

    def __init__(self, frame_id: str, concept: str):
        self.frame_id = frame_id
        self.concept = concept
        super().__init__(f"no lexical sense covers {frame_id} (concept {concept} or any ancestor)")


class AllSetsPruned(OntogenError):
    """Every candidate set was excluded; carries the trace that says why."""

    def __init__(self, message: str, trace=None):
        self.trace = trace
        super().__init__(message)
