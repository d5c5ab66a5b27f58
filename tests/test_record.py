"""The value records' contract: what a NamedTuple gave their callers."""
from __future__ import annotations

import copy
import pickle

import pytest

from ontogen import GenerationConfig
from ontogen.knowledge import (
    ConceptConstraint,
    FacetedConstraint,
    LiteralConstraint,
    MatchDegree,
    PronounRef,
    RangeConstraint,
    SynNode,
    VarBinding,
)
from ontogen.pipeline import LedgerEntry, TraceRecord

# each record type: its fields, their defaults, and values for every field
# that differ from the defaults
RECORDS = {
    GenerationConfig: (
        ("exact_bonus", "narrow_bonus", "default_bonus", "uncovered_penalty", "feature_bonus",
         "feature_tolerance", "pronoun_bonus", "set_cap", "pipeline_weight",
         "frequency_weight", "repetition_penalty", "length_tie_break"),
        {"exact_bonus": 20.0, "narrow_bonus": 10.0, "default_bonus": 4.0,
         "uncovered_penalty": 5.0, "feature_bonus": 10.0, "feature_tolerance": 0.25,
         "pronoun_bonus": 2.0, "set_cap": 10000, "pipeline_weight": 1.0,
         "frequency_weight": 5.0, "repetition_penalty": 10.0, "length_tie_break": 0.0},
        (21.0, 11.0, 5.0, 6.0, 11.0, 0.5, 3.0, 7, 2.0, 6.0, 11.0, 0.5),
    ),
    ConceptConstraint: (("concept",), {}, ("HUMAN",)),
    LiteralConstraint: (("values",), {}, (("red", "blue"),)),
    RangeConstraint: (("low", "high"), {}, (0.25, 0.75)),
    FacetedConstraint: (("sem", "default"), {"sem": None, "default": None},
                        (ConceptConstraint("ANIMAL"), ConceptConstraint("DOG"))),
    SynNode: (("category", "var", "word", "optional"), {"word": None, "optional": False},
              ("n", 2, "dog", True)),
    VarBinding: (("var", "override"), {"override": None},
                 (1, FacetedConstraint(sem=RangeConstraint(0.0, 0.5)))),
    PronounRef: (("person", "number", "gender"), {"gender": None}, (3, "singular", "female")),
    LedgerEntry: (("rule", "delta", "note"), {"note": ""}, ("slot-exact", 20.0, "AGENT exact")),
    TraceRecord: (("stage", "subject", "rule", "note"), {"note": ""},
                  ("prune_semantic", "dog-n1", "violates", "THEME DOG violates HUMAN")),
}

record_types = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


@record_types
def test_fields_and_defaults(cls):
    fields, defaults, _ = RECORDS[cls]
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    required = [name for name in fields if name not in defaults]
    record = cls(*range(len(required)))
    assert tuple(record) == tuple(range(len(required))) + tuple(defaults.values())
    with pytest.raises(TypeError):
        cls(*range(len(fields) + 1))
    if required:
        with pytest.raises(TypeError):
            cls()


@record_types
def test_construction_by_position_and_by_keyword(cls):
    fields, _, values = RECORDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword == values
    assert type(by_keyword) is cls
    for index, name in enumerate(fields):
        assert getattr(by_position, name) == by_position[index] == values[index]
    with pytest.raises(AttributeError):
        setattr(by_position, fields[0], values[0])
    with pytest.raises(AttributeError):
        by_position.extra = 1


@record_types
def test_equality_hash_unpacking_and_repr(cls):
    fields, _, values = RECORDS[cls]
    record = cls(*values)
    same = cls(*values)
    assert record == same and hash(record) == hash(same)
    assert record == values and hash(record) == hash(values)
    assert record != cls(*values[:-1], "other")
    (*unpacked,) = record
    assert tuple(unpacked) == values and len(record) == len(fields)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{cls.__name__}({shown})"


@record_types
def test_replace_copies_with_changes(cls):
    fields, _, values = RECORDS[cls]
    record = cls(*values)
    changed = record._replace(**{fields[-1]: "other"})
    assert type(changed) is cls
    assert changed == values[:-1] + ("other",)
    assert record == values
    assert record._replace() == record
    with pytest.raises(ValueError, match="Got unexpected field names: \\['nowhere'\\]"):
        record._replace(nowhere=1)


@record_types
def test_pickle_and_copy_round_trip(cls):
    record = cls(*RECORDS[cls][2])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert type(restored) is cls and restored == record
    for copied in (copy.copy(record), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record


def test_match_degrees_are_ordered_ints():
    order = [MatchDegree.NONE, MatchDegree.SEM, MatchDegree.DEFAULT, MatchDegree.NARROW,
             MatchDegree.EXACT]
    assert all(type(degree) is int for degree in order)
    assert order == sorted(order) and len(set(order)) == 5
