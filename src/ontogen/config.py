"""Tuning knobs for candidate scoring and ranking.

Config files use schema "ontogen-config/1" with kebab-case keys mirroring
the GenerationConfig fields. Every knob has a default, so a config file is
optional and may set any subset.
"""

from __future__ import annotations

import sys

from .errors import SchemaError
from .record import Record, tuple_new
from .strictjson import decode, document, read_text, reading, shortened

SCHEMA_CONFIG = "ontogen-config/1"


class GenerationConfig(Record):
    __slots__ = ()

    def __new__(cls,
                # pruneSemantic: constraint-match bonuses per filled slot
                exact_bonus: float = 20.0, narrow_bonus: float = 10.0,
                default_bonus: float = 4.0,
                # penalty per meaning slot no sense in the set expresses
                uncovered_penalty: float = 5.0,
                # scalar feature matching: full bonus at distance 0, none beyond tolerance
                feature_bonus: float = 10.0, feature_tolerance: float = 0.25,
                # reference: preferring a pronoun over a description for known referents
                pronoun_bonus: float = 2.0,
                # aggregation guard: limit on the product of surviving candidates
                set_cap: int = 10000,
                # final ranking: score = pw*set + fw*freq - rp*repeats - ltb*length
                pipeline_weight: float = 1.0, frequency_weight: float = 5.0,
                repetition_penalty: float = 10.0, length_tie_break: float = 0.0):
        return tuple_new(cls, (exact_bonus, narrow_bonus, default_bonus, uncovered_penalty,
                               feature_bonus, feature_tolerance, pronoun_bonus, set_cap,
                               pipeline_weight, frequency_weight, repetition_penalty,
                               length_tie_break))


# The largest magnitude of a float field: it keeps every ledger delta, and
# so every total, far inside the float range (docs/schemas.md).
FIELD_BOUND = 1e100

_FIELD_BY_KEY = {name.replace("_", "-"): name for name in GenerationConfig._fields}
_INTEGER_FIELDS = frozenset(name for name, default in GenerationConfig._field_defaults.items()
                            if isinstance(default, int))


def check_config(config: GenerationConfig) -> GenerationConfig:
    """config, once every field is a number, not a bool, inside the float
    range, set-cap is an integer of at least 1, every other field is at most
    FIELD_BOUND in magnitude and feature-tolerance is positive; otherwise a
    SchemaError naming the first field that is not."""
    for name, value in zip(GenerationConfig._fields, config):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            expected = "a number"
        elif not abs(value) <= sys.float_info.max:
            expected = "a finite number"
        elif name in _INTEGER_FIELDS and not isinstance(value, int):
            expected = "an integer"
        elif name not in _INTEGER_FIELDS and abs(value) > FIELD_BOUND:
            expected = f"at most {FIELD_BOUND:g} in magnitude"
        else:
            continue
        try:
            quoted = shortened(repr(value))
        except ValueError:  # an int past Python's limit on integer string conversion
            quoted = f"an integer of {value.bit_length()} bits"
        raise SchemaError(f"{name.replace('_', '-')} must be {expected}, got {quoted}")
    if config.set_cap < 1:
        raise SchemaError("set-cap must be at least 1")
    if config.feature_tolerance <= 0:
        raise SchemaError("feature-tolerance must be positive")
    return config


# what generate() scores with when its caller passes no config, checked once
DEFAULT_CONFIG = check_config(GenerationConfig())


def parse_config(text: str, source: str = "<config>") -> GenerationConfig:
    with reading(source):
        kwargs = {}
        for key, value in document(decode(text), SCHEMA_CONFIG).items():
            if key == "schema":
                continue
            name = _FIELD_BY_KEY.get(key)
            if name is None:
                raise SchemaError(f"unknown config key {key!r}")
            # a whole number in a float field is held as a float
            widen = type(value) is int and name not in _INTEGER_FIELDS
            kwargs[name] = float(value) if widen else value
        return check_config(GenerationConfig(**kwargs))


def load_config(path) -> GenerationConfig:
    with reading(str(path)):
        return parse_config(read_text(path), str(path))
