"""The one reader for every JSON input file, and the writer of reports.

Each input shares one shape: UTF-8 text holding strict JSON (no key
repeated in any object, no NaN or Infinity, no number beyond the float
range) whose top level is one object with a "schema" tag. A failure is
worded once, where it is found, as a SchemaError with no file name; the
document's one boundary, reading, names the file and gives the error the
document's class, so no reader below it takes a file name or a class.
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring
from pathlib import Path
from typing import NoReturn

from .errors import SchemaError


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def shortened(text: str) -> str:
    """text as an error message quotes it: its first 20 characters and its
    length when it is longer than 24."""
    return text if len(text) <= 24 else f"{text[:20]}...({len(text)} characters)"


def _out_of_range(literal: str) -> NoReturn:
    raise ValueError(f"number {shortened(literal)} is outside the float range")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if math.isinf(value):
        _out_of_range(literal)
    return value


def _float_sized_int(literal: str) -> int:
    # the largest float has 309 digits: a shorter literal always fits, and a
    # longer one need not be converted
    if len(literal) < 309:
        return int(literal)
    if len(literal.lstrip("-")) <= 309:
        value = int(literal)
        if abs(value) <= sys.float_info.max:
            return value
    _out_of_range(literal)


class reading:
    """The boundary of one document: a SchemaError that leaves it without a
    source is raised again naming source, as the document's error class
    unless it is one already."""

    def __init__(self, source: str, error: type[SchemaError] = SchemaError):
        self.source = source
        self.error = error

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, SchemaError) and exc.source is None:
            raise (kind if issubclass(kind, self.error) else self.error)(
                exc.message, self.source) from None


def read_text(path) -> str:
    """The file's contents decoded as UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8: byte {exc.start}: {exc.reason}") from None


# one decoder for every document: json.loads builds a decoder and its
# scanner on each call that passes hooks
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys, parse_constant=_no_constant,
                            parse_float=_finite_float, parse_int=_float_sized_int)


def decode(text: str):
    """Strict JSON text to its value, as json.loads with the hooks reads it."""
    try:
        if text.startswith("\ufeff"):  # json.loads' check, ahead of its decoder
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    except RecursionError:
        raise SchemaError("JSON nested too deeply") from None


def document(value, schema: str) -> dict:
    """The value itself, once it is an object tagged with this schema."""
    if not isinstance(value, dict):
        raise SchemaError("top level must be an object")
    if value.get("schema") != schema:
        raise SchemaError(f'expected schema "{schema}", got {value.get("schema")!r}')
    return value


def read_json(path):
    """A UTF-8 strict JSON file to its value."""
    return decode(read_text(path))


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _leaf(value) -> str:
    """The text of a value that is neither a str nor a container with items."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, dict):
        return "{}"
    if isinstance(value, (list, tuple)):
        return "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def encode(value) -> str:
    """json.dumps(value, indent=2, ensure_ascii=False), byte for byte, for
    values built of dicts with str keys, lists, tuples, str, int, float,
    bool and None. It quotes strings with json's C encoder; json.dumps
    runs its pure-Python encoder whenever indent is set. The containers
    around the one being written wait on a stack of its own, not on the
    call stack, so a value may nest as deeply as memory allows."""
    out: list[str] = []
    append = out.append
    # by depth: the text after each item, and the texts that open and close
    # a list and a dict, indexed by whether the container has keys; at
    # depth 0, value is the one item of a container nothing opens or closes
    seps, opens, closes = [",\n"], [("", "")], [("", "")]
    items, keyed, depth, sep = iter((value,)), False, 0, ",\n"
    stack: list[tuple] = []  # the items left and keyed of each container around
    while True:
        for value in items:
            if keyed:
                key, value = value
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                append(encode_basestring(key))
                append(": ")
            if isinstance(value, str):
                append(encode_basestring(value))
            elif isinstance(value, (dict, list, tuple)) and value:
                stack.append((items, keyed))
                depth += 1
                if depth == len(seps):
                    inner, outer = "  " * depth, "  " * (depth - 1)
                    seps.append(",\n" + inner)
                    opens.append(("[\n" + inner, "{\n" + inner))
                    closes.append(("\n" + outer + "]", "\n" + outer + "}"))
                keyed = isinstance(value, dict)
                items = iter(value.items()) if keyed else iter(value)
                sep = seps[depth]
                append(opens[depth][keyed])
                break
            else:
                append(_leaf(value))
            append(sep)
        else:  # the last item's separator gives way to the closing text
            out[-1] = closes[depth][keyed]
            if not stack:
                return "".join(out)
            items, keyed = stack.pop()
            depth -= 1
            sep = seps[depth]
            append(sep)
