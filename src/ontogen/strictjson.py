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


def _write(value, pad: str, out: list[str]) -> None:
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        opener = "{\n" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(opener)
            out.append(encode_basestring(key))
            out.append(": ")
            _write(item, inner, out)
            opener = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        opener = "[\n" + inner
        for item in value:
            out.append(opener)
            _write(item, inner, out)
            opener = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def encode(value) -> str:
    """json.dumps(value, indent=2, ensure_ascii=False), byte for byte, for
    values built of dicts with str keys, lists, tuples, str, int, float,
    bool and None. It quotes strings with json's C encoder; json.dumps
    runs its pure-Python encoder whenever indent is set."""
    out: list[str] = []
    _write(value, "", out)
    return "".join(out)
