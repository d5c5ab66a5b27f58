"""Value records: tuples with named fields, built without generating code.

typing.NamedTuple and collections.namedtuple compile a __new__ for every
class they make, which costs 150-200 us a class when a process starts.
A record class instead subclasses Record, declares __slots__ = () and
writes its own __new__, whose parameters name the fields in order and
whose defaults are theirs:

    class Span(Record):
        __slots__ = ()

        def __new__(cls, start: int, end: int = 0):
            return tuple_new(cls, (start, end))

Record reads _fields and _field_defaults from that signature and gives each
field a read-only accessor. A record is its tuple of fields: it compares
and hashes as that tuple, unpacks like it, and copies and pickles through
its __new__; _replace and the repr are those of a NamedTuple.
"""

from __future__ import annotations

from collections import _tuplegetter  # namedtuple's field accessor

tuple_new = tuple.__new__


class Record(tuple):
    __slots__ = ()

    _fields: tuple[str, ...] = ()
    _field_defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        code = cls.__new__.__code__
        fields = code.co_varnames[1:code.co_argcount]
        defaults = cls.__new__.__defaults__ or ()
        cls._fields = fields
        cls._field_defaults = dict(zip(fields[len(fields) - len(defaults):], defaults))
        for index, name in enumerate(fields):
            setattr(cls, name, _tuplegetter(index, None))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({shown})"

    def _replace(self, **changes):
        """A copy with the named fields changed."""
        record = type(self)(*map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return record
