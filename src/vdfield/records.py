"""Record classes: the constructor, equality, hash and repr of @dataclass,
without it.

Importing dataclasses pulls in inspect, and every decorated class execs
generated code; a short `vdf` command paid more for that than for its
arithmetic.  A record class names its fields in _fields (and, unless it
needs a __dict__, in __slots__), and the values of its last fields'
defaults in _defaults.  A call that passes every field by position, or
leaves only trailing fields to their defaults, is assigned as it
stands; any other binds through a namedtuple of the fields, made on the
class's first such call, so Python binds it or refuses it with its own
TypeError.  A class that checks or converts a field calls it through
super().  Record compares instances of one class field by field, prints
Name(field=value, ...) and leaves them unhashable, as a mutable
dataclass does; FrozenRecord hashes the fields and refuses assignment,
as a frozen one does.
"""

from collections import namedtuple

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            _set(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call that does not pass every field by
        position."""
        skipped = len(cls._fields) - len(args)
        if not kwargs and 0 < skipped <= len(cls._defaults):
            # trailing fields left to their defaults bind without a binder
            return args + cls._defaults[len(cls._defaults) - skipped:]
        if "_binder" not in cls.__dict__:
            cls._binder = namedtuple(cls.__name__, cls._fields, defaults=cls._defaults)
            cls._binder.__new__.__qualname__ = cls.__qualname__  # errors read Name()
        return cls._binder(*args, **kwargs)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
