"""Record classes: the constructor, equality, hash and repr of @dataclass,
without it.

Importing dataclasses pulls in inspect, and every decorated class execs
generated code; a short `vdf` command paid more for that than for its
arithmetic.  A record class names its fields in _fields (and, unless it
needs a __dict__, in __slots__), and the values of its last fields'
defaults in _defaults.  Record's one constructor binds positional
arguments, then keywords, then those defaults to the fields, and
refuses a call that does not fit with TypeError, as a Python call does;
a class that checks or converts a field calls it through super().
Record compares two instances of the same class field by field, prints
Name(field=value, ...) and leaves instances unhashable, as a mutable
dataclass does.  FrozenRecord hashes the fields and refuses assignment,
as a frozen one does.
"""

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
        fields, defaults, name = cls._fields, cls._defaults, cls.__qualname__
        skipped = len(fields) - len(args)
        if not kwargs and 0 < skipped <= len(defaults):
            # trailing fields left to their defaults bind without a dict
            # too: a dict costs more than the fields' assignment
            return args + defaults[len(defaults) - skipped:]
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        bound = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in bound:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            bound[key] = value
        bound = {**dict(zip(fields[len(fields) - len(defaults):], defaults)), **bound}
        missing = [f for f in fields if f not in bound]
        if missing:
            raise TypeError(f"{name}() missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return tuple([bound[f] for f in fields])

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    __hash__ = None

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
