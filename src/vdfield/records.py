"""Record classes: the equality, hash and repr of @dataclass, without it.

Importing dataclasses pulls in inspect, and every decorated class execs
generated code; a short `vdf` command paid more for that than for its
arithmetic.  A record class names its fields in _fields (and, unless it
needs a __dict__, in __slots__) and sets them in its own __init__.
Record compares two instances of the same class field by field, prints
Name(field=value, ...) and leaves instances unhashable, as a mutable
dataclass does.  FrozenRecord hashes the fields and refuses assignment,
as a frozen one does; its __init__ sets fields with object.__setattr__.
"""


class Record:
    __slots__ = ()
    _fields: tuple = ()

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
