"""The base of the package's records: classes whose fields are their `__slots__`.

A dataclass generates and compiles its methods when its module is
imported, once per class, and that was most of the command line's start-up.
A `Record` class writes only its `__slots__` and `__init__`; `==`, `hash`,
`repr`, copying and pickling read the field tuple that the base takes from
`__slots__` once, when the class is made.
"""

from __future__ import annotations

# sets a record's field, past its refusing `__setattr__`
set_field = object.__setattr__


class Record:
    """Fields named by `__slots__`, in order.

    Records of one class are equal when their compared fields are, as a
    tuple; `hash` hashes that tuple, `repr` writes `Name(field=value, ...)`
    as a dataclass does, and a copy or a pickle calls the class on the
    fields, so `__init__` takes every field, in order.  A record is frozen:
    assigning or deleting a field raises AttributeError, and `__init__` sets
    the fields through `Record.__init__` or `set_field`.

    A class made with `uncompared` names fields that `==` and `hash` skip.
    A `__dict__` among the slots, which a `functools.cached_property`
    needs, is not a field.
    """

    __slots__ = ()
    _fields: tuple = ()
    _compared: tuple = ()

    def __init_subclass__(cls, uncompared: tuple = (), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        cls._compared = tuple(f for f in cls._fields if f not in uncompared)

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            set_field(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        values = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({values})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
