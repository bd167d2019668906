"""Base of the package's immutable records, and their value semantics.

A record's fields are its ``__slots__``, or its ``_fields`` when it keeps
an instance dict (``OVWTree``, whose ``level_lengths`` caches itself
there) or inherits its slots (``Word``).  ``Frozen`` derives the rest
from them once:

- two records are equal when they are of the same class and their field
  tuples are equal;
- a record hashes like its field tuple, so that set and dict orders, and
  with them the output bytes, are those of the tuples; a field holding a
  dict or an array makes the record unhashable;
- the repr is ``Name(field=value, ...)``;
- a record pickles and copies as ``cls(*fields)``.

Subclasses set their fields in ``__init__`` through ``object.__setattr__``
or their slots' own setters (``Word`` is built by ``words._trusted``);
after that, assignment and deletion raise.
"""


class Frozen:
    """Refuses attribute assignment and deletion once built, and compares,
    hashes, prints and pickles by its fields."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the class's own entries: a subclass must not inherit Frozen's ()
        fields = cls.__dict__.get("_fields") or cls.__dict__.get("__slots__")
        if not fields:
            raise TypeError(f"record {cls.__name__} names no fields in __slots__ or _fields")
        cls._fields = tuple(fields)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple()
