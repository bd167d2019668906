"""Base of the package's hand-written immutable records."""


class Frozen:
    """Refuses attribute assignment and deletion once built.

    Subclasses set their fields in ``__init__`` through
    ``object.__setattr__`` or their slots' own setters, and define
    ``__eq__``, ``__hash__`` and ``__repr__`` themselves.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
