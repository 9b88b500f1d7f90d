"""``Value``, the base of the package's value classes.

A subclass names its compared fields in ``_fields`` (usually also its
``__slots__``) and writes its own ``__init__``.  Equality and hash
compare those fields between instances of one class, and repr lists
them; no code is compiled per class at import.  Instances are not
modified after ``__init__``.
"""

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
