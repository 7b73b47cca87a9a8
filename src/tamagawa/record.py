"""The one base of the package's hand-written records.

Record is only for a record that validates its fields or derives state
from them; a plain record is a ``typing.NamedTuple``.  A Record subclass's
``__init__`` checks the arguments and stores each attribute with
``object.__setattr__``, and afterwards every assignment raises
AttributeError.  (``object.__setattr__`` keeps the attributes in the compact
layout an instance starts with; a ``self.__dict__.update`` would build a
full dict, about twice the memory per curve.)  ``_fields`` names, in order,
the fields that are compared, hashed and shown by ``repr``, as
``typing.NamedTuple`` does for the plain records.  A record pickles by its
``__dict__``, so a ``cached_property`` read before pickling travels with it.
"""

from operator import attrgetter


class Record:
    """Immutable record compared, hashed and shown by the fields in _fields."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # _key(record): the compared value, a bare value when there is one field
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
