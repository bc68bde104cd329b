"""Base class for the immutable records that validate their input.

A subclass names its value fields in ``_fields``, declares them (and any
cached extras) in ``__slots__`` and sets them in ``__init__`` with
``object.__setattr__``.  It gets equality and hash by the field tuple, a
``Name(field=value, ...)`` repr and pickling through its constructor;
every later assignment raises :class:`AttributeError`.  The methods are
written once here rather than generated per class at import.
"""

from __future__ import annotations

__all__ = ["Frozen"]


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()
