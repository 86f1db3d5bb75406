"""Immutable value classes without the dataclasses module.

A subclass names its value fields, in constructor order, in the class
attribute _fields, and its own __init__ stores them with _set before
validating them.  _set is object.__setattr__, which keeps the attributes
in CPython's fast shared-key layout; writing to __dict__ directly would
make every later attribute read slower.  Record derives from _fields what a
frozen dataclass derives from its field list: equality with instances of
the same class only, the hash of the field tuple, a Name(a=..., b=...)
repr and attributes that cannot be assigned or deleted.  Anything else in
the instance __dict__, such as a cached_property, is derived state that
equality, hash and repr never see.  Pickling and copying restore __dict__
directly, so they never call __init__.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A new instance with the given fields changed, validated afresh."""
        for name in self._fields:
            changes.setdefault(name, getattr(self, name))
        return self.__class__(**changes)
