"""Immutable value classes without the dataclasses module.

A subclass names its value fields, in constructor order, in the class
attribute _fields, the only place that knows their order.  Record's
constructor stores them by position or by name with _set
(object.__setattr__, which keeps CPython's fast shared-key attribute
layout, as writes to __dict__ would not), raises TypeError for a missing,
extra, repeated or unknown field, as a frozen dataclass does, and calls
the hook _post_init, where a subclass validates or derives state; _replace
goes through both.  FieldElement and LinearAction, built thousands of
times a semidirect round, keep their own __init__, 1 us a call faster,
with parameters named exactly _fields, in order.  Record derives from
_fields what a frozen dataclass does from its field list: equality with
instances of the same class only, the hash of the field tuple, a
Name(a=..., b=...) repr and attributes that cannot be assigned or deleted.
Any other attribute, such as one a derived descriptor fills on first use,
is derived state that equality, hash and repr never see.  Pickling and
copying restore __dict__ directly, so they skip the constructor and hook.
"""

from __future__ import annotations

_set = object.__setattr__


class derived:
    """A method computed once per instance, on first read, and stored under
    its own name with _set.

    functools.cached_property would store it through the instance __dict__,
    which slows every later attribute read of the instance (about 3.5 times
    for three fields on CPython 3.11).  Like that, it is a non-data
    descriptor, so the stored value shadows it.  The method must be a pure
    function of the instance, so threads racing to fill it store equal
    values.
    """

    def __init__(self, method):
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.method(obj)
        _set(obj, self.name, value)
        return value


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args), **kwargs)
        # with as many arguments as fields, a repeated or unknown one leaves a
        # field missing, so the count and the lookups catch every bad call
        try:
            if len(args) + len(kwargs) != len(names):
                raise KeyError
            for name in names:
                _set(self, name, values[name])
        except KeyError:
            raise TypeError(f"{self.__class__.__qualname__}() takes each field of {names} once") from None
        self._post_init()

    def _post_init(self):
        """Validate or derive state once the fields are stored."""

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
