"""The one base of alexlab's value and report classes.

A subclass lists its fields once, in order: `__slots__ = _fields = (..)`, or
`_fields = (..)` then `__slots__ = _fields + (memo slots)`.  `Value` gives
what `@dataclass(frozen=True)` gave, with nothing generated when a class is
defined: `__init__` (one positional argument per slot), the dataclass
`__repr__`, `__eq__` and `__hash__` over `_fields`, and a `__setattr__`
that refuses every assignment.  A class with defaults, memo slots or a
check writes an `__init__` that hands every slot to `Value.__init__`;
`_remember` fills a memo slot later.
"""

_set = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *args):
        slots = self.__slots__
        if len(args) != len(slots):
            raise TypeError("%s() takes %s" % (type(self).__qualname__, ", ".join(slots)))
        for name, value in zip(slots, args):
            _set(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ["%s=%r" % (name, getattr(self, name)) for name in self._fields]
        return "%s(%s)" % (type(self).__qualname__, ", ".join(shown))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # pickle and copy rebuild through `__init__`, with empty memo slots.
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def _remember(self, name: str, value):
        """Fill the memo slot `name` with `value` and return `value`: the one
        assignment an instance takes after `__init__`, and never to a field."""
        if name in self._fields:
            raise AttributeError("cannot assign to field %r" % name)
        _set(self, name, value)
        return value
