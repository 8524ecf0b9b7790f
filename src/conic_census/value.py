"""The base of the package's immutable value classes."""

import operator


class Value:
    """Fields named in `_fields` and set once by `_init`; nothing can be assigned after.

    A subclass gets a frozen dataclass's repr, equality on equal fields of the
    same class, field-tuple hash and AttributeError on assignment; where these
    are hot, it writes `__eq__`/`__hash__` out on its own fields.
    """
    __slots__ = ()

    def __init_subclass__(cls):
        # with one field the getter would return that field, not a tuple
        if len(cls._fields) < 2:
            raise TypeError(f"{cls.__name__} needs two fields or more")
        cls._get = operator.attrgetter(*cls._fields)

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._get(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(self._fields, self._get(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._get(self) == self._get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._get(self))
