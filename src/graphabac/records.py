"""The shared base of the package's record classes.

A record class lists its fields, in order, as its own ``__slots__`` and
sets them in its own ``__init__``; it has no per-instance dict.  ``Record``
gives it a ``repr`` of the form ``Name(field=value, ...)``, equality only
with a record of the same class whose field tuple is equal, no hash, and a
``__reduce__`` that rebuilds it from its field tuple, for ``copy`` and
``pickle``.  ``FrozenRecord`` adds a hash, that of the field tuple, and
rejects assignment and deletion with ``AttributeError``; its ``__init__``
sets each field with ``_set``.
"""

from __future__ import annotations

# Sets a field of a frozen record past its own __setattr__.
_set = object.__setattr__


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
