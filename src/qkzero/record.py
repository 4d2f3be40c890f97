"""Immutable value records, the base of every library value type.

A subclass lists its fields as class annotations, in order.  It is built
by position or keyword, after which its ``__post_init__`` runs; it cannot
be assigned to; it compares and hashes by the values of its fields, and
only equal to an instance of the same class; its repr is
``Name(field=value, ...)``; and ``replace`` copies it with some fields
changed.  A validating ``__post_init__`` may rewrite a field with
``object.__setattr__``.

``__init__`` and ``__eq__`` are compiled per class, as dataclasses does,
because they run on hot paths: compiled attribute access keeps them at
dataclass speed, whereas reading an instance's ``__dict__`` would move its
attributes into a dict and slow every later read of them.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        mine = "".join(f"self.{name}, " for name in fields)
        source = (f"def __init__(self, {', '.join(fields)}):\n"
                  + "".join(f"    setattr(self, {name!r}, {name})\n" for name in fields)
                  + "    self.__post_init__()\n"
                  "def __eq__(self, other):\n"
                  "    if other is self:\n"
                  "        return True\n"
                  "    if other.__class__ is not self.__class__:\n"
                  "        return NotImplemented\n"
                  f"    return ({mine}) == ({mine.replace('self.', 'other.')})\n")
        methods = {"setattr": object.__setattr__}
        exec(source, methods)
        for name in ("__init__", "__eq__"):
            methods[name].__qualname__ = f"{cls.__qualname__}.{name}"
        # A class that builds its instances in __new__ keeps its own __init__.
        if "__init__" not in cls.__dict__:
            cls.__init__ = methods["__init__"]
        cls.__eq__ = methods["__eq__"]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def replace(self, **changes: object) -> Record:
        """A copy with the named fields changed; __post_init__ runs again."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
