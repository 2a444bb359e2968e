"""``Record``, the frozen base of the package's value classes.

A subclass's own annotations name its fields, in order; a class attribute
of the same name is that field's default.  Records compare and hash by
their fields, or by identity with ``class X(Record, eq=False)``.  Unlike
``@dataclass``, defining a class generates and runs no code.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _post = None

    def __init_subclass__(cls, eq: bool = True) -> None:
        cls._fields += tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}
        cls._post = getattr(cls, "__post_init__", None)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        """Bind the fields, then run ``__post_init__``, which may set a field with ``object.__setattr__``."""
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        # Straight into the instance dict, past the frozen __setattr__: the same
        # effect as object.__setattr__ per field, and a little cheaper.
        self.__dict__.update(zip(cls._fields, args))
        if cls._post is not None:
            cls._post(self)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        bound = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in bound:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            bound[key] = value
        missing = [f for f in fields if f not in bound and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required argument(s): {', '.join(map(repr, missing))}")
        return [bound[f] if f in bound else cls._defaults[f] for f in fields]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        """A new record with ``changes`` in place of the fields they name, checked by ``__post_init__`` again."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
