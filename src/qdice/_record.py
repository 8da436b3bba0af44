"""Immutable value records on ``__slots__``: the value semantics of a frozen
dataclass, without building each class through ``dataclasses`` (whose
import, and the class building, were most of ``import qdice``).

A record class lists its fields as ``__slots__``, in declaration order, and
adds ``"__dict__"`` when it keeps a ``functools.cached_property``; a slot
whose name starts with an underscore is a private cache, not a field. A
field's default is declared in the class statement, as in
``class StageParams(Record, defaults={"preparer": INCUMBENT})``, and may
only be given to the last fields. ``Record`` writes the rest, from the
fields in order: ``__init__`` takes them as parameters, stores each with
``object.__setattr__`` and then calls ``self.__post_init__()`` when the
class validates or normalizes its fields; assignment and ``del`` raise
``AttributeError``; records are equal only to records of the same class
with equal fields, hash as the tuple of their fields, print as
``Name(field=value, ...)``, and copy and pickle by calling the class on
their fields again. A subclass without fields of its own keeps its base's
``__init__`` and defaults.

``__eq__`` and ``__hash__`` are cache-key paths (``wcf._evolve``,
``dicer._ladder_plan``) and ``__init__`` a hot one (every ``Event`` of a
transcript), so all three are compiled for each class, field by field as
the dataclass decorator writes them: reading the fields through
``operator.attrgetter`` instead hashes about a third slower. ``__init__``
looks ``__post_init__`` up on each call, so a wrapper set on the class
later (a profiler's span) still runs.
"""
from __future__ import annotations


class Record:
    """Base of the package's immutable value classes."""

    __slots__ = ()

    def __init_subclass__(cls, defaults: dict | None = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(name for name in vars(cls).get("__slots__", ()) if not name.startswith("_"))
        fields = getattr(cls, "__match_args__", ()) + own  # a subclass's fields follow its base's
        cls.__match_args__ = fields
        mine = "".join(f"self.{name}," for name in fields)
        theirs = "".join(f"other.{name}," for name in fields)
        source = (
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash(({mine}))\n"
        )
        defaults = defaults or {}
        if own:  # a subclass without fields of its own keeps its base's __init__ and defaults
            params = "".join(f", {name}=_defaults[{name!r}]" if name in defaults else f", {name}" for name in fields)
            stores = "".join(f"    _set(self, {name!r}, {name})\n" for name in fields)
            post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
            source += f"def __init__(self{params}):\n{stores}{post}"
        namespace: dict = {}
        exec(source, {"_set": object.__setattr__, "_defaults": defaults}, namespace)
        for name, method in namespace.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
