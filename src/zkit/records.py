"""Record classes: the part of the standard dataclasses that zkit uses.

`record` turns the annotated class attributes of a class (base-class
fields first) into fields and builds, in one exec per class, the
__init__, __eq__ and __hash__ that dataclasses generates for them:
__init__ takes the fields in order, with plain defaults or a
default_factory, stores each field (on a frozen record through
object.__setattr__, bound once per class rather than looked up per
field) and ends by calling __post_init__ when the class has one; __eq__
is True at once when both sides are one object (as for two elements of
one shared ring) and otherwise compares the tuples of fields of two
instances of the same class; __hash__ hashes that tuple on a frozen
record and is None on a mutable one.  So construction, equality and hash
values (and with them dict and set order) are those of the dataclass.
__repr__ is one shared function giving the dataclass text, and on a
frozen record so are __setattr__ and __delattr__, which raise
AttributeError.  Methods the class body defines itself are kept.

__init__ does not write into self.__dict__: on CPython 3.11 reading
__dict__ turns the instance's inline attribute values into a dict, and
every later field read then goes through that dict, several times
slower.

There are no ClassVar, InitVar, keyword-only, slots, ordering, compare
or repr options: zkit uses none of them.
"""
from __future__ import annotations

MISSING = object()          # no default given
_FACTORY = object()         # the __init__ default of a default_factory field


class Field:
    """A field's name and options; `field(...)` makes one for a class body."""

    __slots__ = ("name", "default", "default_factory")

    def __init__(self, default=MISSING, default_factory=MISSING):
        self.name = None
        self.default = default
        self.default_factory = default_factory


def field(*, default=MISSING, default_factory=MISSING) -> Field:
    return Field(default, default_factory)


def _repr(self):
    cls = self.__class__
    return cls.__qualname__ + "(" + ", ".join(
        [f"{f.name}={getattr(self, f.name)!r}" for f in cls.__record_fields__]
    ) + ")"


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _tuple(obj, fields) -> str:
    return "(" + "".join(f"{obj}.{f.name}," for f in fields) + ")"


def _build(cls, frozen: bool):
    fields = {}
    for base in cls.__mro__[:0:-1]:
        for f in base.__dict__.get("__record_fields__", ()):
            fields[f.name] = f
    for name in cls.__annotations__:
        value = cls.__dict__.get(name, MISSING)
        if isinstance(value, Field):
            f = value
            if f.default is MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, f.default)
        else:
            f = Field(value)
        f.name = name
        fields[name] = f
    fields = tuple(fields.values())
    cls.__record_fields__ = fields

    env = {"_setattr": object.__setattr__, "_FACTORY": _FACTORY}
    params, body = ["self"], []
    for f in fields:
        name, value = f.name, f.name
        if f.default_factory is not MISSING:
            env[f"_dflt_{name}"] = f.default_factory
            params.append(f"{name}=_FACTORY")
            value = f"_dflt_{name}() if {name} is _FACTORY else {name}"
        elif f.default is not MISSING:
            env[f"_dflt_{name}"] = f.default
            params.append(f"{name}=_dflt_{name}")
        else:
            params.append(name)
        body.append(f"_setattr(self,{name!r},{value})" if frozen
                    else f"self.{name}={value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    text = "\n".join([
        f"def __create_fn__({', '.join(env)}):",
        f" def __init__({', '.join(params)}):",
        *[f"  {line}" for line in body or ["pass"]],
        " def __eq__(self, other):",
        "  if other is self:",
        "   return True",
        "  if other.__class__ is self.__class__:",
        f"   return {_tuple('self', fields)}=={_tuple('other', fields)}",
        "  return NotImplemented",
        " def __hash__(self):",
        f"  return hash({_tuple('self', fields)})",
        " return __init__, __eq__, __hash__",
    ])
    ns = {}
    exec(text, {}, ns)
    init, eq, hash_ = ns["__create_fn__"](**env)

    methods = {"__init__": init, "__eq__": eq, "__repr__": _repr}
    if frozen:
        methods["__setattr__"] = _frozen_setattr
        methods["__delattr__"] = _frozen_delattr
    for name, fn in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, fn)
    if cls.__dict__.get("__hash__") is None:
        cls.__hash__ = hash_ if frozen else None
    for fn in (init, eq, hash_):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
    return cls


def record(cls=None, /, *, frozen: bool = False):
    """Class decorator: `@record` for a mutable record, `@record(frozen=True)`
    for an immutable, hashable one."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def replace(obj, /, **changes):
    """A copy of the record obj with the given fields changed."""
    for f in obj.__record_fields__:
        if f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)
