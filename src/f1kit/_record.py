"""Frozen value records: the class decorator behind every f1kit record.

A record's fields are its class's own annotated names, in order.  The
decorator gives the class what dataclass(frozen=True) gave it: a
constructor by position or keyword, with defaults read from class
attributes, that then runs __post_init__; == on the field tuples of two
instances of the same class (any other class gets NotImplemented); the
hash of the field tuple; a Name(f=v, ...) repr unless the class has its
own; __match_args__; and assignment or deletion refused with an
AttributeError, while object.__setattr__, vars(self).update and
cached_property still write.

It does not import the standard dataclass module: that import pulls in
inspect, ast, dis and tokenize (about 10 ms cold), and the module's six
exec calls per class took about 17 ms more for f1kit's 19 records,
together a fifth of a cold CLI call.  Here one small exec per class
builds the methods, as collections.namedtuple does, and the constructor
writes each field with object.__setattr__, which keeps instances as
compact as before.
"""


class FrozenRecordError(AttributeError):
    """Raised on assigning or deleting an attribute of a record."""


def _refuse(self, name, value=None):
    raise FrozenRecordError(f"cannot assign to or delete {name!r} of a frozen "
                            f"{type(self).__qualname__}")


def record(cls):
    """cls made a frozen record, its fields its own annotated names."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {f"_d_{f}": cls.__dict__[f] for f in names if f in cls.__dict__}
    params = ", ".join(f"{f}=_d_{f}" if f"_d_{f}" in defaults else f for f in names)
    mine, theirs = "".join(f"self.{f}, " for f in names), "".join(f"other.{f}, " for f in names)
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in names)
    namespace = {"_set": object.__setattr__, **defaults}
    exec("\n".join([
        f"def __init__(self, {params}):",
        *(f"    _set(self, {f!r}, {f})" for f in names),
        "    self.__post_init__()" if hasattr(cls, "__post_init__") else "",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({mine}))",
        "def __repr__(self):",
        f"    return f'{{self.__class__.__qualname__}}({shown})'",
    ]), namespace)
    own = {"__repr__"} & set(cls.__dict__)     # IntPolynomial keeps its repr
    for name in {"__init__", "__eq__", "__hash__", "__repr__"} - own:
        fn = namespace[name]
        fn.__module__, fn.__qualname__ = cls.__module__, f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__setattr__ = cls.__delattr__ = _refuse
    cls.__match_args__ = names
    return cls
