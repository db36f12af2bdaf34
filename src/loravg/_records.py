"""`record`: what dataclass(frozen=True) gives the package's value classes,
as plain closures, so that no command imports dataclasses or compiles the
source it generates.

The fields are the class's annotations in order, each with the class
attribute of its name, if any, as its default.  `__init__` takes them by
position or keyword, then calls `__post_init__`; setting or deleting an
attribute raises AttributeError (functools.cached_property writes the
instance __dict__ directly); unless the class defines `__eq__`, records
compare and hash as their tuples of fields; the repr is Name(field=value, ...).
"""


def record(cls):
    names = tuple(cls.__annotations__)
    required = set(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def fields(self) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __init__(self, *args, **kwargs):
        given = dict(defaults, **dict(zip(names, args)), **kwargs)
        if len(args) > len(names) or given.keys() != required:
            raise TypeError(f"{cls.__name__} takes the fields ({', '.join(names)})")
        self.__dict__.update(given)
        if post_init is not None:
            post_init(self)

    def immutable(self, name, *value):
        raise AttributeError(f"{cls.__name__} is immutable: cannot set or delete {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, names, fields(self)))})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    cls.__init__, cls.__repr__ = __init__, __repr__
    cls.__setattr__ = cls.__delattr__ = immutable
    if "__eq__" not in cls.__dict__:
        cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(fields(self))
    return cls
