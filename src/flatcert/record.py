"""`@record` gives a class of annotated fields `__init__`, `__eq__`,
`__hash__`, `__getattr__` and, unless the class defines its own,
`__repr__` as closures over the field names: defining a record compiles
no code.  Fields are the class's own annotations, in order; a class
attribute gives a default, which the class then drops for the
constructor alone to fill in; `__post_init__` runs last.  Fields in
`uncompared` are left out of equality and hashing.  A frozen record
(the default) refuses assignment; a mutable one is unhashable.
`deferred` makes a record whose unset fields one fill sets when first
read: equality, hashing and `repr` read them too."""

from operator import attrgetter

_FILL = "_fill"  # a deferred record's fill, until its first read


def record(cls=None, /, *, frozen=True, uncompared=()):
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, uncompared=uncompared)
    names = tuple(cls.__annotations__)
    n = len(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    key = attrgetter(*(name for name in names if name not in uncompared))
    post_init = getattr(cls, "__post_init__", None)
    set_field = object.__setattr__

    def bind(args, kwargs):
        given = dict(zip(names, args))
        if len(args) > n or not kwargs.keys() <= set(names) - set(given):
            raise TypeError(f"{cls.__name__}() got unexpected arguments")
        values = {**defaults, **given, **kwargs}
        if len(values) < n:
            missing = ", ".join(name for name in names if name not in values)
            raise TypeError(f"{cls.__name__}() missing arguments: {missing}")
        return [values[name] for name in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        # Field by field: filling `__dict__` would slow every later read.
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init is not None:
            post_init(self)

    def __getattr__(self, name):
        # Reached only for a name the record does not hold: an unset
        # field of a deferred record, or no attribute at all.
        fill = vars(self).get(_FILL) if name in names else None
        if fill is None:
            message = f"'{type(self).__name__}' object has no attribute '{name}'"
            raise AttributeError(message, name=name, obj=self)
        for field, value in fill(self).items():
            set_field(self, field, value)
        vars(self).pop(_FILL, None)
        return getattr(self, name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def refuse(self, name, value=None):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    for name in defaults:
        delattr(cls, name)
    cls.__init__, cls.__eq__, cls.__getattr__ = __init__, __eq__, __getattr__
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = refuse
    return cls


def deferred(cls, fill, **values):
    """A record of `cls` holding `values` (fields or other attributes,
    unchecked) with the other fields unset: the first read of one sets
    them all to what `fill(record)` returns by name, and drops `fill`."""
    made = object.__new__(cls)
    for name, value in {**values, _FILL: fill}.items():
        object.__setattr__(made, name, value)
    return made
