"""Frozen record classes whose methods are plain closures: nothing is compiled at import."""


def record(cls):
    """Make cls a frozen record of its annotated fields, as dataclass(frozen=True) would.

    Defaults are the class attributes.  __init__ binds by position or keyword, then
    calls __post_init__ if cls has one.  Instances compare and hash as their field
    tuples and keep a __dict__ for functools.cached_property.  Records do not inherit.
    """
    name = cls.__qualname__
    fields = tuple(cls.__annotations__)
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")

    def values(self):
        return tuple(map(self.__dict__.__getitem__, fields))

    def __init__(self, *args, **kwargs):
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        state = dict(zip(fields, args))
        if kwargs:
            unknown, repeated = kwargs.keys() - fields, kwargs.keys() & state.keys()
            if unknown:
                raise TypeError(f"{name}() got an unexpected keyword argument {min(unknown)!r}")
            if repeated:
                raise TypeError(f"{name}() got multiple values for argument {min(repeated)!r}")
            state.update(kwargs)
        if len(state) < len(fields):
            missing = [f for f in fields if f not in state and f not in defaults]
            if missing:
                raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
            state = {**defaults, **state}
        self.__dict__.update(state)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values(self)))})"

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r} of a frozen {name}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r} of a frozen {name}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{name}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
