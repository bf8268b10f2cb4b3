"""Frozen record classes that import neither ``dataclasses`` nor ``inspect``.

``record`` makes of a class what ``dataclasses.dataclass(frozen=True)``
makes of it, for the package's public result and parameter classes, with
no ``exec``: a command that builds records pays neither for importing
``dataclasses``, which loads ``inspect``, ``dis``, ``ast`` and
``tokenize``, nor for compiling each class's methods from source.

The class declares its fields once, as the annotated parameters of its
own ``__init__`` after ``self``, in order and with their defaults; the
init checks its arguments and stores them in ``self.__dict__`` (through
``object.__setattr__`` for a class with ``__slots__``).  ``record`` writes
the class's ``__annotations__`` from those parameters, so that
``inspect.get_annotations`` and ``dataclasses`` read the fields as a
dataclass declares them, and adds, where the class body does not define
them, the methods a frozen dataclass has:

- ``__repr__`` as ``Name(field=value, ...)``, ``__eq__`` over the fields'
  tuple for instances of the same class, and ``__hash__`` of that tuple;
- ``__setattr__`` and ``__delattr__`` that raise
  ``dataclasses.FrozenInstanceError`` with its messages, imported on that
  path alone;
- ``__match_args__``, and for a class with ``__slots__`` the
  ``__getstate__``/``__setstate__`` pair by which ``copy`` and ``pickle``
  rebuild it;
- ``__dataclass_fields__`` and ``__dataclass_params__``, made on their
  first read by applying ``dataclasses.dataclass(frozen=True)`` to a twin
  of the class with the same module, name, annotations, defaults and
  slots, and then kept on the class.  So ``dataclasses.fields``, ``asdict``,
  ``astuple``, ``replace`` and ``is_dataclass`` see a frozen dataclass, and
  ``replace`` builds through the class's own init, checks and all.
"""

from operator import attrgetter

__all__ = ["record"]


def _frozen(message: str) -> AttributeError:
    from dataclasses import FrozenInstanceError  # only a refused write needs it

    return FrozenInstanceError(message)


class _DataclassView:
    """One of a record's ``__dataclass_fields__`` and
    ``__dataclass_params__``: its first read imports ``dataclasses``, sets
    both on the record class in place of their views, and returns the one
    asked for."""

    def __init__(self, cls: type, name: str):
        self.cls, self.name = cls, name

    def __get__(self, instance, owner):
        import dataclasses

        cls = self.cls
        names = tuple(cls.__annotations__)
        defaults = cls.__init__.__defaults__ or ()
        slots = "__slots__" in cls.__dict__
        twin = dataclasses.dataclass(frozen=True, slots=slots)(type(cls.__name__, (), {
            "__module__": cls.__module__,
            "__qualname__": cls.__qualname__,
            "__annotations__": cls.__annotations__,
            **dict(zip(names[len(names) - len(defaults):], defaults)),
        }))
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        cls.__dataclass_params__ = twin.__dataclass_params__
        return getattr(cls, self.name)


def record(cls: type) -> type:
    """Make ``cls`` a frozen record whose fields are its ``__init__``'s
    annotated parameters after ``self``; see the module docstring."""
    init = cls.__init__
    names = init.__code__.co_varnames[1:init.__code__.co_argcount]
    cls.__annotations__ = {name: init.__annotations__[name] for name in names}
    # the fields' values as a tuple, as a dataclass compares and hashes them
    values = attrgetter(*names) if len(names) > 1 else lambda self: (getattr(self, names[0]),)

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise _frozen(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise _frozen(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    def __getstate__(self):
        return list(values(self))

    def __setstate__(self, state):
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    methods = [__repr__, __eq__, __hash__, __setattr__, __delattr__]
    if "__slots__" in cls.__dict__:
        methods += [__getstate__, __setstate__]
    for method in methods:
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    for name in ("__dataclass_fields__", "__dataclass_params__"):
        setattr(cls, name, _DataclassView(cls, name))
    return cls
