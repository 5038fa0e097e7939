"""Exception types shared across the toolkit, and the decorator that
declares its configuration and report types.

Everything raised for bad data derives from :class:`CorefKitError` so the
command line layer can map it to a single exit code.
"""


class _Fresh:
    """A field default made anew for each instance by ``factory()``, as
    ``dataclasses.field(default_factory=factory)``."""

    __slots__ = ("factory",)

    def __init__(self, factory):
        self.factory = factory


def _value_type(cls=None, *, frozen=True):
    """Give ``cls`` what ``@dataclasses.dataclass(frozen=frozen)`` gives
    it, without importing :mod:`dataclasses` (which loads :mod:`inspect`)
    or building code with ``exec``, so a command starts sooner.

    The fields are the class annotations, in order, and a class
    attribute of the same name is a field's default (a :class:`_Fresh`
    one is made per instance). Instances are built positionally or by
    keyword in field order, with ``__post_init__`` called last if the
    class has one, and a bad call raises the ``TypeError`` that the
    dataclass ``__init__`` raises, though its signature reads ``(*args,
    **kwargs)``. ``repr`` (with no guard for an instance that holds
    itself) and ``__match_args__`` are the dataclass ones, and ``==``
    compares the tuple of fields of two instances of one class. A frozen
    instance hashes that tuple and raises ``AttributeError`` on
    assignment and deletion; any other is unhashable.
    """
    if cls is None:
        return lambda cls: _value_type(cls, frozen=frozen)
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names
                if name in cls.__dict__}
    count = len(names)
    positions = tuple(enumerate(names))  # faster to walk than a zip
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _arguments(cls.__qualname__, names, defaults, args, kwargs)
        values = self.__dict__  # past a frozen __setattr__
        for i, name in positions:
            values[name] = args[i]
        if post_init:
            self.__post_init__()

    def fields(self):
        return tuple([getattr(self, name) for name in names])

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}"
                           for name in names])
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__}
    if frozen:
        def __hash__(self):
            return hash(fields(self))

        def __setattr__(self, name, value):
            raise AttributeError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise AttributeError(f"cannot delete field {name!r}")

        methods.update(__hash__=__hash__, __setattr__=__setattr__,
                       __delattr__=__delattr__)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    if not frozen:
        cls.__hash__ = None  # what defines __eq__ and is mutable
    cls.__match_args__ = names
    return cls


def _arguments(owner: str, names: tuple, defaults: dict, args: tuple,
               kwargs: dict) -> tuple:
    """The value of each of the fields ``names`` for a call of the
    ``__init__`` of ``owner`` with ``args`` and ``kwargs``, or the
    ``TypeError`` Python raises for that call of a function that takes
    the fields as parameters, with ``defaults``."""
    bound = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{owner}.__init__() got an unexpected keyword "
                            f"argument {name!r}")
        if name in bound:
            raise TypeError(f"{owner}.__init__() got multiple values for "
                            f"argument {name!r}")
        bound[name] = value
    if len(args) > len(names):
        most = len(names) + 1  # counting self, as Python does
        takes = (f"from {most - len(defaults)} to {most}" if defaults
                 else str(most))
        raise TypeError(f"{owner}.__init__() takes {takes} positional "
                        f"arguments but {len(args) + 1} were given")
    missing = [repr(name) for name in names
               if name not in bound and name not in defaults]
    if missing:
        listed = (" and ".join(missing) if len(missing) < 3
                  else ", ".join(missing[:-1]) + ", and " + missing[-1])
        plural = "s" if len(missing) > 1 else ""
        raise TypeError(f"{owner}.__init__() missing {len(missing)} required "
                        f"positional argument{plural}: {listed}")
    values = []
    for name in names:
        if name in bound:
            values.append(bound[name])
        else:
            default = defaults[name]
            values.append(default.factory() if isinstance(default, _Fresh)
                          else default)
    return tuple(values)


class CorefKitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(CorefKitError):
    """A document or corpus violates a structural invariant."""

    def __init__(self, message, issues=()):
        super().__init__(message)
        self.issues = list(issues)


class EmptyCorpusError(CorefKitError):
    """An operation needs at least one document and got none."""

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class LexiconFormatError(CorefKitError):
    """A noun lexicon file could not be parsed."""


class ConfigFormatError(CorefKitError):
    """A classifier configuration file could not be parsed."""


class UnknownParadigmError(CorefKitError, KeyError):
    """A pronoun paradigm name is not in the registry."""


class AlignmentError(CorefKitError):
    """Gold and predicted corpora do not line up."""
