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

    def __repr__(self):
        return "<factory>"  # as a dataclass signature shows it


def _value_type(cls):
    """Give ``cls`` what ``@dataclasses.dataclass(frozen=True)`` gives
    it, without importing :mod:`dataclasses` (which loads :mod:`inspect`),
    so a command starts sooner.

    The fields are the class annotations, in order, and a class
    attribute of the same name is a field's default (a :class:`_Fresh`
    one is made per instance and leaves the class). ``__init__`` is
    compiled as the dataclass one, ``__post_init__`` included, so its
    signature and ``TypeError``s are the dataclass ones. So are ``repr``
    (but with no guard for an instance that holds itself),
    ``__match_args__``, ``==`` and ``hash`` of the tuple of fields, and
    the ``AttributeError`` of assignment and deletion.
    """
    names = tuple(cls.__annotations__)
    namespace = {"__name__": cls.__module__}
    parameters, body = [], []
    for name in names:
        parameter = value = name
        if name in cls.__dict__:
            default = namespace[f"_default_{name}"] = cls.__dict__[name]
            parameter = f"{name}=_default_{name}"
            if isinstance(default, _Fresh):
                delattr(cls, name)
                namespace[f"_factory_{name}"] = default.factory
                value = (f"_factory_{name}() if {name} is _default_{name} "
                         f"else {name}")
        parameters.append(parameter)
        body.append(f"self.__dict__[{name!r}] = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(parameters)}):\n    "
         + "\n    ".join(body), namespace)
    __init__ = namespace["__init__"]
    __init__.__annotations__ = {**cls.__annotations__, "return": None}

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

    def __hash__(self):
        return hash(fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__,
                   __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


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
