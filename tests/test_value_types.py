"""The configuration and report types behave as the dataclasses they
were declared as.

Each is compared with a frozen twin that ``dataclasses.make_dataclass``
builds from its field names and defaults: construction (its errors
included), signature, ``repr``, ``==``, ``hash``, defaults, class
attributes, assignment and deletion must agree.
"""
import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import corefkit
from corefkit import (builder, cli, conll, errors, lexicon, metrics, resolver,
                      stats, transform)

TYPES = (cli._Output, lexicon.PronounParadigm, lexicon.RewriteEntry,
         lexicon.RewriteLexicon, conll.ParseDiagnostic,
         transform.ClassifierConfig, transform.TransformOptions,
         metrics.LeaScore, metrics.PronounScoreResult, metrics.EvalReport,
         resolver.ResolverConfig, stats.FormFrequency, stats.FrequencyReport,
         builder.PartitionSpec)

LEA = metrics.LeaScore(0.5, 1.0, 0.75)
PRONOUNS = metrics.PronounScoreResult(50.0, 1, 2)
# Values for the fields without a default, positionally.
REQUIRED = {
    cli._Output: (),
    lexicon.PronounParadigm: ("Hen", "HEN", "hen", "hun"),
    lexicon.RewriteEntry: ("persoon", False),
    lexicon.RewriteLexicon: ({},),
    conll.ParseDiagnostic: (3, "error", "bad"),
    transform.ClassifierConfig: (),
    transform.TransformOptions: (),
    metrics.LeaScore: (0.5, 1.0, 0.75),
    metrics.PronounScoreResult: (50.0, 1, 2),
    metrics.EvalReport: (LEA, PRONOUNS, 1),
    resolver.ResolverConfig: (),
    stats.FormFrequency: ("hen", 2, {"other": 2}, 0),
    stats.FrequencyReport: ((), 10, 2, 0.2, 1, 0.5, 0, 0.0),
    builder.PartitionSpec: (Fraction(1, 2), 2),
}
FACTORY_FIELDS = [(cli._Output, "files"),
                  (metrics.PronounScoreResult, "per_form")]


def names(cls) -> tuple:
    return tuple(cls.__annotations__)


def twin(cls):
    """``cls`` as ``dataclasses.make_dataclass`` builds it."""
    parameters = inspect.signature(cls).parameters
    specs = []
    for name in names(cls):
        default = cls.__dict__.get(name, dataclasses.MISSING)
        fresh = parameters[name].default  # the class no longer holds it
        if isinstance(fresh, errors._Fresh):
            spec = dataclasses.field(default_factory=fresh.factory)
        else:
            spec = dataclasses.field(default=default)
        specs.append((name, cls.__annotations__[name], spec))
    namespace = ({"__post_init__": cls.__post_init__}
                 if hasattr(cls, "__post_init__") else {})
    return dataclasses.make_dataclass(cls.__qualname__, specs,
                                      namespace=namespace, frozen=True)


TWINS = {cls: twin(cls) for cls in TYPES}


def test_every_value_type_is_compared_with_its_twin():
    declared = set()
    for module in pkgutil.iter_modules(corefkit.__path__):
        found = vars(importlib.import_module(f"corefkit.{module.name}"))
        declared.update(
            value for value in found.values() if isinstance(value, type)
            and getattr(value.__eq__, "__module__", None) == errors.__name__)
    assert declared == set(TYPES)


TEXTS = st.text("aZé'\n", max_size=3)
# Python 3.13's dataclasses compare field by field and earlier ones as
# tuples, which differ on a NaN field, so no NaN is drawn.
SCALARS = (st.none() | st.booleans() | st.integers(-3, 300)
           | st.floats(allow_nan=False) | TEXTS
           | st.fractions(max_denominator=9))
VALUES = (SCALARS | st.lists(SCALARS, max_size=2)
          | st.tuples(SCALARS, SCALARS)
          | st.dictionaries(TEXTS, SCALARS, max_size=2)
          | st.frozensets(TEXTS, max_size=2))
# Values the two types with a __post_init__ accept, now and then.
FIELD_VALUES = {
    lexicon.PronounParadigm: TEXTS | VALUES,
    builder.PartitionSpec: (st.fractions(-1, 2, max_denominator=9)
                            | st.floats(-1, 2) | st.integers(-1, 3)
                            | st.sampled_from(["1/8", "0.3", "x"]) | VALUES),
}


def outcome(call, *args, **kwargs):
    """``(result, None)``, or ``(None, (exception kind, message))``; a
    dataclass's ``FrozenInstanceError`` is an ``AttributeError``."""
    try:
        return call(*args, **kwargs), None
    except (TypeError, ValueError, AttributeError) as exc:
        kind = AttributeError if isinstance(exc, AttributeError) else type(exc)
        return None, (kind, str(exc))


@st.composite
def calls(draw, cls):
    """Arguments for ``cls(...)``: some positional, then some by keyword,
    now and then one too many or a keyword no field has."""
    fields = names(cls)
    values = FIELD_VALUES.get(cls, VALUES)
    count = draw(st.integers(0, len(fields) + 1))
    args = tuple(draw(values) for _ in range(count))
    keywords = draw(st.lists(st.sampled_from((*fields, "bogus")),
                             unique=True, max_size=len(fields)))
    return args, {name: draw(values) for name in keywords}


@st.composite
def cases(draw):
    """A type, two calls of it, and a field and a value to put in it."""
    cls = draw(st.sampled_from(TYPES))
    return (cls, draw(calls(cls)), draw(calls(cls)),
            draw(st.integers(0, len(names(cls)) - 1)),
            draw(FIELD_VALUES.get(cls, VALUES)))


@given(cases())
def test_each_type_behaves_as_its_dataclass_twin(drawn):
    cls, (args, kwargs), (other_args, other_kwargs), field, new = drawn
    twin_cls = TWINS[cls]
    value, error = outcome(cls, *args, **kwargs)
    twin_value, twin_error = outcome(twin_cls, *args, **kwargs)
    assert error == twin_error
    if error is not None:
        return
    assert cls.__match_args__ == twin_cls.__match_args__ == names(cls)
    assert [getattr(value, n) for n in names(cls)] == [
        getattr(twin_value, n) for n in names(cls)]
    assert repr(value) == repr(twin_value)
    assert (value == value) is (twin_value == twin_value) is True
    assert cls(*args, **kwargs) == value
    assert not value == twin_value and value != twin_value
    assert value != tuple(getattr(value, n) for n in names(cls))
    hashed, hash_error = outcome(hash, value)
    assert (hashed, hash_error) == outcome(hash, twin_value)
    other, _ = outcome(cls, *other_args, **other_kwargs)
    twin_other, _ = outcome(twin_cls, *other_args, **other_kwargs)
    assert (value == other) is (twin_value == twin_other)
    assert (value != other) is (twin_value != twin_other)
    every = [getattr(value, n) for n in names(cls)]
    every[field] = new  # equal in every field but perhaps this one
    changed, error = outcome(cls, *every)
    twin_changed, twin_error = outcome(twin_cls, *every)
    assert error == twin_error
    assert (changed == value) is (twin_changed == twin_value)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__qualname__)
def test_defaults_positional_and_keyword_construction_agree(cls):
    twin_cls = TWINS[cls]
    assert str(inspect.signature(cls)) == str(inspect.signature(twin_cls))
    for name in names(cls):
        assert hasattr(cls, name) == hasattr(twin_cls, name), name
    args = REQUIRED[cls]
    value = cls(*args)
    assert value == cls(**dict(zip(names(cls), args)))
    assert repr(value) == repr(TWINS[cls](*args))
    every = [getattr(value, n) for n in names(cls)]
    assert cls(*every) == cls(**dict(zip(names(cls), every))) == value


@pytest.mark.parametrize("cls,name", FACTORY_FIELDS)
def test_factory_defaults_are_fresh_for_each_instance(cls, name):
    first, second = cls(*REQUIRED[cls]), cls(*REQUIRED[cls])
    assert getattr(first, name) is not getattr(second, name)
    getattr(first, name).clear()  # an empty list or dict, made per instance
    assert getattr(first, name) == getattr(TWINS[cls](*REQUIRED[cls]), name)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__qualname__)
def test_assignment_and_deletion(cls):
    value, twin_value = cls(*REQUIRED[cls]), TWINS[cls](*REQUIRED[cls])
    for name in (*names(cls), "other"):
        for call, rest in ((setattr, (name, 1)), (delattr, (name,))):
            done = outcome(call, value, *rest)
            assert done == outcome(call, twin_value, *rest)
            assert done[1][0] is AttributeError
    assert value == cls(*REQUIRED[cls])


def test_paradigm_forms_are_lowercased():
    paradigm = lexicon.PronounParadigm("Hen", "HEN", "hEn", "Hun")
    assert (paradigm.name, paradigm.subject_form, paradigm.object_form,
            paradigm.possessive_form) == ("hen", "hen", "hen", "hun")
    assert paradigm == lexicon.get_paradigm("hen")


@pytest.mark.parametrize("empty", range(4))
def test_paradigm_rejects_an_empty_form(empty):
    forms = ["a", "b", "c", "d"]
    forms[empty] = ""
    attr = names(lexicon.PronounParadigm)[empty]
    with pytest.raises(ValueError, match=f"paradigm {attr} must be non-empty"):
        lexicon.PronounParadigm(*forms)


@pytest.mark.parametrize("value,fraction", [
    (0.3, Fraction(3, 10)), (1, Fraction(1)), ("1/8", Fraction(1, 8)),
    (Fraction(2, 4), Fraction(1, 2)), ("0.25", Fraction(1, 4))])
def test_partition_spec_normalises_its_fraction(value, fraction):
    spec = builder.PartitionSpec(value, 2)
    assert type(spec.fraction) is Fraction and spec.fraction == fraction
    assert spec == builder.PartitionSpec(fraction, 2, 0)


@pytest.mark.parametrize("args,message", [
    ((0, 1), "fraction 0 not in"), ((1.5, 1), "fraction 3/2 not in"),
    ((-0.1, 1), "fraction -1/10 not in"),
    ((Fraction(1, 2), 0), "need at least one partition")])
def test_partition_spec_rejects_bad_values(args, message):
    with pytest.raises(ValueError, match=message):
        builder.PartitionSpec(*args)
