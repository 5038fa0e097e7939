"""corefkit: rewrite coreference corpora into pronoun-specific variants
and score coreference predictions.

The library half exposes a document model, a tabular corpus format,
token-level transforms (pronoun swapping, name anonymization, noun
neutralization, delexicalization), dataset builders, a rule-based
baseline resolver and two evaluation measures (LEA and a pronoun
resolution score). The ``corefkit`` command wraps all of it.

Importing the package loads none of its modules: each public name is
imported from its home module on first use (PEP 562), so a command
loads only the modules it runs.
"""
from importlib import import_module

__version__ = "0.1.0"

# The home module of every public name, in the order of ``__all__``.
_HOMES = {
    "model": ("Cluster", "Corpus", "Document", "MentionSpan", "Token",
              "map_documents"),
    "conll": ("parse_corpus", "serialize_corpus", "strip_singletons"),
    "lexicon": ("PronounParadigm", "RewriteLexicon", "builtin_noun_lexicon",
                "builtin_paradigms", "get_paradigm", "load_noun_lexicon"),
    "transform": ("ClassifierConfig", "PronounRole", "TransformOptions",
                  "anonymize_names", "classify_pronoun", "delexicalize",
                  "pronoun_specific", "replace_nouns", "swap_pronouns"),
    "metrics": ("EvalReport", "LeaScore", "PronounScoreResult",
                "evaluate", "lea", "pronoun_score"),
    "resolver": ("ResolverConfig", "resolve"),
    "builder": ("PartitionSpec", "build_cda", "build_unseen",
                "sample_partitions"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME_OF, "__version__"]


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
