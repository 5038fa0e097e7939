"""corefkit: rewrite coreference corpora into pronoun-specific variants
and score coreference predictions.

The library half exposes a document model, a tabular corpus format,
token-level transforms (pronoun swapping, name anonymization, noun
neutralization, delexicalization), dataset builders, a rule-based
baseline resolver and two evaluation measures (LEA and a pronoun
resolution score). The ``corefkit`` command wraps all of it.
"""
from corefkit.model import (Cluster, Corpus, Document, MentionSpan, Token,
                            antecedents, map_documents, mention_containing)
from corefkit.conll import parse_corpus, serialize_corpus, strip_singletons
from corefkit.lexicon import (PronounParadigm, RewriteLexicon,
                              builtin_noun_lexicon, builtin_paradigms,
                              get_paradigm, load_noun_lexicon, lookup_noun)
from corefkit.transform import (ClassifierConfig, PronounRole,
                                TransformOptions, anonymize_names,
                                classify_pronoun, delexicalize,
                                pronoun_specific, replace_nouns, swap_pronouns)
from corefkit.metrics import (EvalReport, LeaScore, PronounScoreResult,
                              aggregate, evaluate, lea, pronoun_score)
from corefkit.resolver import ResolverConfig, resolve
from corefkit.builder import (PartitionSpec, build_cda, build_unseen,
                              sample_partitions)

__version__ = "0.1.0"

__all__ = [
    "Cluster", "Corpus", "Document", "MentionSpan", "Token",
    "antecedents", "map_documents", "mention_containing",
    "parse_corpus", "serialize_corpus", "strip_singletons",
    "PronounParadigm", "RewriteLexicon", "builtin_noun_lexicon",
    "builtin_paradigms", "get_paradigm", "load_noun_lexicon", "lookup_noun",
    "ClassifierConfig", "PronounRole", "TransformOptions",
    "anonymize_names", "classify_pronoun", "delexicalize",
    "pronoun_specific", "replace_nouns", "swap_pronouns",
    "EvalReport", "LeaScore", "PronounScoreResult",
    "aggregate", "evaluate", "lea", "pronoun_score",
    "ResolverConfig", "resolve",
    "PartitionSpec", "build_cda", "build_unseen", "sample_partitions",
    "__version__",
]
