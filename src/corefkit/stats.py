"""Corpus-level pronoun frequency reporting.

Counts per-form occurrences broken down by grammatical function
(personal subject/object, possessive, relative, demonstrative, other)
plus corpus totals: the share of pronoun tokens, of third-person
singular uses among them, and of masculine forms among the third-person
singular ones.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from corefkit.model import Corpus, Token
from corefkit.transform import (ClassifierConfig, DEFAULT_CLASSIFIER_CONFIG,
                                classify_pronoun)

__all__ = [
    "FUNCTIONS",
    "DEFAULT_REPORT_FORMS",
    "MASCULINE_FORMS",
    "FormFrequency",
    "FrequencyReport",
    "grammatical_function",
    "pronoun_frequencies",
    "corpus_summary",
]

FUNCTIONS = ("personal_subject", "personal_object", "possessive",
             "relative", "demonstrative", "other")

# Gender-neutral and neopronoun forms, the default report rows.
DEFAULT_REPORT_FORMS = (
    "die", "diens", "hen", "hun", "zeer", "vij", "dee", "dem", "dijr",
    "dij", "nij", "ner", "nijr", "vijn", "vijns", "zhij", "zhaar", "zem",
)

MASCULINE_FORMS = frozenset({"hij", "hem", "zijn"})

RELATIVE_FEATS = frozenset({"PronType=Rel"})
DEMONSTRATIVE_FEATS = frozenset({"PronType=Dem"})


@dataclass(frozen=True)
class FormFrequency:
    form: str
    total: int
    by_function: dict[str, int]
    third_singular: int


@dataclass(frozen=True)
class FrequencyReport:
    forms: tuple[FormFrequency, ...]
    token_count: int
    pronoun_count: int
    pronoun_proportion: float
    third_singular_count: int
    third_singular_share: float
    masculine_count: int
    masculine_share: float


def grammatical_function(token: Token,
                         config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG,
                         relative_feats: frozenset[str] = RELATIVE_FEATS,
                         demonstrative_feats: frozenset[str] = DEMONSTRATIVE_FEATS
                         ) -> str:
    """Function bucket of a token, person and number agnostic."""
    feats = token.feat_set()
    if config.is_possessive(token.pos, feats):
        return "possessive"
    if config.is_personal(token.pos, feats):
        if config.nominative_feat in feats:
            return "personal_subject"
        return "personal_object"
    if relative_feats <= feats:
        return "relative"
    if demonstrative_feats <= feats:
        return "demonstrative"
    return "other"


def _count(corpus: Corpus, wanted: tuple[str, ...], config: ClassifierConfig,
           masculine_forms: frozenset[str]) -> FrequencyReport:
    """One walk over the corpus: per-form rows for ``wanted`` plus totals."""
    index = {form.lower(): i for i, form in enumerate(wanted)}
    totals = [0] * len(wanted)
    by_function = [dict.fromkeys(FUNCTIONS, 0) for _ in wanted]
    third_singular = [0] * len(wanted)
    tokens = 0
    pronouns = 0
    third_sg = 0
    masculine = 0
    for document in corpus.documents:
        for token in document.tokens():
            tokens += 1
            function = grammatical_function(token, config)
            if function in ("personal_subject", "personal_object", "possessive"):
                pronouns += 1
            is_third_singular = classify_pronoun(token, config) is not None
            form = token.form.lower()
            if is_third_singular:
                third_sg += 1
                if form in masculine_forms:
                    masculine += 1
            i = index.get(form)
            if i is not None:
                totals[i] += 1
                by_function[i][function] += 1
                third_singular[i] += is_third_singular
    rows = tuple(
        FormFrequency(form.lower(), totals[i], by_function[i], third_singular[i])
        for i, form in enumerate(wanted))
    return FrequencyReport(
        forms=rows,
        token_count=tokens,
        pronoun_count=pronouns,
        pronoun_proportion=pronouns / tokens if tokens else 0.0,
        third_singular_count=third_sg,
        third_singular_share=third_sg / pronouns if pronouns else 0.0,
        masculine_count=masculine,
        masculine_share=masculine / third_sg if third_sg else 0.0,
    )


def pronoun_frequencies(corpus: Corpus,
                        forms: tuple[str, ...] | None = None,
                        config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG,
                        masculine_forms: frozenset[str] = MASCULINE_FORMS
                        ) -> FrequencyReport:
    """Count occurrences of the given forms (case-insensitive) by function.

    A form with occurrences but zero in its ``third_singular`` column is
    one the classifier never fires on, which flags candidate pronouns
    that a corpus uses exclusively in other functions.
    """
    wanted = tuple(forms) if forms is not None else DEFAULT_REPORT_FORMS
    return _count(corpus, wanted, config, masculine_forms)


def corpus_summary(corpus: Corpus,
                   config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG,
                   masculine_forms: frozenset[str] = MASCULINE_FORMS
                   ) -> FrequencyReport:
    """Corpus totals only; an empty corpus yields an all-zero report."""
    return _count(corpus, (), config, masculine_forms)
