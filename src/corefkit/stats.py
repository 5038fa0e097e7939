"""Corpus-level pronoun frequency reporting.

Counts per-form occurrences broken down by grammatical function
(personal subject/object, possessive, relative, demonstrative, other)
plus corpus totals: the share of pronoun tokens, of third-person
singular uses among them, and of masculine forms among the third-person
singular ones.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from corefkit.conll import _rows, _tally
from corefkit.errors import _value_type
from corefkit.transform import (ClassifierConfig, DEFAULT_CLASSIFIER_CONFIG,
                                PronounRole, _ByPosFeats, _role,
                                classify_pronoun)

if TYPE_CHECKING:
    from corefkit.model import Corpus, Token

__all__ = [
    "FUNCTIONS",
    "DEFAULT_REPORT_FORMS",
    "MASCULINE_FORMS",
    "FormFrequency",
    "FrequencyReport",
    "grammatical_function",
    "pronoun_frequencies",
]

FUNCTIONS = ("personal_subject", "personal_object", "possessive",
             "relative", "demonstrative", "other")

# Gender-neutral and neopronoun forms, the default report rows.
DEFAULT_REPORT_FORMS = (
    "die", "diens", "hen", "hun", "zeer", "vij", "dee", "dem", "dijr",
    "dij", "nij", "ner", "nijr", "vijn", "vijns", "zhij", "zhaar", "zem",
)

MASCULINE_FORMS = frozenset({"hij", "hem", "zijn"})

# The buckets that count as a pronoun in ``pronoun_count``.
_PRONOUN_FUNCTIONS = frozenset({"personal_subject", "personal_object",
                                "possessive"})

RELATIVE_FEATS = frozenset({"PronType=Rel"})
DEMONSTRATIVE_FEATS = frozenset({"PronType=Dem"})


@_value_type
class FormFrequency:
    form: str
    total: int
    by_function: dict[str, int]
    third_singular: int


@_value_type
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
                         config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG
                         ) -> str:
    """Function bucket of a token, person and number agnostic."""
    feats = token.feat_set()
    role = _role(token.pos, feats, config)
    if role is PronounRole.POSSESSIVE:
        return "possessive"
    if role is not None:
        return "personal_" + role.value
    if RELATIVE_FEATS <= feats:
        return "relative"
    if DEMONSTRATIVE_FEATS <= feats:
        return "demonstrative"
    return "other"


def _count(tally: dict[tuple[str, str, str], int], wanted: tuple[str, ...],
           config: ClassifierConfig) -> FrequencyReport:
    """Per-form rows for ``wanted`` plus totals, from a ``(pos, feats,
    form)`` tally (see :func:`corefkit.conll._tally`); feats ``_`` and
    empty feats count alike."""
    # Lowercased form -> every row that counts it; a form may be asked
    # for twice, in any spelling.
    index: dict[str, list[int]] = {}
    for i, form in enumerate(wanted):
        index.setdefault(form.lower(), []).append(i)
    totals = [0] * len(wanted)
    by_function = [dict.fromkeys(FUNCTIONS, 0) for _ in wanted]
    third_singular = [0] * len(wanted)
    # (pos, feats) -> (function bucket, whether a third-person singular)
    kinds = _ByPosFeats(lambda token: (
        grammatical_function(token, config),
        classify_pronoun(token, config) is not None))
    tokens = 0
    pronouns = 0
    third_sg = 0
    masculine = 0
    for (pos, feats, form), n in tally.items():
        function, counted = kinds[pos, feats]
        tokens += n
        if function in _PRONOUN_FUNCTIONS:
            pronouns += n
        form = form.lower()
        if counted:
            third_sg += n
            if form in MASCULINE_FORMS:
                masculine += n
        rows = index.get(form)
        if rows is not None:
            for i in rows:
                totals[i] += n
                by_function[i][function] += n
                if counted:
                    third_singular[i] += n
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
                        config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG
                        ) -> FrequencyReport:
    """Count occurrences of the given forms (case-insensitive) by function.

    A form with occurrences but zero in its ``third_singular`` column is
    one the classifier never fires on, which flags candidate pronouns
    that a corpus uses exclusively in other functions.
    """
    wanted = tuple(forms) if forms is not None else DEFAULT_REPORT_FORMS
    return _count(_tally(map(_rows, corpus.documents)), wanted, config)

