"""Token-level corpus rewrites: pronoun swapping, name anonymization,
noun neutralization and pronoun delexicalization.

Every operation returns a new document with the same token grid shape
and the coreference layer untouched; only forms (and where documented,
lemmas) change. Classification of third-person singular pronouns is
driven by POS tags and morphological feats, not by surface forms, so
rewritten corpora stay classifiable.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass, replace
from typing import Callable, TextIO

from corefkit.errors import ConfigFormatError
from corefkit.lexicon import (RewriteLexicon, PronounParadigm,
                              builtin_noun_lexicon, lookup_noun, transfer_case)
from corefkit.model import Document, Token

__all__ = [
    "PronounRole",
    "ClassifierConfig",
    "DEFAULT_CLASSIFIER_CONFIG",
    "TransformOptions",
    "classify_pronoun",
    "swap_pronouns",
    "anonymize_names",
    "replace_nouns",
    "delexicalize",
    "pronoun_specific",
    "ANON_FORM_RE",
    "NOMINAL_POS",
    "DELEX_TAGS",
]

ANON_FORM_RE = re.compile(r"ANON_\d+\Z")
NOMINAL_POS = frozenset({"NOUN"})


class PronounRole(enum.Enum):
    SUBJECT = "subject"
    OBJECT = "object"
    POSSESSIVE = "possessive"


DELEX_TAGS = {
    PronounRole.SUBJECT: "<SUBJ>",
    PronounRole.OBJECT: "<OBJ>",
    PronounRole.POSSESSIVE: "<POSS>",
}


@dataclass(frozen=True)
class ClassifierConfig:
    """Declarative predicates that pick out third-person singular pronouns.

    A token must carry every feat in ``third_singular_feats`` to be
    considered at all. It is possessive when its POS is in
    ``possessive_pos`` and it has all ``possessive_feats``; otherwise it
    is personal when its POS is in ``personal_pos`` and it has all
    ``personal_feats``, and then ``nominative_feat`` separates subjects
    from objects. The defaults follow UD-style Dutch tagging.
    """

    personal_pos: frozenset[str] = frozenset({"PRON"})
    personal_feats: frozenset[str] = frozenset({"PronType=Prs"})
    possessive_pos: frozenset[str] = frozenset({"PRON", "DET"})
    possessive_feats: frozenset[str] = frozenset({"PronType=Prs", "Poss=Yes"})
    nominative_feat: str = "Case=Nom"
    third_singular_feats: frozenset[str] = frozenset({"Person=3", "Number=Sing"})

    def is_possessive(self, pos: str, feats: frozenset[str]) -> bool:
        return pos in self.possessive_pos and self.possessive_feats <= feats

    def is_personal(self, pos: str, feats: frozenset[str]) -> bool:
        return pos in self.personal_pos and self.personal_feats <= feats

    @classmethod
    def from_text(cls, source: str | TextIO) -> "ClassifierConfig":
        """Parse a ``key = value ...`` config file, defaults filling gaps.

        Recognised keys: ``personal.pos``, ``personal.feats``,
        ``possessive.pos``, ``possessive.feats``, ``nominative.feat``
        and ``third_singular.feats``. Values are space-separated lists
        (``nominative.feat`` takes a single value). ``#`` starts a
        comment.
        """
        text = source.read() if hasattr(source, "read") else source
        values: dict[str, list[str]] = {}
        for line_number, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigFormatError(f"line {line_number}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            items = value.split()
            if key not in ("personal.pos", "personal.feats", "possessive.pos",
                           "possessive.feats", "nominative.feat",
                           "third_singular.feats"):
                raise ConfigFormatError(f"line {line_number}: unknown key {key!r}")
            if not items:
                raise ConfigFormatError(f"line {line_number}: empty value for {key!r}")
            if key == "nominative.feat" and len(items) != 1:
                raise ConfigFormatError(
                    f"line {line_number}: nominative.feat takes one value")
            values[key] = items
        base = cls()
        return cls(
            personal_pos=frozenset(values.get("personal.pos", base.personal_pos)),
            personal_feats=frozenset(values.get("personal.feats", base.personal_feats)),
            possessive_pos=frozenset(values.get("possessive.pos", base.possessive_pos)),
            possessive_feats=frozenset(
                values.get("possessive.feats", base.possessive_feats)),
            nominative_feat=values.get("nominative.feat", [base.nominative_feat])[0],
            third_singular_feats=frozenset(
                values.get("third_singular.feats", base.third_singular_feats)),
        )


DEFAULT_CLASSIFIER_CONFIG = ClassifierConfig()


@dataclass(frozen=True)
class TransformOptions:
    """Which optional rewrite steps :func:`pronoun_specific` applies."""

    anonymize: bool = True
    neutralize_nouns: bool = True


def classify_pronoun(token: Token,
                     config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG
                     ) -> PronounRole | None:
    """The grammatical role of a third-person singular pronoun token.

    Returns None for everything else: other persons and numbers,
    relative or demonstrative uses, and non-pronouns.
    """
    feats = token.feat_set()
    if not config.third_singular_feats <= feats:
        return None
    if config.is_possessive(token.pos, feats):
        return PronounRole.POSSESSIVE
    if config.is_personal(token.pos, feats):
        if config.nominative_feat in feats:
            return PronounRole.SUBJECT
        return PronounRole.OBJECT
    return None


def _rewritten(token: Token, form: str, lemma: str) -> Token:
    """``token`` with a new form and lemma, every other column kept."""
    return Token(token.sentence_index, token.token_index, form, lemma,
                 token.pos, token.feats, token.dep_head, token.dep_rel,
                 token.ner)


def _map_tokens(document: Document,
                fn: Callable[[Token], Token]) -> Document:
    sentences = tuple(tuple(fn(token) for token in sentence)
                      for sentence in document.sentences)
    return replace(document, sentences=sentences)


def swap_pronouns(document: Document, paradigm: PronounParadigm,
                  config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG
                  ) -> Document:
    """Replace every classified pronoun with the paradigm form for its role.

    Capitalization carries over (initial capital and all-caps; mixed
    case falls back to lowercase). The lemma becomes the new lowercase
    form; feats, POS and everything else stay as they were.
    """
    forms = {
        PronounRole.SUBJECT: paradigm.subject_form,
        PronounRole.OBJECT: paradigm.object_form,
        PronounRole.POSSESSIVE: paradigm.possessive_form,
    }

    def rewrite(token: Token) -> Token:
        role = classify_pronoun(token, config)
        if role is None:
            return token
        target = forms[role]
        return _rewritten(token, transfer_case(token.form, target), target)

    return _map_tokens(document, rewrite)


def anonymize_names(document: Document) -> tuple[Document, dict[str, int]]:
    """Replace PER-tagged tokens by ANON_x placeholders.

    ``x`` is the dense first-occurrence index of the token's original
    form within this document, matched case-sensitively, so repeats of
    one name share a placeholder. Returns the rewritten document and the
    form-to-index map. The map never carries over between documents.
    """
    indices: dict[str, int] = {}
    for token in document.tokens():
        if token.ner == "PER" and token.form not in indices:
            indices[token.form] = len(indices)

    def rewrite(token: Token) -> Token:
        if token.ner != "PER":
            return token
        tag = f"ANON_{indices[token.form]}"
        return _rewritten(token, tag, tag)

    return _map_tokens(document, rewrite), indices


def replace_nouns(document: Document, lexicon: RewriteLexicon | None = None,
                  nominal_pos: frozenset[str] = NOMINAL_POS) -> Document:
    """Rewrite gendered nouns using the lexicon.

    A token is rewritten when its form matches a lexicon key
    case-insensitively and its POS is nominal; requiring the POS keeps
    homographs (verb readings and the like) intact. The lemma becomes
    the lowercase replacement.
    """
    lexicon = lexicon if lexicon is not None else builtin_noun_lexicon()

    def rewrite(token: Token) -> Token:
        if token.pos not in nominal_pos:
            return token
        replacement = lookup_noun(lexicon, token.form)
        if replacement is None:
            return token
        return _rewritten(token, replacement, replacement.lower())

    return _map_tokens(document, rewrite)


def delexicalize(document: Document,
                 config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG
                 ) -> Document:
    """Replace classified pronoun forms by literal role tags.

    Subjects become ``<SUBJ>``, objects ``<OBJ>`` and possessives
    ``<POSS>``, with no capitalization transfer. Lemmas and all other
    columns are untouched.
    """

    def rewrite(token: Token) -> Token:
        role = classify_pronoun(token, config)
        if role is None:
            return token
        return _rewritten(token, DELEX_TAGS[role], token.lemma)

    return _map_tokens(document, rewrite)


def pronoun_specific(document: Document, paradigm: PronounParadigm | None,
                     config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG,
                     lexicon: RewriteLexicon | None = None,
                     options: TransformOptions = TransformOptions()
                     ) -> Document:
    """The full rewrite pipeline for one target paradigm.

    Pronouns are swapped first (skipped when ``paradigm`` is None, which
    yields the baseline variant), then names are anonymized and gendered
    nouns neutralized according to ``options``.
    """
    if paradigm is not None:
        document = swap_pronouns(document, paradigm, config)
    if options.anonymize:
        document, _ = anonymize_names(document)
    if options.neutralize_nouns:
        document = replace_nouns(document, lexicon)
    return document
