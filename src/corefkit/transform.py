"""Token-level corpus rewrites: pronoun swapping, name anonymization,
noun neutralization and pronoun delexicalization.

Every operation returns a new document with the same token grid shape
and the coreference layer untouched; only forms (and where documented,
lemmas) change. Classification of third-person singular pronouns is
driven by POS tags and morphological feats, not by surface forms, so
rewritten corpora stay classifiable.

The commands rewrite rows (``conll._Rows``) and classify each distinct
``(pos, feats)`` pair once (:class:`_ByPosFeats`), building no token, so
they never load :mod:`corefkit.model`; only the library functions that
take or build a :class:`Document` import it.
"""
from __future__ import annotations

import enum
import re
from typing import TYPE_CHECKING, Callable, TextIO

from corefkit.errors import ConfigFormatError, _value_type
from corefkit.lexicon import (RewriteLexicon, PronounParadigm,
                              builtin_noun_lexicon, transfer_case)

if TYPE_CHECKING:
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


@_value_type
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
        values: dict[str, object] = {}
        for line_number, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigFormatError(f"line {line_number}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            items = value.split()
            name = _CONFIG_FIELDS.get(key)
            if name is None:
                raise ConfigFormatError(f"line {line_number}: unknown key {key!r}")
            if not items:
                raise ConfigFormatError(f"line {line_number}: empty value for {key!r}")
            if key == "nominative.feat" and len(items) != 1:
                raise ConfigFormatError(
                    f"line {line_number}: nominative.feat takes one value")
            values[name] = items[0] if key == "nominative.feat" else frozenset(items)
        return cls(**values)


# Config file key -> ClassifierConfig field.
_CONFIG_FIELDS = {key: key.replace(".", "_") for key in (
    "personal.pos", "personal.feats", "possessive.pos", "possessive.feats",
    "nominative.feat", "third_singular.feats")}

DEFAULT_CLASSIFIER_CONFIG = ClassifierConfig()


@_value_type
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
    return _role(token.pos, feats, config)


def _role(pos: str, feats: frozenset[str],
          config: ClassifierConfig) -> PronounRole | None:
    """The role ``config`` gives a token of ``pos`` and ``feats``,
    person and number aside: possessive first, then personal, where
    ``nominative_feat`` separates subjects from objects."""
    if pos in config.possessive_pos and config.possessive_feats <= feats:
        return PronounRole.POSSESSIVE
    if pos in config.personal_pos and config.personal_feats <= feats:
        if config.nominative_feat in feats:
            return PronounRole.SUBJECT
        return PronounRole.OBJECT
    return None


class _ByPosFeats(dict):
    """A per-token decision that reads only ``pos`` and ``feats``, made
    once per distinct ``(pos, feats)`` pair.

    Index it with ``table[pos, feats]``, feats ``_`` read as empty. A
    pair seen for the first time runs ``decide`` on its :class:`_Tags`,
    which :func:`classify_pronoun` and ``stats.grammatical_function``
    read as they read a token. A document holds a handful of distinct
    pairs, so a table lives for one call and is never shared between
    calls.
    """

    __slots__ = ("decide",)

    def __init__(self, decide: Callable[[_Tags], object]):
        super().__init__()
        self.decide = decide

    def __missing__(self, key: tuple[str, str]) -> object:
        pos, feats = key
        value = self[key] = self.decide(
            _Tags(pos, "" if feats == "_" else feats))
        return value


class _Tags:
    """The two columns of a token that classification reads, ``pos`` and
    ``feats`` (empty, not ``_``), with :class:`~corefkit.model.Token`'s
    ``feat_set``: what a :class:`_ByPosFeats` decision is made on, with
    no token built."""

    __slots__ = ("pos", "feats")

    def __init__(self, pos: str, feats: str):
        self.pos = pos
        self.feats = feats

    def feat_set(self) -> frozenset[str]:
        return frozenset(self.feats.split("|")) if self.feats else frozenset()


def _role_table(config: ClassifierConfig) -> _ByPosFeats:
    """``(pos, feats)`` -> :func:`classify_pronoun`'s role under ``config``."""
    return _ByPosFeats(lambda token: classify_pronoun(token, config))


def _rewriter(config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG,
              pronoun_forms: dict[PronounRole, str] | None = None,
              delex: bool = False, anonymize: bool = False,
              lexicon: RewriteLexicon | None = None):
    """The one per-token rule behind every transform: ``rule(form, lemma,
    pos, feats, ner, names)`` gives a token's new ``(form, lemma)``. The
    enabled steps run in order, each seeing what the previous one made:

    1. with ``pronoun_forms``, a classified pronoun takes the form for its
       role: as a tag in the form alone when ``delex`` is set, otherwise
       case-transferred in the form and bare in the lemma;
    2. with ``anonymize``, a PER token becomes ``ANON_x``, ``x`` the dense
       first-occurrence index of its form in ``names``, the document's
       form -> placeholder dict so far, which is filled in;
    3. with ``lexicon``, a nominal token with an entry is neutralized.
    """
    # (pos, feats) -> the form for the pronoun's role, or None. Mapping
    # straight to the form skips ``PronounRole``'s Python-level hash.
    targets = None
    if pronoun_forms is not None:
        targets = _ByPosFeats(
            lambda token: pronoun_forms.get(classify_pronoun(token, config)))
    entries = lexicon.entries if lexicon is not None else None

    def rule(form: str, lemma: str, pos: str, feats: str, ner: str,
             names: dict[str, str]) -> tuple[str, str]:
        if targets is not None:
            target = targets[pos, feats]
            if target is not None:
                if delex:
                    form = target
                else:
                    lemma = target
                    form = transfer_case(form, target)
        if anonymize and ner == "PER":
            placeholder = names.get(form)
            if placeholder is None:
                placeholder = names[form] = f"ANON_{len(names)}"
            form = lemma = placeholder
        if entries is not None and pos in NOMINAL_POS:
            entry = entries.get(form.lower())
            if entry is not None:
                form = transfer_case(form, entry.replacement)
                lemma = form.lower()
        return form, lemma
    return rule


def _rewrite(document: Document, rule, names: dict[str, str] | None = None
             ) -> Document:
    """``document`` rewritten by ``rule`` (see :func:`_rewriter`) with
    ``names``. An unchanged sentence or document is returned as it is."""
    from dataclasses import replace

    from corefkit.model import Token

    names = {} if names is None else names
    sentences = []
    changed = False
    for sentence in document.sentences:
        rebuilt = None
        for ti, token in enumerate(sentence):
            form, lemma = rule(token.form, token.lemma, token.pos, token.feats,
                               token.ner, names)
            if form != token.form or lemma != token.lemma:
                if rebuilt is None:
                    rebuilt = list(sentence)
                rebuilt[ti] = Token(token.sentence_index, token.token_index,
                                    form, lemma, token.pos, token.feats,
                                    token.dep_head, token.dep_rel, token.ner)
        if rebuilt is None:
            sentences.append(sentence)
        else:
            sentences.append(tuple(rebuilt))
            changed = True
    if not changed:
        return document
    return replace(document, sentences=tuple(sentences))


def _rewrite_rows(document, rule) -> tuple[object, list[str]]:
    """A document's rows (``conll._Rows``) rewritten in place by ``rule``,
    and what :func:`~corefkit.model.validate_corpus` says of new values."""
    names: dict[str, str] = {}
    errors: list[str] = []
    for si, sentence in enumerate(document.sentences):
        for ti, (form, lemma, pos, feats, head, dep_rel, ner) in enumerate(
                sentence):
            new_form, new_lemma = rule(form, lemma, pos, feats, ner, names)
            if new_form != form or new_lemma != lemma:
                sentence[ti] = (new_form, new_lemma, pos, feats, head,
                                dep_rel, ner)
                # The parse left every unchanged value valid, and a
                # printable value holds no tab, line break or surrogate.
                if not (new_form and new_form.isprintable()
                        and new_lemma.isprintable()):
                    where = f"document {document.id!r}: sentence {si} token {ti}"
                    if not new_form:
                        errors.append(f"{where}: empty form")
                    from corefkit.model import _check_values

                    _check_values(errors.append, where, ("form", "lemma"),
                                  (new_form, new_lemma))
    return document, errors


def _paradigm_forms(paradigm: PronounParadigm) -> dict[PronounRole, str]:
    return {PronounRole.SUBJECT: paradigm.subject_form,
            PronounRole.OBJECT: paradigm.object_form,
            PronounRole.POSSESSIVE: paradigm.possessive_form}


def swap_pronouns(document: Document, paradigm: PronounParadigm,
                  config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG
                  ) -> Document:
    """Replace every classified pronoun with the paradigm form for its role.

    Capitalization carries over (initial capital and all-caps; mixed
    case falls back to lowercase). The lemma becomes the new lowercase
    form; feats, POS and everything else stay as they were.
    """
    return _rewrite(document, _rewriter(config, _paradigm_forms(paradigm)))


def anonymize_names(document: Document) -> tuple[Document, dict[str, int]]:
    """Replace PER-tagged tokens by ANON_x placeholders.

    ``x`` is the dense first-occurrence index of the token's original
    form within this document, matched case-sensitively, so repeats of
    one name share a placeholder. Returns the rewritten document and the
    form-to-index map. The map never carries over between documents.
    """
    names: dict[str, str] = {}
    document = _rewrite(document, _rewriter(anonymize=True), names)
    return document, {form: index for index, form in enumerate(names)}


def replace_nouns(document: Document, lexicon: RewriteLexicon | None = None
                  ) -> Document:
    """Rewrite gendered nouns using the lexicon.

    A token is rewritten when its form matches a lexicon key
    case-insensitively and its POS is nominal; requiring the POS keeps
    homographs (verb readings and the like) intact. The lemma becomes
    the lowercase replacement.
    """
    lexicon = lexicon if lexicon is not None else builtin_noun_lexicon()
    return _rewrite(document, _rewriter(lexicon=lexicon))


def delexicalize(document: Document,
                 config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG
                 ) -> Document:
    """Replace classified pronoun forms by literal role tags.

    Subjects become ``<SUBJ>``, objects ``<OBJ>`` and possessives
    ``<POSS>``, with no capitalization transfer. Lemmas and all other
    columns are untouched.
    """
    return _rewrite(document, _rewriter(config, DELEX_TAGS, delex=True))


def pronoun_specific(document: Document, paradigm: PronounParadigm | None,
                     config: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG,
                     lexicon: RewriteLexicon | None = None,
                     options: TransformOptions = TransformOptions()
                     ) -> Document:
    """The full rewrite pipeline for one target paradigm.

    Pronouns are swapped first (skipped when ``paradigm`` is None, which
    yields the baseline variant), then names are anonymized by their
    swapped forms and gendered nouns neutralized by their anonymized
    forms, according to ``options``. All three run in one pass.
    """
    return _rewrite(document, _specific(paradigm, config, lexicon, options))


def _specific(paradigm: PronounParadigm | None, config: ClassifierConfig,
              lexicon: RewriteLexicon | None, options: TransformOptions):
    """The :func:`_rewriter` of :func:`pronoun_specific`."""
    if options.neutralize_nouns and lexicon is None:
        lexicon = builtin_noun_lexicon()
    return _rewriter(config, paradigm and _paradigm_forms(paradigm),
                     anonymize=options.anonymize,
                     lexicon=lexicon if options.neutralize_nouns else None)
