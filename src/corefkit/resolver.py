"""A deterministic two-sieve baseline coreference resolver.

Mention extraction is rule-based: maximal runs of name-like tokens
(NER tag PER or an ANON_x placeholder form) plus every token the
classifier recognises as a third-person singular pronoun. Sieve 1 merges
name mentions with an identical lowercased form. Sieve 2 attaches each
pronoun to the nearest name mention that ends before it and lies within
a sentence window; pronouns never anchor other mentions, so rewriting
pronoun forms does not change the predicted structure. Singletons are
dropped from the result.
"""
from __future__ import annotations

from itertools import starmap
from operator import itemgetter
from typing import TYPE_CHECKING

from corefkit.conll import _rows
from corefkit.errors import _value_type
from corefkit.transform import (ANON_FORM_RE, ClassifierConfig,
                                DEFAULT_CLASSIFIER_CONFIG, _role_table)

if TYPE_CHECKING:
    from corefkit.model import Document

__all__ = ["ResolverConfig", "resolve"]


@_value_type
class ResolverConfig:
    pronoun_window_sentences: int = 2
    enable_string_match: bool = True


def _clusters(sentences, config: ResolverConfig, roles
              ) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """The ``(id, span keys)`` clusters :func:`resolve` predicts for
    ``sentences`` of rows (``conll._Rows``); ``roles`` is a
    ``transform._role_table``."""
    # Mentions, in document order: a name is a maximal run of name-like
    # tokens (a pronoun inside one is part of the name), kept as ``((si,
    # end), group key)``. Sieve 1 merges names by key, their lowercased forms.
    names: list[tuple[tuple[int, int], object]] = []
    pronouns: list[tuple[int, int, int]] = []
    groups: dict[object, list[tuple[int, int, int]]] = {}

    def name(si: int, end: int, run: list[str]) -> None:
        key = (" ".join(run).lower() if config.enable_string_match
               else len(names))
        groups.setdefault(key, []).append((si, end + 1 - len(run), end))
        names.append(((si, end), key))

    for si, sentence in enumerate(sentences):
        run: list[str] = []  # the forms of the current name run
        for ti, (form, _, pos, feats, _, _, ner) in enumerate(sentence):
            # The prefix test spares the regex on almost every token.
            if ner == "PER" or (form.startswith("ANON_")
                                and ANON_FORM_RE.fullmatch(form)):
                run.append(form)
                continue
            if run:
                name(si, ti - 1, run)
                run = []
            if roles[pos, feats] is not None:
                pronouns.append((si, ti, ti))
        if run:
            name(si, len(sentence) - 1, run)

    # Sieve 2: each pronoun joins the nearest preceding name mention
    # within the window. Names are in (sentence, end) order and pronouns
    # in document order, so one pointer sweep keeps ``names[:preceding]``
    # as the names that end before the current pronoun.
    preceding = 0
    for pronoun in pronouns:
        si, ti, _ = pronoun
        while preceding < len(names) and names[preceding][0] < (si, ti):
            preceding += 1
        if not preceding:
            continue
        (best, _), key = names[preceding - 1]
        if best >= si - config.pronoun_window_sentences:
            groups[key].append(pronoun)

    clusters = [sorted(spans) for spans in groups.values() if len(spans) > 1]
    clusters.sort(key=itemgetter(0))
    return list(enumerate(clusters))


def resolve(document: Document,
            config: ResolverConfig = ResolverConfig(),
            classifier: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG
            ) -> Document:
    """Predict clusters for one document; gold clusters are discarded.

    Output clusters have ids 0..n-1 in order of their first mention and
    contain at least two mentions each. The procedure is a pure function
    of the token grid, so repeated runs agree byte for byte.
    """
    from dataclasses import replace

    from corefkit.model import Cluster, MentionSpan

    return replace(document, clusters=tuple(
        Cluster(cid, tuple(starmap(MentionSpan, spans)))
        for cid, spans in _clusters(_rows(document).sentences, config,
                                    _role_table(classifier))))


def _resolve_rows(document, config: ResolverConfig, roles):
    """:func:`resolve` of a document's rows (``conll._Rows``), with no
    error to report: the sieves build valid clusters (ids 0..n-1 in
    order, sorted spans inside their sentences, no span listed twice);
    ``roles`` is the ``transform._role_table`` of the run."""
    return document._replace(clusters=_clusters(
        document.sentences, config, roles)), ()
