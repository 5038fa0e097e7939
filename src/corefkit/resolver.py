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

from dataclasses import dataclass, replace

from corefkit.model import Cluster, Document, MentionSpan, _span, _span_key
from corefkit.transform import (ANON_FORM_RE, ClassifierConfig,
                                DEFAULT_CLASSIFIER_CONFIG, _role_table)

__all__ = ["ResolverConfig", "resolve"]


@dataclass(frozen=True)
class ResolverConfig:
    pronoun_window_sentences: int = 2
    enable_string_match: bool = True


def _mentions(document: Document, classifier: ClassifierConfig
              ) -> tuple[list[MentionSpan], list[MentionSpan]]:
    """Name and pronoun mentions, each list in document order.

    A name mention is a maximal run of name-like tokens; a pronoun inside
    one is part of the name, not a mention of its own.
    """
    roles = _role_table(classifier)
    names = []
    pronouns = []
    for si, sentence in enumerate(document.sentences):
        start = None
        for ti, token in enumerate(sentence):
            form = token.form
            # The prefix test spares the regex on almost every token.
            if token.ner == "PER" or (form.startswith("ANON_")
                                      and ANON_FORM_RE.fullmatch(form)):
                if start is None:
                    start = ti
                continue
            if start is not None:
                names.append(_span(si, start, ti - 1))
                start = None
            if roles[token.pos, token.feats] is not None:
                pronouns.append(_span(si, ti, ti))
        if start is not None:
            names.append(_span(si, start, len(sentence) - 1))
    return names, pronouns


def resolve(document: Document,
            config: ResolverConfig = ResolverConfig(),
            classifier: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG
            ) -> Document:
    """Predict clusters for one document; gold clusters are discarded.

    Output clusters have ids 0..n-1 in order of their first mention and
    contain at least two mentions each. The procedure is a pure function
    of the token grid, so repeated runs agree byte for byte.
    """
    names, pronouns = _mentions(document, classifier)

    # Sieve 1: exact-match merging of name mentions. ``group_of[i]`` is
    # the group key of ``names[i]``.
    groups: dict[object, list[MentionSpan]] = {}
    group_of: list[object] = []
    for i, span in enumerate(names):
        if config.enable_string_match:
            key: object = " ".join(document.span_forms(span)).lower()
        else:
            key = i
        groups.setdefault(key, []).append(span)
        group_of.append(key)

    # Sieve 2: each pronoun joins the nearest preceding name mention
    # within the window. Names are in (sentence, end) order and pronouns
    # in document order, so one pointer sweep keeps ``names[:preceding]``
    # as the names that end before the current pronoun.
    preceding = 0
    for pronoun in pronouns:
        while (preceding < len(names)
               and (names[preceding].sentence_index, names[preceding].end)
               < (pronoun.sentence_index, pronoun.start)):
            preceding += 1
        if not preceding:
            continue
        best = names[preceding - 1]
        if best.sentence_index >= pronoun.sentence_index - config.pronoun_window_sentences:
            groups[group_of[preceding - 1]].append(pronoun)

    clusters = []
    for spans in groups.values():
        if len(spans) < 2:
            continue
        clusters.append(sorted(spans, key=_span_key))
    clusters.sort(key=lambda spans: _span_key(spans[0]))
    predicted = tuple(Cluster(i, tuple(spans))
                      for i, spans in enumerate(clusters))
    return replace(document, clusters=predicted)
