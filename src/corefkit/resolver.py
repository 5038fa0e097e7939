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

from corefkit.model import Cluster, Document, MentionSpan
from corefkit.transform import (ANON_FORM_RE, ClassifierConfig,
                                DEFAULT_CLASSIFIER_CONFIG, classify_pronoun)

__all__ = ["ResolverConfig", "resolve"]


@dataclass(frozen=True)
class ResolverConfig:
    pronoun_window_sentences: int = 2
    enable_string_match: bool = True


def _name_mentions(document: Document) -> list[MentionSpan]:
    mentions = []
    for si, sentence in enumerate(document.sentences):
        start = None
        for ti, token in enumerate(sentence):
            name_like = token.ner == "PER" or ANON_FORM_RE.fullmatch(token.form)
            if name_like and start is None:
                start = ti
            elif not name_like and start is not None:
                mentions.append(MentionSpan(si, start, ti - 1))
                start = None
        if start is not None:
            mentions.append(MentionSpan(si, start, len(sentence) - 1))
    return mentions


def resolve(document: Document,
            config: ResolverConfig = ResolverConfig(),
            classifier: ClassifierConfig = DEFAULT_CLASSIFIER_CONFIG
            ) -> Document:
    """Predict clusters for one document; gold clusters are discarded.

    Output clusters have ids 0..n-1 in order of their first mention and
    contain at least two mentions each. The procedure is a pure function
    of the token grid, so repeated runs agree byte for byte.
    """
    names = _name_mentions(document)
    covered = {(span.sentence_index, ti)
               for span in names for ti in range(span.start, span.end + 1)}
    pronouns = [
        MentionSpan(token.sentence_index, token.token_index, token.token_index)
        for token in document.tokens()
        if (token.sentence_index, token.token_index) not in covered
        and classify_pronoun(token, classifier) is not None
    ]

    # Sieve 1: exact-match merging of name mentions.
    groups: dict[object, list[MentionSpan]] = {}
    group_of: dict[MentionSpan, object] = {}
    for span in names:
        if config.enable_string_match:
            key: object = " ".join(document.span_forms(span)).lower()
        else:
            key = span
        groups.setdefault(key, []).append(span)
        group_of[span] = key

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
            groups[group_of[best]].append(pronoun)

    clusters = []
    for spans in groups.values():
        if len(spans) < 2:
            continue
        clusters.append(sorted(spans))
    clusters.sort(key=lambda spans: spans[0])
    predicted = tuple(Cluster(i, tuple(spans))
                      for i, spans in enumerate(clusters))
    return replace(document, clusters=predicted)
