"""The library's model of coreference-annotated corpora, and its checks.

A :class:`Document` holds a token grid plus clusters of token spans,
``(sentence_index, start, end)`` with inclusive 0-based offsets, so
nested and crossing mentions are representable. Values are immutable
and safe to share across threads. No command imports this module:
the commands read rows (``conll._Rows``) and build no grid and no span
objects. The writers' one check, :func:`_check_values` of the fields
they rewrite, is imported only when a rewritten value fails the cheap
printable test.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Iterator

__all__ = [
    "Token",
    "MentionSpan",
    "Cluster",
    "Document",
    "Corpus",
    "ValidationIssue",
    "validate_document",
    "validate_corpus",
    "map_documents",
]

# The line boundaries ``str.splitlines`` splits on. A token field holding
# one of them or a tab, or a document id holding one of them, would not
# survive serialization.
_LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
_FIELD_BREAKS = _LINE_BREAKS | {"\t"}
# A lone surrogate in either cannot be written as UTF-8. Surrogates are
# unprintable too, so only a token or id failing ``isprintable`` is searched.
_SURROGATE = re.compile("[\ud800-\udfff]").search


@dataclass(frozen=True, slots=True)
class Token:
    """One token with its morphosyntactic annotations.

    ``dep_head`` is the 0-based index of the syntactic head within the
    same sentence, or ``None`` for the root. ``feats`` is a
    pipe-separated ``key=value`` list and may be empty. ``ner`` is
    ``"O"`` when the token carries no named-entity label. Tokens from one
    parse share one string object for each equal value of ``form``,
    ``lemma``, ``pos``, ``feats``, ``dep_rel`` and ``ner``.
    """

    sentence_index: int
    token_index: int
    form: str
    lemma: str = "_"
    pos: str = "X"
    feats: str = ""
    dep_head: int | None = None
    dep_rel: str = "dep"
    ner: str = "O"

    def feat_set(self) -> frozenset[str]:
        """The feats string split into a set of ``key=value`` entries."""
        return frozenset(self.feats.split("|")) if self.feats else frozenset()


@dataclass(frozen=True, slots=True, order=True)
class MentionSpan:
    """A contiguous token span inside one sentence, ends inclusive.

    Ordering ``(sentence_index, start, end)`` is the document order used
    everywhere: an earlier start precedes, and of two spans starting at
    the same token the shorter one precedes.
    """

    sentence_index: int
    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"span start {self.start} after end {self.end}")


# The document order of spans as a sort key; cheaper than ``__lt__``.
_span_key = attrgetter("sentence_index", "start", "end")


@dataclass(frozen=True)
class Cluster:
    """A coreference entity: an id plus its mentions in document order."""

    id: int
    mentions: tuple[MentionSpan, ...]


@dataclass(frozen=True)
class Document:
    """A token grid with its coreference clusters."""

    id: str
    sentences: tuple[tuple[Token, ...], ...]
    clusters: tuple[Cluster, ...] = ()

    def tokens(self) -> Iterator[Token]:
        for sentence in self.sentences:
            yield from sentence

    def span_forms(self, span: MentionSpan) -> tuple[str, ...]:
        sentence = self.sentences[span.sentence_index]
        return tuple(t.form for t in sentence[span.start:span.end + 1])

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of documents."""

    documents: tuple[Document, ...]

    def __len__(self) -> int:
        return len(self.documents)

    def document_ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.documents)


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" or "warning"
    message: str


def validate_document(document: Document) -> list[ValidationIssue]:
    """Check the structural invariants of one document.

    Errors make the document unusable for serialization; warnings flag
    tolerated annotation noise (a span appearing in several clusters).
    """
    issues: list[ValidationIssue] = []

    def error(message: str) -> None:
        issues.append(ValidationIssue("error", f"document {document.id!r}: {message}"))

    def warning(message: str) -> None:
        issues.append(ValidationIssue("warning", f"document {document.id!r}: {message}"))

    doc_id = document.id
    if not doc_id.isprintable():
        if not _LINE_BREAKS.isdisjoint(doc_id):
            error("id contains a newline")
        if _SURROGATE(doc_id):
            error("id contains a lone surrogate")
    _check_sentences(error, document.sentences)
    _check_clusters(error, warning, [
        (c.id, list(map(_span_key, c.mentions))) for c in document.clusters],
        list(map(len, document.sentences)))
    return issues


def _check_sentences(error: Callable[[str], None],
                     sentences: tuple[tuple[Token, ...], ...]) -> None:
    """Report what in ``sentences`` would not serialize."""
    for si, sentence in enumerate(sentences):
        size = len(sentence)
        if not size:
            error(f"sentence {si} is empty")
        for ti, token in enumerate(sentence):
            head = token.dep_head
            # Every character in _FIELD_BREAKS is unprintable, so a
            # token passing this test is clean; the rest are checked in full.
            if (token.sentence_index == si and token.token_index == ti
                    and token.form and token.feats != "_"
                    and (head is None or 0 <= head < size)
                    and token.form.isprintable() and token.lemma.isprintable()
                    and token.pos.isprintable() and token.feats.isprintable()
                    and token.dep_rel.isprintable() and token.ner.isprintable()):
                continue
            where = f"sentence {si} token {ti}"
            if token.sentence_index != si or token.token_index != ti:
                error(f"{where}: stored position "
                      f"({token.sentence_index}, {token.token_index}) disagrees with the grid")
            if not token.form:
                error(f"{where}: empty form")
            if token.feats == "_":
                error(f"{where}: feats is the literal '_', use an empty string")
            _check_values(error, where, _TEXT_FIELDS,
                          [getattr(token, name) for name in _TEXT_FIELDS])
            if head is not None and not 0 <= head < size:
                error(f"{where}: dep head {head} out of range")


_TEXT_FIELDS = ("form", "lemma", "pos", "feats", "dep_rel", "ner")


def _check_values(error: Callable[[str], None], where: str, names, values
                  ) -> None:
    """Report each of the text ``values`` of the token at ``where``, the
    fields ``names``, that holds a tab, a line break or a lone surrogate."""
    for name, value in zip(names, values):
        if not _FIELD_BREAKS.isdisjoint(value):
            error(f"{where}: {name} contains a tab or newline")
        if _SURROGATE(value):
            error(f"{where}: {name} contains a lone surrogate")


def _check_clusters(error: Callable[[str], None],
                    warning: Callable[[str], None], clusters, sizes) -> None:
    """Report the broken clusters, ``(id, spans)`` with each span a
    ``_span_key``, of a document whose sentences hold ``sizes`` tokens;
    a message shows a span as its :class:`MentionSpan`."""
    ids = [cid for cid, _ in clusters]
    if len(set(ids)) != len(ids):
        error("duplicate cluster ids")
    # The parser returns clusters sorted by id, so any other order would
    # not parse back to the same document.
    if any(a > b for a, b in zip(ids, ids[1:])):
        error("clusters out of id order")
    span_owner: dict[tuple[int, int, int], int] = {}
    for cid, spans in clusters:
        if cid < 0:
            error(f"cluster id {cid} is negative")
        if not spans:
            error(f"cluster {cid} has no mentions")
        previous = None  # the last span checked
        for key in spans:
            si, _, end = key
            if not 0 <= si < len(sizes):
                error(f"cluster {cid}: span {MentionSpan(*key)} outside the document")
                continue
            if end >= sizes[si]:
                error(f"cluster {cid}: span {MentionSpan(*key)} outside its sentence")
                continue
            if previous is not None:
                if key == previous:
                    error(f"cluster {cid}: span {MentionSpan(*key)} listed twice")
                elif key < previous:
                    error(f"cluster {cid}: mentions out of document order")
            previous = key
            owner = span_owner.setdefault(key, cid)
            if owner != cid:
                warning(f"span {MentionSpan(*key)} appears in clusters {owner} "
                        f"and {cid}")
        # Two spans of one cluster may nest but not cross: the bracket
        # serialization cannot distinguish crossing same-id spans from
        # the nested reading. The parser never returns such spans, so the
        # pairs are listed only for a cluster that fails the linear test.
        if len(spans) > 1 and not _nested(spans):
            for i, j in _crossing_pairs(spans):
                error(f"cluster {cid}: spans {MentionSpan(*spans[i])} and "
                      f"{MentionSpan(*spans[j])} cross")


def _nested(spans) -> bool:
    """Whether no two of ``spans`` (keys) cross, in O(m log m) for m spans.

    Sorted by ``(sentence, start, -end)``, each span must end within the
    innermost span of its sentence still open at its start, or open none.
    """
    ends: list[int] = []  # the open spans' ends, innermost last
    sentence = None
    for si, start, neg_end in sorted([(si, start, -end)
                                      for si, start, end in spans]):
        if si != sentence:
            sentence = si
            ends.clear()
        while ends and ends[-1] < start:
            ends.pop()
        if ends and ends[-1] < -neg_end:
            return False
        ends.append(-neg_end)
    return True


def _crossing_pairs(spans) -> list[tuple[int, int]]:
    """The ``(i, j)`` index pairs, ``i < j``, whose spans (keys) are in
    one sentence and cross with ``spans[i]`` starting first, sorted; every
    pair is tested, so call it only once :func:`_nested` fails."""
    by_sentence: dict[int, list[int]] = {}
    for i, (si, _, _) in enumerate(spans):
        by_sentence.setdefault(si, []).append(i)
    crossings = []
    for indices in by_sentence.values():
        for x, i in enumerate(indices):
            _, a_start, a_end = spans[i]
            for j in indices[x + 1:]:
                if a_start < spans[j][1] <= a_end < spans[j][2]:
                    crossings.append((i, j))
    return sorted(crossings)


def validate_corpus(corpus: Corpus) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    seen: set[str] = set()
    for document in corpus.documents:
        if document.id in seen:
            issues.append(ValidationIssue(
                "error", f"duplicate document id {document.id!r}"))
        seen.add(document.id)
        issues.extend(validate_document(document))
    return issues


def map_documents(corpus: Corpus,
                  fn: Callable[[Document], Document]) -> Corpus:
    """Apply ``fn`` to every document, in order, in the calling thread."""
    return replace(corpus, documents=tuple(map(fn, corpus.documents)))
