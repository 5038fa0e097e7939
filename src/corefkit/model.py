"""In-memory model for coreference-annotated corpora.

A :class:`Document` holds a token grid (sentences of tokens) plus
coreference clusters of token spans. Spans are addressed as
``(sentence_index, start, end)`` with inclusive 0-based token offsets,
so nested and crossing mentions are representable. All values are
immutable after construction and safe to share across threads.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from corefkit.errors import ValidationError

__all__ = [
    "Token",
    "MentionSpan",
    "Cluster",
    "Document",
    "Corpus",
    "ValidationIssue",
    "antecedents",
    "mention_containing",
    "validate_document",
    "validate_corpus",
    "check_valid",
    "map_documents",
]


@dataclass(frozen=True, slots=True)
class Token:
    """One token with its morphosyntactic annotations.

    ``dep_head`` is the 0-based index of the syntactic head within the
    same sentence, or ``None`` for the root. ``feats`` is a
    pipe-separated ``key=value`` list and may be empty. ``ner`` is
    ``"O"`` when the token carries no named-entity label.
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

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class Cluster:
    """A coreference entity: an id plus its mentions in document order."""

    id: int
    mentions: tuple[MentionSpan, ...]

    @classmethod
    def sorted(cls, id: int, mentions) -> "Cluster":
        return cls(id, tuple(sorted(mentions)))


@dataclass(frozen=True)
class Document:
    """A token grid with its coreference clusters."""

    id: str
    sentences: tuple[tuple[Token, ...], ...]
    clusters: tuple[Cluster, ...] = ()

    def tokens(self) -> Iterator[Token]:
        for sentence in self.sentences:
            yield from sentence

    def token_at(self, sentence_index: int, token_index: int) -> Token:
        return self.sentences[sentence_index][token_index]

    def span_forms(self, span: MentionSpan) -> tuple[str, ...]:
        sentence = self.sentences[span.sentence_index]
        return tuple(t.form for t in sentence[span.start:span.end + 1])

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of documents, optionally labelled by split."""

    documents: tuple[Document, ...]
    split_label: str | None = None

    def __len__(self) -> int:
        return len(self.documents)

    def document_ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.documents)


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" or "warning"
    message: str


def antecedents(cluster: Cluster, of: MentionSpan) -> tuple[MentionSpan, ...]:
    """All mentions of ``cluster`` strictly before ``of`` in document order.

    Raises ValueError when ``of`` is not a mention of the cluster.
    """
    try:
        index = cluster.mentions.index(of)
    except ValueError:
        raise ValueError(
            f"span {of} is not a mention of cluster {cluster.id}") from None
    return cluster.mentions[:index]


def mention_containing(document: Document, sentence_index: int,
                       token_index: int) -> list[tuple[int, MentionSpan]]:
    """All ``(cluster_id, span)`` pairs covering the given token.

    Results are ordered innermost first (shortest span first, then by
    start offset, then by cluster id). Raises IndexError for coordinates
    outside the token grid.
    """
    if not 0 <= sentence_index < len(document.sentences):
        raise IndexError(f"sentence index {sentence_index} out of range")
    if not 0 <= token_index < len(document.sentences[sentence_index]):
        raise IndexError(f"token index {token_index} out of range")
    hits = [
        (cluster.id, span)
        for cluster in document.clusters
        for span in cluster.mentions
        if span.sentence_index == sentence_index
        and span.start <= token_index <= span.end
    ]
    hits.sort(key=lambda hit: (hit[1].length, hit[1].start, hit[0]))
    return hits


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

    for si, sentence in enumerate(document.sentences):
        for ti, token in enumerate(sentence):
            where = f"sentence {si} token {ti}"
            if token.sentence_index != si or token.token_index != ti:
                error(f"{where}: stored position "
                      f"({token.sentence_index}, {token.token_index}) disagrees with the grid")
            if not token.form:
                error(f"{where}: empty form")
            if token.feats == "_":
                error(f"{where}: feats is the literal '_', use an empty string")
            for name in ("form", "lemma", "pos", "feats", "dep_rel", "ner"):
                value = getattr(token, name)
                if "\t" in value or "\n" in value:
                    error(f"{where}: {name} contains a tab or newline")
            if token.dep_head is not None and not 0 <= token.dep_head < len(sentence):
                error(f"{where}: dep head {token.dep_head} out of range")

    ids = [c.id for c in document.clusters]
    if len(set(ids)) != len(ids):
        error("duplicate cluster ids")
    span_owner: dict[MentionSpan, int] = {}
    for cluster in document.clusters:
        if cluster.id < 0:
            error(f"cluster id {cluster.id} is negative")
        if not cluster.mentions:
            error(f"cluster {cluster.id} has no mentions")
        previous = None
        for span in cluster.mentions:
            if not 0 <= span.sentence_index < len(document.sentences):
                error(f"cluster {cluster.id}: span {span} outside the document")
                continue
            sentence = document.sentences[span.sentence_index]
            if span.end >= len(sentence):
                error(f"cluster {cluster.id}: span {span} outside its sentence")
                continue
            if previous is not None:
                if span == previous:
                    error(f"cluster {cluster.id}: span {span} listed twice")
                elif span < previous:
                    error(f"cluster {cluster.id}: mentions out of document order")
            previous = span
            owner = span_owner.setdefault(span, cluster.id)
            if owner != cluster.id:
                warning(f"span {span} appears in clusters {owner} and {cluster.id}")
        # Two spans of one cluster may nest but not cross: the bracket
        # serialization cannot distinguish crossing same-id spans from
        # the nested reading. Only spans of one sentence can cross, so
        # pairs are formed per sentence and reported in mention order.
        spans = cluster.mentions
        by_sentence: dict[int, list[int]] = {}
        for i, span in enumerate(spans):
            by_sentence.setdefault(span.sentence_index, []).append(i)
        crossings = []
        for indices in by_sentence.values():
            for x, i in enumerate(indices):
                a = spans[i]
                for j in indices[x + 1:]:
                    if a.start < spans[j].start <= a.end < spans[j].end:
                        crossings.append((i, j))
        for i, j in sorted(crossings):
            error(f"cluster {cluster.id}: spans {spans[i]} and {spans[j]} cross")
    return issues


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


def check_valid(corpus: Corpus) -> None:
    """Raise :class:`ValidationError` if the corpus has any error issue."""
    issues = validate_corpus(corpus)
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        head = "; ".join(i.message for i in errors[:3])
        raise ValidationError(
            f"{len(errors)} validation error(s): {head}", issues)


def map_documents(corpus: Corpus, fn: Callable[[Document], Document],
                  jobs: int = 1) -> Corpus:
    """Apply ``fn`` to every document, optionally on a thread pool.

    Output order matches input order regardless of ``jobs``, so results
    are identical for any worker count.
    """
    if jobs <= 1:
        documents = tuple(fn(d) for d in corpus.documents)
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            documents = tuple(pool.map(fn, corpus.documents))
    return replace(corpus, documents=documents)
