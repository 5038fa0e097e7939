"""Reading and writing the 9-column tab-separated corpus format.

Layout::

    #begin document <id>
    1<TAB>form<TAB>lemma<TAB>pos<TAB>feats<TAB>head<TAB>rel<TAB>ner<TAB>coref
    ...
    <blank line between sentences>
    ...
    #end document

Column 1 is the 1-based token index within its sentence. ``feats`` is
``_`` when empty. ``head`` is 1-based with 0 for the root. ``ner`` is
``O`` when absent. The coref column is ``-`` or a ``|``-joined list of
``(id`` (span opens), ``id)`` (span closes) and ``(id)`` (single-token
span); the canonical entry order is opens, then single-token spans, then
closes, ids ascending. Spans never cross sentence boundaries. Brackets
of one cluster pair innermost-first, so two spans of the same cluster
may nest but must not cross (crossing spans of different clusters are
fine; their ids disambiguate).

Parsing recovers per document: a malformed document is dropped with
diagnostics and the rest of the corpus still loads. Serialization
produces canonical bytes, so ``serialize -> parse`` is the identity and
``parse -> serialize`` canonicalises lenient input.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import TextIO

from corefkit.errors import EmptyCorpusError, ValidationError
from corefkit.model import (Cluster, Corpus, Document, MentionSpan, Token,
                            validate_corpus)

__all__ = [
    "ParseDiagnostic",
    "parse_corpus",
    "serialize_corpus",
    "strip_singletons",
]

BEGIN_PREFIX = "#begin document "
END_LINE = "#end document"

# ``(id`` opens a span, ``id)`` closes one, ``(id)`` is a single token.
_ENTRY_RE = re.compile(r"(\()?(\d+)(\))?")


def _number(text: str) -> int | None:
    """The value of a decimal numeral, or None for anything else.

    Numerals longer than the interpreter converts (``int`` raises
    ``ValueError`` beyond ``sys.get_int_max_str_digits()``) count as
    anything else, so the caller reports them like any bad field.
    """
    if not text.isdecimal():
        return None
    try:
        return int(text)
    except ValueError:
        return None


@dataclass(frozen=True)
class ParseDiagnostic:
    """A problem found while parsing, tied to a 1-based line number."""

    line_number: int
    severity: str  # "error" or "warning"
    message: str


class _DocumentReader:
    """Accumulates lines of one document and builds it on completion."""

    def __init__(self, doc_id: str, begin_line: int,
                 diagnostics: list[ParseDiagnostic]):
        self.doc_id = doc_id
        self.begin_line = begin_line
        self.diagnostics = diagnostics
        self.broken = False
        self.sentences: list[tuple[Token, ...]] = []
        self.tokens: list[Token] = []
        self.token_lines: list[int] = []
        self.spans: dict[int, list[MentionSpan]] = {}
        self.open_spans: dict[int, list[tuple[int, int]]] = {}

    def error(self, line_number: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(
            line_number, "error", f"document {self.doc_id!r}: {message}"))
        self.broken = True

    def token_line(self, line_number: int, line: str) -> None:
        columns = line.split("\t")
        if len(columns) != 9:
            self.error(line_number,
                       f"expected 9 tab-separated columns, found {len(columns)}")
            return
        index_s, form, lemma, pos, feats, head_s, dep_rel, ner, coref = columns
        expected = len(self.tokens) + 1
        if _number(index_s) != expected:
            self.error(line_number,
                       f"token index {index_s!r}, expected {expected}")
            return
        if not form:
            self.error(line_number, "empty form column")
            return
        head = _number(head_s)
        if head is None:
            self.error(line_number, f"dependency head {head_s!r} is not a number")
            return
        token = Token(
            sentence_index=len(self.sentences),
            token_index=len(self.tokens),
            form=form,
            lemma=lemma,
            pos=pos,
            feats="" if feats == "_" else feats,
            dep_head=None if head == 0 else head - 1,
            dep_rel=dep_rel,
            ner=ner,
        )
        self.tokens.append(token)
        self.token_lines.append(line_number)
        if coref != "-":
            self._coref_entries(line_number, coref, token.token_index)

    def _coref_entries(self, line_number: int, field: str, tok: int) -> None:
        sent = len(self.sentences)
        for entry in field.split("|"):
            match = _ENTRY_RE.fullmatch(entry)
            cid = _number(match.group(2)) if match else None
            if cid is None or not (match.group(1) or match.group(3)):
                self.error(line_number, f"malformed coreference entry {entry!r}")
                continue
            if match.group(1) and match.group(3):
                self.spans.setdefault(cid, []).append(MentionSpan(sent, tok, tok))
            elif match.group(1):
                self.open_spans.setdefault(cid, []).append((tok, line_number))
            else:
                stack = self.open_spans.get(cid)
                if not stack:
                    self.error(line_number,
                               f"'{entry}' closes cluster {cid} that is not open")
                    continue
                start, _ = stack.pop()
                self.spans.setdefault(cid, []).append(MentionSpan(sent, start, tok))

    def end_sentence(self) -> None:
        if not self.tokens:
            return
        size = len(self.tokens)
        for token, line_number in zip(self.tokens, self.token_lines):
            if token.dep_head is not None and token.dep_head >= size:
                self.error(line_number,
                           f"dependency head {token.dep_head + 1} beyond sentence "
                           f"of {size} tokens")
        for cid, stack in self.open_spans.items():
            for _, line_number in stack:
                self.error(line_number,
                           f"coreference bracket '({cid}' is never closed")
        self.open_spans = {}
        self.sentences.append(tuple(self.tokens))
        self.tokens = []
        self.token_lines = []

    def finish(self, line_number: int) -> Document | None:
        self.end_sentence()
        clusters = []
        for cid in sorted(self.spans):
            mentions = sorted(self.spans[cid])
            for a, b in zip(mentions, mentions[1:]):
                if a == b:
                    self.error(line_number,
                               f"cluster {cid} contains span {a} twice")
            clusters.append(Cluster(cid, tuple(mentions)))
        if self.broken:
            return None
        return Document(self.doc_id, tuple(self.sentences), tuple(clusters))


def parse_corpus(source: str | TextIO) -> tuple[Corpus, list[ParseDiagnostic]]:
    """Parse the corpus format from a string or text stream.

    Returns the corpus plus diagnostics for anything recovered from.
    Raises :class:`EmptyCorpusError` when no document parses; I/O errors
    from the stream propagate unchanged.
    """
    text = source.read() if hasattr(source, "read") else source
    diagnostics: list[ParseDiagnostic] = []
    documents: list[Document] = []
    seen_ids: set[str] = set()
    reader: _DocumentReader | None = None
    line_number = 0

    def finish(at_line: int) -> None:
        nonlocal reader
        if reader is None:
            return
        document = reader.finish(at_line)
        if document is not None:
            if document.id in seen_ids:
                diagnostics.append(ParseDiagnostic(
                    reader.begin_line, "error",
                    f"duplicate document id {document.id!r}; keeping the first"))
            else:
                seen_ids.add(document.id)
                documents.append(document)
        reader = None

    for line_number, line in enumerate(text.splitlines(), 1):
        if reader is None:
            if not line.strip():
                continue
            if line.startswith(BEGIN_PREFIX):
                reader = _DocumentReader(line[len(BEGIN_PREFIX):], line_number,
                                         diagnostics)
            else:
                diagnostics.append(ParseDiagnostic(
                    line_number, "error",
                    f"unexpected content outside a document: {line[:40]!r}"))
            continue
        if line == END_LINE:
            finish(line_number)
        elif line.startswith(BEGIN_PREFIX):
            reader.error(line_number, "new document begins before '#end document'")
            finish(line_number)
            reader = _DocumentReader(line[len(BEGIN_PREFIX):], line_number,
                                     diagnostics)
        elif not line:
            reader.end_sentence()
        else:
            reader.token_line(line_number, line)
    if reader is not None:
        reader.error(line_number + 1, "input ends before '#end document'")
        finish(line_number + 1)

    if not documents:
        raise EmptyCorpusError("no parseable document in input", diagnostics)
    return Corpus(tuple(documents)), diagnostics


def _coref_fields(document: Document) -> dict[tuple[int, int], str]:
    """Compute the canonical coref column for every annotated token."""
    opens: dict[tuple[int, int], list[tuple[int, int]]] = {}
    singles: dict[tuple[int, int], list[int]] = {}
    closes: dict[tuple[int, int], list[int]] = {}
    for cluster in document.clusters:
        for span in cluster.mentions:
            if span.start == span.end:
                singles.setdefault((span.sentence_index, span.start),
                                   []).append(cluster.id)
            else:
                opens.setdefault((span.sentence_index, span.start),
                                 []).append((cluster.id, span.end))
                closes.setdefault((span.sentence_index, span.end),
                                  []).append(cluster.id)
    fields: dict[tuple[int, int], str] = {}
    for key in opens.keys() | singles.keys() | closes.keys():
        parts = []
        # Same-id spans sharing a start must open longest first so that
        # the reader's innermost-closes-first matching restores them.
        for cid, _ in sorted(opens.get(key, ()), key=lambda p: (p[0], -p[1])):
            parts.append(f"({cid}")
        for cid in sorted(singles.get(key, ())):
            parts.append(f"({cid})")
        for cid in sorted(closes.get(key, ())):
            parts.append(f"{cid})")
        fields[key] = "|".join(parts)
    return fields


def serialize_corpus(corpus: Corpus, validate: bool = True) -> str:
    """Render a corpus to its canonical byte representation.

    With ``validate`` (the default) the corpus is checked first and a
    :class:`ValidationError` is raised instead of writing broken output.
    """
    if validate:
        issues = validate_corpus(corpus)
        errors = [i for i in issues if i.severity == "error"]
        if errors:
            raise ValidationError(
                f"corpus failed validation: {errors[0].message}", issues)
    lines: list[str] = []
    for document in corpus.documents:
        lines.append(f"{BEGIN_PREFIX}{document.id}")
        fields = _coref_fields(document)
        for si, sentence in enumerate(document.sentences):
            if si:
                lines.append("")
            for ti, token in enumerate(sentence):
                head = 0 if token.dep_head is None else token.dep_head + 1
                lines.append("\t".join((
                    str(ti + 1),
                    token.form,
                    token.lemma,
                    token.pos,
                    token.feats or "_",
                    str(head),
                    token.dep_rel,
                    token.ner,
                    fields.get((si, ti), "-"),
                )))
        lines.append(END_LINE)
    return "\n".join(lines) + "\n" if lines else ""


def strip_singletons(document: Document) -> Document:
    """Drop all size-1 clusters; ids of the survivors are kept."""
    kept = tuple(c for c in document.clusters if len(c.mentions) >= 2)
    return replace(document, clusters=kept)
