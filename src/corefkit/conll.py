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

The reader has one output, each document's rows: its tokens' columns
as split. :func:`parse_corpus` builds tokens from them; the command
line writers rewrite and serialize them one document at a time; scoring
reads its views of them (:func:`_view`) and ``stats`` its token tally
(:func:`_tally`), which the library computes from a document's
:func:`_rows`, or a prediction view from its :func:`_shape`. Only the
library parse shares equal field values among its tokens.

A coref field that is one whole span of a small id, ``(N)``, is read by
a table lookup; every other field goes through the general entry rule.
The commands never load :mod:`corefkit.model`: only the library
functions that take or build its types import it.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain, starmap
from operator import itemgetter
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, TextIO

from corefkit.errors import EmptyCorpusError, ValidationError, _value_type

if TYPE_CHECKING:
    from corefkit.model import Corpus, Document

__all__ = [
    "ParseDiagnostic",
    "parse_corpus",
    "serialize_corpus",
    "strip_singletons",
]

BEGIN_PREFIX = "#begin document "
END_LINE = "#end document"

# Canonical spellings of the token indices, heads and cluster ids of
# ordinary documents; any other is read by ``_number``, written by ``str``.
_NUMERALS = tuple(map(str, range(256)))
_SMALL_NUMBERS = {numeral: n for n, numeral in enumerate(_NUMERALS)}
# A coref field that is one whole span of such an id, ``(N)``, -> N.
_WHOLE_SPAN_IDS = {f"({numeral})": n for n, numeral in enumerate(_NUMERALS)}


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


@_value_type
class ParseDiagnostic:
    """A problem found while parsing, tied to a 1-based line number."""

    line_number: int
    severity: str  # "error" or "warning"
    message: str


# A document as the reader keeps it: each token a row, ``(form, lemma,
# pos, feats, head, dep_rel, ner)``, the strings split from its line, no
# equal values shared, but ``head`` an int (0: root); each cluster ``(id,
# spans)``, spans a list of ``(sentence, start, end)`` in order. Every
# command reads documents as rows, and the library turns a
# :class:`Document` into them with :func:`_rows`.
_Rows = namedtuple("_Rows", "id sentences clusters")


def _rows(document: Document) -> _Rows:
    """The :class:`_Rows` of ``document``; a row's feats are the token's,
    so empty feats are empty, not ``_`` (every reader of rows takes
    both)."""
    return _shape(document)._replace(sentences=[
        [(t.form, t.lemma, t.pos, t.feats,
          0 if t.dep_head is None else t.dep_head + 1, t.dep_rel, t.ner)
         for t in sentence] for sentence in document.sentences])


def _shape(document: Document) -> _Rows:
    """``document``'s :class:`_Rows` as far as a prediction :func:`_view`
    reads them, the lengths of its sentences: its id, its clusters, and
    its own sentences of tokens in place of rows."""
    from corefkit.model import _span_key

    return _Rows(document.id, document.sentences, [
        (c.id, list(map(_span_key, c.mentions))) for c in document.clusters])


# What scoring reads of a document, as plain tuples of ints and strings.
# A prediction view is ``(id, sentence lengths, clusters)``, each
# cluster a tuple of its mentions' ``_span_key`` tuples in document
# order. A gold view adds a fourth item: ``(sentence, token, lowercased
# form)`` of each counted pronoun, in document order. :func:`_view`
# builds both, for ``score`` and the library alike.
_PredictionView = tuple[str, tuple[int, ...],
                        tuple[tuple[tuple[int, int, int], ...], ...]]
_GoldView = tuple[str, tuple[int, ...],
                  tuple[tuple[tuple[int, int, int], ...], ...],
                  tuple[tuple[int, int, str], ...]]

_TALLY_KEY = itemgetter(2, 3, 0)  # a row's (pos, feats, form)


def _view(rows: _Rows, roles=None) -> _PredictionView | _GoldView:
    """What scoring reads of a document's ``rows``: its prediction view,
    or its gold view given ``roles``, a ``(pos, feats)`` table like
    ``transform._role_table``, which counts each token whose role is not
    None."""
    sentences = rows.sentences
    view = (rows.id, tuple(map(len, sentences)),
            tuple([tuple(spans) for _, spans in rows.clusters]))
    if roles is None:
        return view
    return view + (tuple([
        (si, ti, row[0].lower()) for si, sentence in enumerate(sentences)
        for ti, row in enumerate(sentence)
        if roles[row[2], row[3]] is not None]),)


def _tally(documents: Iterable[_Rows]) -> Counter:
    """The tokens of ``documents``, given as rows, counted by ``(pos,
    feats, form)``, with feats as the rows hold them: ``_`` as read, or
    empty from :func:`_rows`."""
    tally: Counter = Counter()
    for rows in documents:
        tally.update(map(_TALLY_KEY, chain.from_iterable(rows.sentences)))
    return tally


class _DocumentReader:
    """Accumulates lines of one document and builds its :class:`_Rows`
    on completion."""

    def __init__(self, doc_id: str, begin_line: int,
                 diagnostics: list[ParseDiagnostic]):
        self.doc_id = doc_id
        self.begin_line = begin_line
        self.diagnostics = diagnostics
        self.broken = False
        self.sentences: list[list[tuple]] = []
        self.tokens: list[tuple] = []  # the current sentence's rows
        self.token_lines: list[int] = []
        # cluster id -> ``(sentence, start, end)`` of its mentions
        self.spans: dict[int, list[tuple[int, int, int]]] = {}
        self.open_spans: dict[int, list[tuple[int, int]]] = {}
        self.max_head = 0  # largest 1-based head of the current sentence

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
        tokens = self.tokens
        expected = len(tokens) + 1
        index = _SMALL_NUMBERS.get(index_s)
        if index is None:
            index = _number(index_s)
        if index != expected:
            self.error(line_number,
                       f"token index {index_s!r}, expected {expected}")
            return
        if not form:
            self.error(line_number, "empty form column")
            return
        head = _SMALL_NUMBERS.get(head_s)
        if head is None:
            head = _number(head_s)
            if head is None:
                self.error(line_number,
                           f"dependency head {head_s!r} is not a number")
                return
        if head > self.max_head:
            self.max_head = head
        tokens.append((form, lemma, pos, feats, head, dep_rel, ner))
        self.token_lines.append(line_number)
        if coref == "-":
            return
        cid = _WHOLE_SPAN_IDS.get(coref)
        if cid is None:
            self._coref_entries(line_number, coref, expected - 1)
            return
        span = (len(self.sentences), expected - 1, expected - 1)
        mentions = self.spans.get(cid)
        if mentions is None:
            self.spans[cid] = [span]
        else:
            mentions.append(span)

    def _coref_entries(self, line_number: int, field: str, tok: int) -> None:
        sent = len(self.sentences)
        spans = self.spans
        for entry in field.split("|"):
            # ``(id`` opens a span, ``id)`` closes one, ``(id)`` is a
            # single token; the id is a decimal numeral.
            opens = entry[:1] == "("
            closes = entry[-1:] == ")"
            digits = entry[opens:len(entry) - closes]
            cid = _SMALL_NUMBERS.get(digits)
            if cid is None:
                cid = _number(digits)
            if cid is None or not (opens or closes):
                self.error(line_number, f"malformed coreference entry {entry!r}")
                continue
            if opens and closes:
                span = (sent, tok, tok)
            elif opens:
                self.open_spans.setdefault(cid, []).append((tok, line_number))
                continue
            else:
                stack = self.open_spans.get(cid)
                if not stack:
                    self.error(line_number,
                               f"'{entry}' closes cluster {cid} that is not open")
                    continue
                start, _ = stack.pop()
                span = (sent, start, tok)
            # ``get`` first: ``setdefault`` would allocate a list per entry.
            mentions = spans.get(cid)
            if mentions is None:
                spans[cid] = [span]
            else:
                mentions.append(span)

    def end_sentence(self) -> None:
        tokens = self.tokens
        if not tokens:
            return
        size = len(tokens)
        if self.max_head > size:
            for row, line_number in zip(tokens, self.token_lines):
                head = row[4]
                if head > size:
                    self.error(line_number, f"dependency head {head} beyond "
                                            f"sentence of {size} tokens")
        if self.open_spans:
            for cid, stack in self.open_spans.items():
                for _, line_number in stack:
                    self.error(line_number,
                               f"coreference bracket '({cid}' is never closed")
            self.open_spans = {}
        self.sentences.append(tokens)
        self.tokens = []
        self.token_lines = []
        self.max_head = 0

    def finish(self, line_number: int) -> _Rows | None:
        """The document's rows, or None if broken."""
        self.end_sentence()
        clusters = []
        for cid in sorted(self.spans):
            mentions = sorted(self.spans[cid])
            for a, b in zip(mentions, mentions[1:]):
                if a == b:
                    # The span as ``MentionSpan``'s repr shows it.
                    self.error(line_number, (
                        f"cluster {cid} contains span MentionSpan("
                        f"sentence_index={a[0]}, start={a[1]}, end={a[2]}) "
                        "twice"))
            clusters.append((cid, mentions))
        if self.broken:
            return None
        return _Rows(self.doc_id, self.sentences, clusters)


def _document(doc_id: str, sentences, clusters, share) -> Document:
    """The :class:`Document` of a document's rows, its text values passed
    through ``share``, the ``setdefault`` of the parse's string table."""
    from corefkit.model import Cluster, Document, MentionSpan, Token

    return Document(doc_id, tuple([tuple([
        Token(si, ti, share(form, form), share(lemma, lemma), share(pos, pos),
              "" if feats == "_" else share(feats, feats),
              head - 1 if head else None, share(dep_rel, dep_rel),
              share(ner, ner))
        for ti, (form, lemma, pos, feats, head, dep_rel, ner)
        in enumerate(sentence)]) for si, sentence in enumerate(sentences)]),
        tuple([Cluster(cid, tuple(starmap(MentionSpan, mentions)))
               for cid, mentions in clusters]))


def parse_corpus(source: str | TextIO) -> tuple[Corpus, list[ParseDiagnostic]]:
    """Parse the corpus format from a string or text stream.

    Returns the corpus plus diagnostics for anything recovered from; a
    line with a lone surrogate, which UTF-8 cannot encode, is an error.
    Raises :class:`EmptyCorpusError` when no document parses; I/O errors
    from the stream propagate unchanged.
    """
    from corefkit.model import _SURROGATE, Corpus

    text = source.read() if hasattr(source, "read") else source
    lines = text.splitlines()
    # Strictly decoded UTF-8 has none, so a line is rarely searched.
    surrogates = {n for n, line in enumerate(lines, 1)
                  if _SURROGATE(line)} if _SURROGATE(text) else ()
    del source, text  # a text passed by nobody else can go before the parse
    diagnostics: list[ParseDiagnostic] = []
    share = {}.setdefault  # equal text values are shared among the tokens
    documents = tuple([_document(*document, share) for document in _read(
        lines, diagnostics, surrogates=surrogates)])
    if not documents:
        raise EmptyCorpusError("no parseable document in input", diagnostics)
    return Corpus(documents), diagnostics


def _read(lines: list[str], diagnostics: list[ParseDiagnostic], *,
          surrogates: Collection[int] = ()) -> Iterator[_Rows]:
    """Yield the kept documents of ``lines``, numbered from 1, each as its
    :class:`_Rows` as soon as its last line is read, and add the
    diagnostics to ``diagnostics``. A document whose id was kept earlier
    is dropped as a duplicate. ``surrogates`` holds the numbers of lines
    with a lone surrogate, which break.
    """
    kept_ids: set[str] = set()
    reader: _DocumentReader | None = None
    line_number = 0

    def kept(reader: _DocumentReader, at_line: int):
        if surrogates:  # the document's lines run up to ``at_line``
            for n in range(reader.begin_line, at_line):
                if n in surrogates:
                    reader.error(n, "line contains a lone surrogate")
        document = reader.finish(at_line)
        if document is not None and reader.doc_id in kept_ids:
            diagnostics.append(ParseDiagnostic(
                reader.begin_line, "error",
                f"duplicate document id {reader.doc_id!r}; keeping the first"))
        elif document is not None:
            kept_ids.add(reader.doc_id)
            yield document

    for line_number, line in enumerate(lines, 1):
        if reader is not None:
            # Token lines are the common case and never start with '#'.
            if line and line[0] != "#":
                reader.token_line(line_number, line)
                continue
            if not line:
                reader.end_sentence()
                continue
            begins = line.startswith(BEGIN_PREFIX)
            if not begins and line != END_LINE:
                reader.token_line(line_number, line)
                continue
            if begins:
                reader.error(line_number,
                             "new document begins before '#end document'")
            yield from kept(reader, line_number)
            reader = None
            if not begins:
                continue
        if line.startswith(BEGIN_PREFIX):
            reader = _DocumentReader(line[len(BEGIN_PREFIX):], line_number,
                                     diagnostics)
        elif line.strip():
            diagnostics.append(ParseDiagnostic(
                line_number, "error",
                f"unexpected content outside a document: {line[:40]!r}"))
    if reader is not None:
        reader.error(line_number + 1, "input ends before '#end document'")
        yield from kept(reader, line_number + 1)


def _coref_fields(clusters) -> dict[tuple[int, int], str]:
    """The canonical coref column of every annotated token of a document
    whose clusters are ``(id, span sequence)``, as in :class:`_Rows`. A
    token with several entries gets a ``(rank, cluster id)`` one per span
    it opens (rank 0), holds whole (1) or closes (2). Sorted, they give
    the canonical order: opens, then single-token spans, then closes, ids
    ascending. Same-id spans sharing a start open with equal brackets,
    which the reader's innermost-closes-first matching restores.
    """
    fields: dict[tuple[int, int], str] = {}
    put = fields.setdefault
    entries = 0
    for cid, spans in clusters:
        opens, whole, closes = f"({cid}", f"({cid})", f"{cid})"
        for si, start, end in spans:
            if start == end:
                put((si, start), whole)
                entries += 1
            else:
                put((si, start), opens)
                put((si, end), closes)
                entries += 2
    if entries == len(fields):
        return fields
    # Some token holds several entries: only such tokens are sorted.
    several: dict[tuple[int, int], list[tuple[int, int, str]]] = {}
    for cid, spans in clusters:
        brackets = f"({cid}", f"({cid})", f"{cid})"
        for si, start, end in spans:
            for ti, rank in ((start, 1),) if start == end else (
                    (start, 0), (end, 2)):
                several.setdefault((si, ti), []).append(
                    (rank, cid, brackets[rank]))
    fields.update({key: "|".join([part[2] for part in sorted(parts)])
                   for key, parts in several.items() if len(parts) > 1})
    return fields


def _document_text(doc_id: str, sentences, clusters) -> str:
    """The canonical text of a document given as :class:`_Rows` fields;
    ``sentences`` and their rows may be any iterables."""
    coref = _coref_fields(clusters).get
    numerals = _NUMERALS
    join = "\t".join
    lines = [BEGIN_PREFIX + doc_id]
    for si, sentence in enumerate(sentences):
        if si:
            lines.append("")
        for ti, (form, lemma, pos, feats, head, dep_rel, ner) in enumerate(
                sentence):
            lines.append(join((
                numerals[ti + 1] if ti < 255 else str(ti + 1), form, lemma,
                pos, feats or "_",
                numerals[head] if 0 <= head < 256 else str(head), dep_rel,
                ner, coref((si, ti), "-"))))
    lines.append(END_LINE + "\n")
    return "\n".join(lines)


def serialize_corpus(corpus: Corpus, validate: bool = True) -> str:
    """Render a corpus to its canonical byte representation.

    With ``validate`` (the default) the corpus is checked first and a
    :class:`ValidationError` is raised instead of writing broken output.
    """
    from corefkit.model import validate_corpus

    issues = validate_corpus(corpus) if validate else ()
    errors = [issue for issue in issues if issue.severity == "error"]
    if errors:
        raise ValidationError(
            f"corpus failed validation: {errors[0].message}", issues)
    return "".join([_document_text(*_rows(document))
                    for document in corpus.documents])


def strip_singletons(document: Document) -> Document:
    """Drop all size-1 clusters; ids of the survivors are kept."""
    from dataclasses import replace

    kept = tuple(c for c in document.clusters if len(c.mentions) >= 2)
    return replace(document, clusters=kept)


def _strip_rows(document: _Rows) -> tuple[_Rows, tuple]:
    """:func:`strip_singletons` of rows, with no error to report."""
    return document._replace(clusters=[
        cluster for cluster in document.clusters if len(cluster[1]) >= 2]), ()
