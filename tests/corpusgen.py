"""Seeded random corpus builders shared by the test modules.

Everything here is driven by a caller-supplied ``random.Random`` so that
test runs are reproducible. Two flavours of documents are produced:
``random_document`` gives arbitrary token grids with random span
clusters (good for round-trip and transform checks), ``story_document``
gives name/pronoun narratives whose clusters track entities (good for
scoring and resolver checks). The hostile-corpus strategies pick their
documents with ``source_document`` and break them with ``damaged``.
"""
from __future__ import annotations

import random
from dataclasses import replace

from corefkit.model import Cluster, Corpus, Document, MentionSpan, Token

NAMES = ["Anna", "Bo", "Chris", "Daan", "Eva", "Finn", "Gil", "Hes"]
SURNAMES = ["Bakker", "Visser", "Smit", "Mulder"]
NOUNS = ["moeder", "vader", "vrouw", "man", "koningin", "brief", "huis",
         "vriend", "boek"]
FILLERS = [("loopt", "VERB"), ("ziet", "VERB"), ("snel", "ADV"),
           ("vandaag", "ADV"), ("en", "CCONJ"), ("de", "DET"),
           ("groot", "ADJ"), ("in", "ADP")]
# (form, pos, feats); only the first four classify as 3sg pronouns.
PRONOUNS = [
    ("hij", "PRON", "Case=Nom|Number=Sing|Person=3|PronType=Prs"),
    ("hem", "PRON", "Case=Acc|Number=Sing|Person=3|PronType=Prs"),
    ("zijn", "PRON", "Number=Sing|Person=3|Poss=Yes|PronType=Prs"),
    ("haar", "PRON", "Number=Sing|Person=3|Poss=Yes|PronType=Prs"),
    ("ze", "PRON", "Case=Nom|PronType=Prs"),
    ("jullie", "PRON", "Case=Nom|Number=Plur|Person=2|PronType=Prs"),
    ("die", "PRON", "PronType=Rel"),
    ("deze", "PRON", "PronType=Dem"),
]

# Every character ``str.splitlines`` breaks a line at. A token field or a
# document id holding one would not survive serialization.
LINE_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"
# The token columns that hold free text.
TEXT_FIELDS = ("form", "lemma", "pos", "feats", "dep_rel", "ner")


def tok(form, lemma=None, pos="X", feats="", head=None, rel="dep", ner="O"):
    """A token spec for :func:`build_doc`; position is filled in later."""
    return {"form": form, "lemma": lemma, "pos": pos, "feats": feats,
            "head": head, "rel": rel, "ner": ner}


def build_doc(doc_id, sentences, clusters=()):
    """Assemble a Document from token specs and (si, start, end) triples.

    ``clusters`` is a list of mention lists; cluster ids are assigned
    ascending in list order.
    """
    grid = tuple(
        tuple(Token(si, ti, spec["form"], spec["lemma"] or spec["form"].lower(),
                    spec["pos"], spec["feats"], spec["head"], spec["rel"],
                    spec["ner"])
              for ti, spec in enumerate(sentence))
        for si, sentence in enumerate(sentences))
    built = tuple(
        Cluster(i, tuple(sorted(MentionSpan(*m) for m in mentions)))
        for i, mentions in enumerate(clusters))
    return Document(doc_id, grid, built)


def random_token(rng: random.Random, si: int, ti: int, sentence_len: int) -> Token:
    kind = rng.random()
    ner = "O"
    feats = ""
    if kind < 0.15:
        form = rng.choice(NAMES)
        pos = "PROPN"
        ner = "PER"
    elif kind < 0.35:
        form, pos, feats = rng.choice(PRONOUNS)
    elif kind < 0.55:
        form = rng.choice(NOUNS)
        pos = "NOUN"
    else:
        form, pos = rng.choice(FILLERS)
    if rng.random() < 0.1:
        form = form.capitalize()
    if rng.random() < 0.03:
        form = form.upper()
    head = None if rng.random() < 0.3 else rng.randrange(sentence_len)
    return Token(si, ti, form, form.lower(), pos, feats, head, "dep", ner)


def random_sentence(rng: random.Random, si: int, max_tokens: int = 8) -> tuple:
    length = rng.randint(1, max_tokens)
    return tuple(random_token(rng, si, ti, length) for ti in range(length))


def _crosses(a: MentionSpan, b: MentionSpan) -> bool:
    if a.sentence_index != b.sentence_index:
        return False
    lo, hi = sorted((a, b))
    return lo.start < hi.start <= lo.end < hi.end


def random_clusters(rng: random.Random, sentences,
                    max_clusters: int = 4) -> tuple[Cluster, ...]:
    """Random clusters over distinct spans; spans never repeat, so the
    clusters are mention-disjoint. Spans may nest or cross across
    clusters, but two spans of one cluster never cross (such clusters
    have no bracket serialization)."""
    spans = set()
    for si, sentence in enumerate(sentences):
        for _ in range(rng.randint(0, 3)):
            start = rng.randrange(len(sentence))
            end = min(len(sentence) - 1, start + rng.choice((0, 0, 0, 1, 2)))
            spans.add(MentionSpan(si, start, end))
    pool = sorted(spans)
    rng.shuffle(pool)
    clusters = []
    n_clusters = rng.randint(0, max_clusters)
    for cid in range(n_clusters):
        if not pool:
            break
        size = min(len(pool), rng.randint(1, 4))
        mentions: list[MentionSpan] = []
        for _ in range(size):
            index = next((i for i, span in enumerate(pool)
                          if not any(_crosses(span, m) for m in mentions)), None)
            if index is None:
                break
            mentions.append(pool.pop(index))
        if mentions:
            clusters.append(Cluster(cid, tuple(sorted(mentions))))
    return tuple(clusters)


def random_document(rng: random.Random, doc_id: str,
                    max_sentences: int = 4, max_tokens: int = 8) -> Document:
    sentences = tuple(random_sentence(rng, si, max_tokens)
                      for si in range(rng.randint(1, max_sentences)))
    return Document(doc_id, sentences, random_clusters(rng, sentences))


def random_corpus(rng: random.Random, n_docs: int, **kwargs) -> Corpus:
    return Corpus(tuple(random_document(rng, f"doc{i}", **kwargs)
                        for i in range(n_docs)))


def story_document(rng: random.Random, doc_id: str,
                   n_sentences: int = 6, n_entities: int = 3) -> Document:
    """A name/pronoun narrative whose clusters follow entities.

    The first mention of every entity is a name; later mentions are
    names or third-person singular pronouns, so pronoun mentions always
    have at least one antecedent in their cluster.
    """
    entity_names = rng.sample(NAMES, n_entities)
    seen: set[int] = set()
    mentions: dict[int, list[MentionSpan]] = {e: [] for e in range(n_entities)}
    sentences = []
    for si in range(n_sentences):
        specs: list[Token] = []

        def add(form, pos, feats="", ner="O"):
            specs.append(Token(si, len(specs), form, form.lower(), pos,
                               feats, None, "dep", ner))

        for slot in range(rng.randint(1, 2)):
            entity = rng.randrange(n_entities)
            start = len(specs)
            if entity not in seen or rng.random() < 0.45:
                add(entity_names[entity], "PROPN", ner="PER")
                if rng.random() < 0.3:
                    add(rng.choice(SURNAMES), "PROPN", ner="PER")
                seen.add(entity)
            else:
                form, pos, feats = rng.choice(PRONOUNS[:4])
                if start == 0:
                    form = form.capitalize()
                add(form, pos, feats)
            mentions[entity].append(MentionSpan(si, start, len(specs) - 1))
            verb, pos = FILLERS[rng.randrange(2)]
            add(verb, pos)
            if rng.random() < 0.4:
                add(rng.choice(NOUNS), "NOUN")
        add(".", "PUNCT")
        sentences.append(tuple(specs))
    clusters = []
    cid = 0
    for entity in range(n_entities):
        if mentions[entity]:
            clusters.append(Cluster(cid, tuple(sorted(mentions[entity]))))
            cid += 1
    return Document(doc_id, tuple(sentences), tuple(clusters))


def perturb_clusters(rng: random.Random, document: Document,
                     drop: float = 0.25, merge: float = 0.2) -> Document:
    """A plausible 'prediction': drop mentions, sometimes merge clusters."""
    groups = [[m for m in c.mentions if rng.random() > drop]
              for c in document.clusters]
    groups = [g for g in groups if g]
    while len(groups) > 1 and rng.random() < merge:
        second = groups.pop(rng.randrange(1, len(groups)))
        groups[rng.randrange(len(groups))].extend(second)
    groups.sort(key=lambda g: min(g))
    clusters = tuple(Cluster(i, tuple(sorted(g))) for i, g in enumerate(groups))
    return Document(document.id, document.sentences, clusters)


def source_document(draw, kind: str, doc_id: str, rng: random.Random,
                    fixtures, max_sentences: int) -> Document:
    """The document of one pick of the hostile-corpus strategies, with id
    ``doc_id``: for ``kind`` "fixture" one that the Hypothesis ``draw``
    draws from the strategy ``fixtures``; for "random" a
    :func:`random_document`; for any other kind a :func:`story_document`
    of 1 to ``max_sentences`` sentences. This module imports no
    Hypothesis: the benchmark harness imports it, and a larger harness
    raises the peak RSS its commands report."""
    if kind == "fixture":
        return replace(draw(fixtures), id=doc_id)
    if kind == "random":
        return random_document(rng, doc_id)
    return story_document(rng, doc_id, rng.randint(1, max_sentences))


def damaged(lines: list[str], damage: str, rng: random.Random) -> list[str]:
    """``lines``, one document's, broken in place in a way the parser
    recovers from: "malformed" cuts the last column off one inner line
    (or fills a blank one with two columns), "stray" puts a line of
    words before the document and "unterminated" drops its end line.
    Any other ``damage`` leaves them as they are."""
    if damage == "malformed":
        at = rng.randrange(1, len(lines) - 1)
        lines[at] = lines[at].rsplit("\t", 1)[0] if lines[at] else "1\tx"
    elif damage == "stray":
        lines.insert(0, "stray words")
    elif damage == "unterminated":
        lines.pop()
    return lines


# The words of the edge corpus's sentences, cycled: (form, pos, feats, ner).
EDGE_WORDS = [
    ("Anna", "PROPN", "_", "PER"), ("ziet", "VERB", "_", "O"),
    ("hem", "PRON", "Case=Acc|Number=Sing|Person=3|PronType=Prs", "O"),
    ("en", "CCONJ", "_", "O"),
    ("haar", "PRON", "Number=Sing|Person=3|Poss=Yes|PronType=Prs", "O"),
    ("moeder", "NOUN", "_", "O"), (".", "PUNCT", "_", "O")]
# The coref column of the 300-token sentence, by token number.
EDGE_COREF = {1: "(256|(256|(300)", 3: "(1000)", 6: "256)", 8: "(300)",
              10: "(1000)", 15: "(254)", 17: "(255)", 22: "(254)",
              24: "(255)", 255: "(1000", 257: "(257)|1000)",
              299: "(300|(300)", 300: "256)|300)"}


def lenient_and_edge_texts(e2e_text: str) -> dict[str, str]:
    """Two corpora at the edges of the reader and the writer, by name.

    "lenient" is ``e2e_text`` with every token index and head spelled
    with a leading zero. "edge" holds two documents, each a 300-token
    sentence and an 8-token one: heads go above 255, and the coref
    column holds ids 254 to 257 and 1000 and several entries on one
    token, among them same-id spans sharing a start.
    """
    lenient = []
    for line in e2e_text.splitlines(keepends=True):
        fields = line.split("\t")
        if len(fields) == 9:
            fields[0], fields[5] = "0" + fields[0], "0" + fields[5]
        lenient.append("\t".join(fields))
    lines = []
    for doc_id in ("edge", "edge2"):
        lines.append(f"#begin document {doc_id}")
        for n in (300, 8):
            for i in range(1, n + 1):
                form, pos, feats, ner = EDGE_WORDS[(i - 1) % len(EDGE_WORDS)]
                coref = EDGE_COREF.get(i, "-") if n == 300 else "-"
                lines.append(f"{i}\t{form}\t{form.lower()}\t{pos}\t{feats}\t"
                             f"{i * 37 % (n + 1)}\tdep\t{ner}\t{coref}")
            lines.append("")
        lines[-1] = "#end document"
    return {"lenient": "".join(lenient), "edge": "\n".join(lines) + "\n"}
