"""``score`` parses ``--gold``, then ``--pred``, and keeps of each kept
document's rows only the view that scoring reads, with no token grid.
It must report exactly what ``reference`` reports. The row
kernels behind it and ``stats``, ``conll._view`` and ``conll._tally``,
must give what references built from a :class:`Document`'s tokens give.
"""
import random
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
from conftest import (FIXTURE_DOCUMENTS, FIXTURES, assert_no_child_left,
                      lines_of, run)
from reference import reference
from test_jobs import LENIENT_AND_EDGE, corpus_texts
from test_metrics import lea_oracle, naive_pronoun_oracle, random_pair
from corefkit import cli
from corefkit.conll import (_read, _rows, _tally, _view, parse_corpus,
                            serialize_corpus)
from corefkit.errors import EmptyCorpusError
from corefkit.metrics import _evaluate_views, evaluate
from corefkit.model import Cluster, Corpus, Document, MentionSpan, Token
from corefkit.resolver import resolve
from corefkit.transform import ClassifierConfig, _role_table

GOLD = str(FIXTURES / "dialogue_gold.conll")
PRED = str(FIXTURES / "dialogue_pred.conll")
HERSTEL = str(FIXTURES / "herstel.conll")
CONFIGS = {"good": "third_singular.feats = PronType=Prs\n", "bad": "nonsense\n"}
# The lenient and edge corpora, each with its baseline resolution.
RESOLVED = {name: (text, serialize_corpus(Corpus(tuple(
    map(resolve, parse_corpus(text)[0].documents)))))
    for name, text in LENIENT_AND_EDGE.items()}


# --- references built from documents ---------------------------------------

def reference_view(document, roles=None):
    """What scoring reads of ``document``, from its tokens: its prediction
    view, or its gold view given ``roles``."""
    view = (document.id, tuple(map(len, document.sentences)),
            tuple(tuple((m.sentence_index, m.start, m.end) for m in c.mentions)
                  for c in document.clusters))
    if roles is None:
        return view
    return view + (tuple(
        (token.sentence_index, token.token_index, token.form.lower())
        for sentence in document.sentences for token in sentence
        if roles[token.pos, token.feats] is not None),)


def reference_tally(documents):
    """The tokens of ``documents`` counted by ``(pos, feats, form)``, with
    empty feats as a :class:`Token` holds them."""
    tally = {}
    for document in documents:
        for sentence in document.sentences:
            for token in sentence:
                key = token.pos, token.feats, token.form
                tally[key] = tally.get(key, 0) + 1
    return tally


PRS = "Number=Sing|Person=3|PronType=Prs"


def edge_documents():
    """Documents that only the library hands over: one with an empty
    sentence, which ``evaluate`` accepts, and one with a 300-token
    sentence, a counted pronoun at each end."""
    def token(si, ti, form, pos="X", feats="", ner="O"):
        return Token(si, ti, form, form.lower(), pos, feats, None, "dep", ner)

    gapped = Document("gapped", (
        (token(0, 0, "Anna", "PROPN", ner="PER"), token(0, 1, "ziet"),
         token(0, 2, "hem", "PRON", "Case=Acc|" + PRS)),
        (),
        (token(2, 0, "Zij", "PRON", "Case=Nom|" + PRS), token(2, 1, "lacht"),
         token(2, 2, "haar", "PRON", "Poss=Yes|" + PRS))),
        (Cluster(0, (MentionSpan(0, 0, 0), MentionSpan(2, 0, 0))),
         Cluster(1, (MentionSpan(0, 2, 2), MentionSpan(2, 2, 2)))))
    long = Document("long", ((
        token(0, 0, "Hij", "PRON", "Case=Nom|" + PRS),
        *(token(0, ti, "woord", feats="_" if ti % 2 else "")
          for ti in range(1, 299)),
        token(0, 299, "HEM", "PRON", "Case=Acc|" + PRS)),),
        (Cluster(300, (MentionSpan(0, 0, 0), MentionSpan(0, 1, 298),
                       MentionSpan(0, 299, 299))),))
    return [gapped, long]


def drawn_documents(rng, kind):
    if kind == "edge":
        return edge_documents()
    make = (corpusgen.story_document if kind == "story"
            else corpusgen.random_document)
    return [make(rng, f"{kind}{i}") for i in range(rng.randint(1, 3))]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16),
       kind=st.sampled_from(["story", "random", "edge"]),
       config=st.sampled_from(["default", "good"]))
def test_the_row_kernels_give_what_the_document_references_give(seed, kind,
                                                                config):
    config = (ClassifierConfig() if config == "default"
              else ClassifierConfig.from_text(CONFIGS[config]))
    documents = drawn_documents(random.Random(seed), kind)
    for roles in (None, _role_table(config)):
        for document in documents:
            assert _view(_rows(document), roles) == reference_view(document,
                                                                   roles)
    assert dict(_tally(map(_rows, documents))) == reference_tally(documents)


def test_the_edge_documents_count_pronouns_at_both_ends():
    gapped, long = edge_documents()
    roles = _role_table(ClassifierConfig())
    assert _view(_rows(gapped), roles)[1:] == (
        (3, 0, 3), (((0, 0, 0), (2, 0, 0)), ((0, 2, 2), (2, 2, 2))),
        ((0, 2, "hem"), (2, 0, "zij"), (2, 2, "haar")))
    assert _view(_rows(long), roles)[3] == ((0, 0, "hij"), (0, 299, "hem"))


# --- the views a parse gives ----------------------------------------------

def views_parse(lines, roles=None):
    """The views of the kept documents of ``lines`` and the diagnostics,
    as ``score`` reads them given ``roles``."""
    diagnostics = []
    return ([_view(rows, roles) for rows in _read(lines, diagnostics)],
            diagnostics)


def round_tripped(text):
    """The diagnostics and prediction views of the rows parsed from
    ``text``, as ``score`` reads the prediction."""
    views, diagnostics = views_parse(text.splitlines())
    return diagnostics, views


def scored(gold, views, config, ignore_singletons, macro):
    """The report of ``gold`` against the prediction ``views``, as
    ``score`` computes it."""
    roles = _role_table(config)
    return _evaluate_views([_view(_rows(d), roles) for d in gold.documents],
                           views, ignore_singletons, macro)


def corpus_pairs():
    gold, pred = (parse_corpus(Path(p).read_text("utf-8"))[0]
                  for p in (GOLD, PRED))
    yield gold, pred
    for name in ("e2e.conll", "herstel.conll"):
        corpus = parse_corpus((FIXTURES / name).read_text("utf-8"))[0]
        yield corpus, corpus
        yield corpus, Corpus(tuple(map(resolve, corpus.documents)))
    rng = random.Random(7)
    for _ in range(20):
        documents = [corpusgen.story_document(rng, f"s{i}", rng.randint(1, 12),
                                              rng.randint(1, 4))
                     for i in range(rng.randint(1, 4))]
        yield Corpus(tuple(documents)), Corpus(tuple(
            corpusgen.perturb_clusters(rng, d) for d in documents))


@pytest.mark.parametrize("ignore_singletons", [False, True])
@pytest.mark.parametrize("macro", [False, True])
def test_the_sent_view_scores_what_the_parsed_corpus_scores(ignore_singletons,
                                                            macro):
    config = ClassifierConfig()
    for gold, pred in corpus_pairs():
        diagnostics, views = round_tripped(serialize_corpus(pred))
        assert diagnostics == []
        assert scored(gold, views, config, ignore_singletons,
                      macro) == evaluate(gold, pred, config=config,
                                         ignore_singletons=ignore_singletons,
                                         macro_pronouns=macro)


def test_the_sent_view_agrees_with_the_oracles():
    rng = random.Random(11)
    pairs = [random_pair(rng, f"d{k}") for k in range(40)]
    for texts in RESOLVED.values():
        for gold, resolved in zip(*(parse_corpus(text)[0].documents
                                    for text in texts)):
            pairs += [(gold, gold), (gold, resolved)]
    for gold, pred in pairs:
        views = round_tripped(serialize_corpus(Corpus((pred,)), validate=False))[1]
        report = scored(Corpus((gold,)), views, ClassifierConfig(), False,
                        False)
        assert (report.lea.precision, report.lea.recall,
                report.lea.f1) == pytest.approx(lea_oracle(gold, pred))
        pronouns = report.pronouns
        assert (pronouns.score, pronouns.resolved, pronouns.total,
                pronouns.per_form, pronouns.non_mention,
                pronouns.first_mentions) == naive_pronoun_oracle(gold, pred)


def test_the_view_holds_ids_lengths_and_span_keys_only():
    diagnostics, views = round_tripped(Path(PRED).read_text("utf-8"))
    ((doc_id, lengths, clusters),) = views
    pred = parse_corpus(Path(PRED).read_text("utf-8"))[0].documents[0]
    assert doc_id == pred.id
    assert lengths == tuple(map(len, pred.sentences))
    assert clusters == tuple(
        tuple((m.sentence_index, m.start, m.end) for m in c.mentions)
        for c in pred.clusters)


# --- the rows the parse gives, seen as views and as a tally ------------------

def views_of_the_full_parse(text, config):
    """Assert that the views of the parsed rows, with and without roles,
    and their tally report the diagnostics of ``parse_corpus``, that the
    views are the references of its documents and that the tally counts
    their tokens."""
    try:
        corpus, diagnostics = parse_corpus(text)
        documents = corpus.documents
    except EmptyCorpusError as exc:
        documents, diagnostics = (), exc.diagnostics
    lines = text.splitlines()
    for roles in (None, _role_table(config)):
        views, view_diagnostics = views_parse(lines, roles)
        assert view_diagnostics == diagnostics
        assert views == [reference_view(d, roles) for d in documents]
    tally_diagnostics = []
    tally = _tally(_read(lines, tally_diagnostics))
    assert tally_diagnostics == diagnostics
    # The full parse reads feats "_" as empty.
    read = {}
    for (pos, feats, form), count in tally.items():
        key = pos, "" if feats == "_" else feats, form
        read[key] = read.get(key, 0) + count
    assert read == reference_tally(documents)


@settings(max_examples=150, deadline=None)
@given(text=corpus_texts(), config=st.sampled_from(["default", "good"]))
def test_the_scoring_parse_is_the_full_parse_seen_through_views(text, config):
    config = (ClassifierConfig() if config == "default"
              else ClassifierConfig.from_text(CONFIGS[config]))
    views_of_the_full_parse(text, config)


# --- failure modes -----------------------------------------------------------

@pytest.mark.parametrize("gold", ["missing", "empty"])
def test_a_gold_failure_leaves_the_prediction_unread(tmp_path, monkeypatch,
                                                     gold):
    read = []
    read_text = cli._read_text

    def recording(path):
        read.append(path)
        return read_text(path)

    monkeypatch.setattr(cli, "_read_text", recording)
    if gold == "missing":
        path = str(tmp_path / "missing.conll")
        expected = (f"corefkit: error: [Errno 2] No such file or directory: "
                    f"{path!r}\n")
    else:
        path = "-"
        expected = ("-:1: error: unexpected content outside a document: "
                    "'stray'\ncorefkit: error: no parseable document in "
                    "input\n")
    assert run("score", "--gold", path, "--pred", PRED,
               stdin_text="stray\n") == (2, "", expected)
    assert read == [path]


# --- the CLI against the serial library calls, on hostile pairs -------------

def hostile(draw, rng, lines):
    """``lines`` as they are, or broken in one of the ways the parser
    recovers from."""
    damage = draw(st.sampled_from(["none"] * 5 + ["malformed", "stray",
                                                  "unterminated"]))
    return corpusgen.damaged(lines, damage, rng)


@st.composite
def corpus_pairs_texts(draw):
    """Gold and prediction texts: for each gold document the prediction
    holds it, its resolution or perturbation, its token grid without
    clusters, another grid, another id, or nothing; either side may be
    damaged, reordered or empty."""
    gold_blocks, pred_blocks = [], []
    for _ in range(draw(st.integers(0, 4))):
        doc_id = draw(st.sampled_from("abcd"))
        rng = random.Random(draw(st.integers(0, 2**16)))
        source = draw(st.sampled_from(["story", "random", "fixture"]))
        gold = corpusgen.source_document(
            draw, source, doc_id, rng, st.sampled_from(FIXTURE_DOCUMENTS), 6)
        gold_blocks.append(hostile(draw, rng, lines_of(gold)))
        kind = draw(st.sampled_from(["same", "resolved", "perturbed",
                                     "unclustered"] * 3
                                    + ["regridded", "renamed", "missing"]))
        if kind == "missing":
            continue
        pred = {
            "same": lambda: gold,
            "resolved": lambda: resolve(gold),
            "perturbed": lambda: corpusgen.perturb_clusters(rng, gold),
            "unclustered": lambda: replace(gold, clusters=()),
            "regridded": lambda: corpusgen.story_document(rng, doc_id, 3),
            "renamed": lambda: replace(gold, id=doc_id.upper()),
        }[kind]()
        pred_blocks.append(hostile(draw, rng, lines_of(pred)))
    pred_blocks = draw(st.permutations(pred_blocks))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return tuple(newline.join(line for block in blocks for line in block)
                 + (newline if blocks else "")
                 for blocks in (gold_blocks, pred_blocks))


@pytest.mark.parametrize("argv, stdin_text", [
    (["--gold", GOLD, "--pred", PRED], ""),
    (["--gold", GOLD, "--pred", PRED, "--macro", "--ignore-singletons"], ""),
    (["--gold", GOLD, "--pred", HERSTEL], ""),  # grid mismatch
    (["--gold", HERSTEL, "--pred", PRED], ""),  # ids do not align
    (["--gold", GOLD, "--pred", "-"], "stray\n"),  # empty prediction
    (["--gold", "-", "--pred", "-"], Path(GOLD).read_text("utf-8")),
    (["--gold", GOLD, "--pred", str(FIXTURES)], ""),  # a directory
])
def test_fixed_pairs_report_what_the_serial_calls_report(argv, stdin_text):
    code, out, _, err = reference(["score", *argv], stdin_text)
    assert run("score", *argv, stdin_text=stdin_text) == (code, out, err)


# Weighted so that about a third of the runs score.
@settings(max_examples=200, deadline=None)
@given(texts=corpus_pairs_texts(),
       gold_kind=st.sampled_from(["file"] * 4 + ["-", "missing"]),
       pred_kind=st.sampled_from(["file"] * 6 + ["-", "missing", "directory",
                                                 "not utf-8"]),
       config_kind=st.sampled_from([None] * 3 + ["good"] * 3
                                   + ["bad", "missing"]),
       options=st.sets(st.sampled_from(["--macro", "--ignore-singletons"])),
       output=st.booleans())
def test_score_reports_what_the_serial_calls_report(texts, gold_kind, pred_kind,
                                                    config_kind, options,
                                                    output):
    gold_text, pred_text = texts
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "gold.conll").write_text(gold_text, "utf-8", newline="")
        (tmp / "pred.conll").write_text(pred_text, "utf-8", newline="")
        (tmp / "latin1.conll").write_bytes(pred_text.encode("utf-8") + b"\xff")
        (tmp / "directory").mkdir()
        for name, text in CONFIGS.items():
            (tmp / f"{name}.cfg").write_text(text, "utf-8")
        paths = {"file": None, "-": "-", "missing": str(tmp / "missing.conll"),
                 "directory": str(tmp / "directory"),
                 "not utf-8": str(tmp / "latin1.conll")}
        gold_arg = paths[gold_kind] or str(tmp / "gold.conll")
        pred_arg = paths[pred_kind] or str(tmp / "pred.conll")
        # stdin holds the text of the first side that reads it.
        stdin_text = gold_text if gold_arg == "-" else pred_text
        argv = ["score", "--gold", gold_arg, "--pred", pred_arg, *sorted(options)]
        if config_kind is not None:
            argv += ["--config", str(tmp / f"{config_kind}.cfg")]
        target = tmp / "out" / "score.txt"
        if output:
            argv += ["-o", str(target)]
        before = set(tmp.rglob("*"))

        code, out, err = run(*argv, stdin_text=stdin_text)
        written = ({str(target): target.read_text("utf-8")} if target.exists()
                   else {})
        assert (code, out, written, err) == reference(argv, stdin_text)
        assert set(tmp.rglob("*")) - before <= {target, target.parent}
    assert_no_child_left()


# --- spans held by many clusters -------------------------------------------

def test_many_one_token_clusters_on_one_token_score_in_linear_time(tmp_path):
    """10k one-token clusters on one token, as gold and as prediction:
    LEA's singleton check and the antecedent sweep must not walk every
    cluster of the span once per cluster (100M steps)."""
    n = 10_000
    path = tmp_path / "one-token.conll"
    path.write_text(
        "#begin document one\n"
        "1\thij\thij\tPRON\tCase=Nom|Number=Sing|Person=3|PronType=Prs\t0"
        f"\troot\tO\t{'|'.join(f'({i})' for i in range(n))}\n"
        "#end document\n", "utf-8")
    started = time.perf_counter()
    code, out, err = run("score", "--gold", str(path), "--pred", str(path))
    elapsed = time.perf_counter() - started
    assert (code, err) == (0, "")
    assert "lea_precision=1.000000\nlea_recall=1.000000\n" in out
    assert elapsed < 2.0, elapsed
