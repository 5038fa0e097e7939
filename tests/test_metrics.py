import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkit.errors import AlignmentError
from corefkit.metrics import (_antecedent_hits, _lea_sums, evaluate,
                              format_report, lea, pronoun_score,
                              report_keyvalues)
from corefkit.model import Cluster, Corpus, Document, MentionSpan, Token
from corefkit.transform import classify_pronoun

import corpusgen


# --- independent oracles ---------------------------------------------------

def lea_oracle(gold, pred, ignore_singletons=False):
    """Exact-rational evaluation of the link-based entity-aware metric."""

    def entity_sets(document):
        return [frozenset(c.mentions) for c in document.clusters
                if len(c.mentions) >= 2 or not ignore_singletons]

    def one_side(keys, responses):
        numerator = Fraction(0)
        denominator = 0
        for entity in keys:
            size = len(entity)
            denominator += size
            if size == 1:
                (mention,) = entity
                res = Fraction(int(any(mention in r for r in responses)))
            else:
                hits = sum(math.comb(len(entity & r), 2) for r in responses)
                res = Fraction(hits, math.comb(size, 2))
            numerator += size * res
        return numerator, denominator

    key_sets = entity_sets(gold)
    response_sets = entity_sets(pred)
    recall_num, recall_den = one_side(key_sets, response_sets)
    prec_num, prec_den = one_side(response_sets, key_sets)
    if recall_den == 0 and prec_den == 0:
        return 1.0, 1.0, 1.0
    recall = recall_num / recall_den if recall_den else Fraction(0)
    precision = prec_num / prec_den if prec_den else Fraction(0)
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else Fraction(0))
    return float(precision), float(recall), float(f1)


def naive_pronoun_oracle(gold, pred):
    """Plain rescan of the pronoun score definition."""

    def cluster_of(document, span):
        for cluster in document.clusters:
            if span in cluster.mentions:
                return cluster
        return None

    resolved = total = non_mention = first = 0
    per_form = {}
    for sentence in gold.sentences:
        for tk in sentence:
            if classify_pronoun(tk) is None:
                continue
            span = MentionSpan(tk.sentence_index, tk.token_index, tk.token_index)
            gold_cluster = cluster_of(gold, span)
            if gold_cluster is None:
                non_mention += 1
                continue
            gold_ants = {m for m in gold_cluster.mentions if m < span}
            if not gold_ants:
                first += 1
                continue
            pred_cluster = cluster_of(pred, span)
            pred_ants = ({m for m in pred_cluster.mentions if m < span}
                         if pred_cluster else set())
            hit = bool(gold_ants & pred_ants)
            total += 1
            resolved += hit
            form = tk.form.lower()
            old = per_form.get(form, (0, 0))
            per_form[form] = (old[0] + hit, old[1] + 1)
    score = 100.0 * resolved / total if total else None
    return score, resolved, total, per_form, non_mention, first


def random_pair(rng, doc_id="d"):
    """A gold document with pronoun-bearing clusters plus a perturbed
    prediction over the same grid, occasionally with extra wrinkles."""
    gold = corpusgen.story_document(rng, doc_id, n_sentences=rng.randint(3, 7),
                                    n_entities=rng.randint(1, 3))
    if rng.random() < 0.3:
        # a counted pronoun that is in no gold cluster at all
        si = len(gold.sentences)
        form, pos, feats = corpusgen.PRONOUNS[rng.randrange(4)]
        floating = (Token(si, 0, form, form, pos, feats, None, "dep", "O"),)
        gold = Document(gold.id, gold.sentences + (floating,), gold.clusters)
    if rng.random() < 0.3:
        # drop a first mention, so some pronoun may open its cluster
        rich = [i for i, c in enumerate(gold.clusters) if len(c.mentions) >= 2]
        if rich:
            i = rng.choice(rich)
            clusters = list(gold.clusters)
            clusters[i] = Cluster(clusters[i].id, clusters[i].mentions[1:])
            gold = Document(gold.id, gold.sentences, tuple(clusters))
    return gold, corpusgen.perturb_clusters(rng, gold)


# --- anchor values ---------------------------------------------------------

def test_lea_on_the_worked_fixture(dialogue_gold, dialogue_pred):
    score = lea(dialogue_gold, dialogue_pred)
    assert score.precision == pytest.approx(1.0, abs=1e-9)
    assert score.recall == pytest.approx(0.75, abs=1e-9)
    assert score.f1 == pytest.approx(6 / 7, abs=1e-9)


def test_lea_ignore_singletons_changes_the_fixture_value(dialogue_gold, dialogue_pred):
    score = lea(dialogue_gold, dialogue_pred, ignore_singletons=True)
    assert score.f1 == pytest.approx(5 / 6, abs=1e-9)


def test_lea_identical_documents(dialogue_gold):
    score = lea(dialogue_gold, dialogue_gold)
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_lea_empty_conventions():
    bare = corpusgen.build_doc("e", [[corpusgen.tok("x"), corpusgen.tok("y")]])
    clustered = corpusgen.build_doc("e", [[corpusgen.tok("x"), corpusgen.tok("y")]],
                                    clusters=[[(0, 0, 0), (0, 1, 1)]])
    both_empty = lea(bare, bare)
    assert (both_empty.precision, both_empty.recall, both_empty.f1) == (1.0, 1.0, 1.0)
    gold_empty = lea(bare, clustered)
    assert (gold_empty.precision, gold_empty.recall, gold_empty.f1) == (0.0, 0.0, 0.0)
    pred_empty = lea(clustered, bare)
    assert (pred_empty.precision, pred_empty.recall, pred_empty.f1) == (0.0, 0.0, 0.0)


def test_pronoun_score_on_the_worked_fixture(dialogue_gold, dialogue_pred):
    outcome = pronoun_score(dialogue_gold, dialogue_pred)
    assert outcome.score == 50.0
    assert (outcome.resolved, outcome.total) == (1, 2)
    assert outcome.per_form == {"they": (0, 1), "their": (1, 1)}
    assert outcome.non_mention == 0


def test_pronoun_score_perfect_prediction(dialogue_gold):
    outcome = pronoun_score(dialogue_gold, dialogue_gold)
    assert outcome.score == 100.0
    assert (outcome.resolved, outcome.total) == (2, 2)


def test_pronoun_score_first_mention_excluded():
    pron = corpusgen.tok("hij", pos="PRON",
                         feats="Case=Nom|Number=Sing|Person=3|PronType=Prs")
    doc = corpusgen.build_doc(
        "first", [[pron, corpusgen.tok("ziet"),
                   corpusgen.tok("Anna", ner="PER")]],
        clusters=[[(0, 0, 0), (0, 2, 2)]])
    outcome = pronoun_score(doc, doc)
    assert outcome.score is None
    assert outcome.total == 0
    assert outcome.first_mentions == 1


def test_pronoun_score_non_mention_pronoun_is_flagged():
    prs = "Number=Sing|Person=3|PronType=Prs"
    # "hem" classifies as a pronoun but lies outside every gold cluster
    words = [corpusgen.tok("Anna", ner="PER"), corpusgen.tok("ziet"),
             corpusgen.tok("hem", pos="PRON", feats="Case=Acc|" + prs),
             corpusgen.tok("en"),
             corpusgen.tok("zij", pos="PRON", feats="Case=Nom|" + prs),
             corpusgen.tok("lacht")]
    gold = corpusgen.build_doc("outside", [words],
                               clusters=[[(0, 0, 0), (0, 4, 4)]])
    pred = corpusgen.build_doc("outside", [words],
                               clusters=[[(0, 0, 0), (0, 2, 2), (0, 4, 4)]])
    outcome = pronoun_score(gold, pred)
    assert outcome.non_mention == 1
    assert (outcome.resolved, outcome.total) == (1, 1)
    assert outcome.per_form == {"zij": (1, 1)}


def test_pronoun_scored_through_its_single_token_mention_only():
    pron = corpusgen.tok("zijn", pos="PRON",
                         feats="Number=Sing|Person=3|Poss=Yes|PronType=Prs")
    words = [corpusgen.tok("Bo", ner="PER"), corpusgen.tok("ziet"),
             pron, corpusgen.tok("huis", pos="NOUN")]
    # gold: pronoun cluster {Bo, zijn}; a second entity owns the
    # enclosing "zijn huis" span
    gold = corpusgen.build_doc(
        "nest", [words], clusters=[[(0, 0, 0), (0, 2, 2)], [(0, 2, 3)]])
    # prediction resolves only the enclosing span, not the pronoun
    pred = corpusgen.build_doc(
        "nest", [words], clusters=[[(0, 0, 0), (0, 2, 3)]])
    outcome = pronoun_score(gold, pred)
    assert outcome.score == 0.0
    assert (outcome.resolved, outcome.total) == (0, 1)


def test_grid_mismatch_raises():
    one = corpusgen.build_doc("d", [[corpusgen.tok("a")]])
    two = corpusgen.build_doc("d", [[corpusgen.tok("a"), corpusgen.tok("b")]])
    with pytest.raises(AlignmentError):
        pronoun_score(one, two)


# --- properties ------------------------------------------------------------

def test_lea_matches_the_rational_oracle():
    rng = random.Random(1234)
    for _ in range(120):
        if rng.random() < 0.5:
            gold, pred = random_pair(rng)
        else:
            gold = corpusgen.random_document(rng, "d")
            pred = Document(gold.id, gold.sentences,
                            corpusgen.random_clusters(rng, gold.sentences))
        flag = rng.random() < 0.3
        score = lea(gold, pred, ignore_singletons=flag)
        precision, recall, f1 = lea_oracle(gold, pred, ignore_singletons=flag)
        assert score.precision == pytest.approx(precision, abs=1e-12)
        assert score.recall == pytest.approx(recall, abs=1e-12)
        assert score.f1 == pytest.approx(f1, abs=1e-12)


def test_lea_swaps_precision_and_recall():
    rng = random.Random(77)
    for _ in range(60):
        gold, pred = random_pair(rng)
        forward = lea(gold, pred)
        backward = lea(pred, gold)
        assert backward.precision == pytest.approx(forward.recall, abs=1e-12)
        assert backward.recall == pytest.approx(forward.precision, abs=1e-12)
        assert backward.f1 == pytest.approx(forward.f1, abs=1e-12)


def test_lea_stays_in_bounds():
    rng = random.Random(31)
    for _ in range(60):
        gold, pred = random_pair(rng)
        score = lea(gold, pred)
        for value in (score.precision, score.recall, score.f1):
            assert 0.0 <= value <= 1.0


def assert_pronoun_score_matches_the_oracle(gold, pred):
    outcome = pronoun_score(gold, pred)
    score, resolved, total, per_form, non_mention, first = \
        naive_pronoun_oracle(gold, pred)
    assert outcome.score == score
    assert (outcome.resolved, outcome.total) == (resolved, total)
    assert outcome.per_form == per_form
    assert outcome.non_mention == non_mention
    assert outcome.first_mentions == first


def test_pronoun_score_matches_the_naive_oracle():
    rng = random.Random(4321)
    for _ in range(120):
        gold, pred = random_pair(rng)
        assert_pronoun_score_matches_the_oracle(gold, pred)


def tangled_pair(rng):
    """A ``random_pair`` reworked around its counted pronouns that have
    gold antecedents, each given one of the shapes ``random_pair`` never
    makes. Returns the pair and the shapes applied."""
    gold, pred = random_pair(rng)
    gold_groups = [set(c.mentions) for c in gold.clusters]
    pred_groups = [set(c.mentions) for c in pred.clusters]
    shapes = []
    for span in counted_pronoun_spans(gold):
        home = next((g for g in gold_groups if span in g), None)
        if home is None or span == min(home):
            continue
        shape = rng.choice(("two clusters each", "only later mentions shared",
                            "antecedent elsewhere first", "unpredicted"))
        shapes.append(shape)
        if shape == "two clusters each":
            # "(0)|(1)" on the pronoun's token, in gold and in prediction
            for groups in (gold_groups, pred_groups):
                while sum(span in g for g in groups) < 2:
                    others = [g for g in groups if span not in g]
                    if others and rng.random() < 0.7:
                        rng.choice(others).add(span)
                    else:
                        groups.insert(rng.randrange(len(groups) + 1), {span})
            continue
        # the other shapes start from the pronoun in no predicted cluster,
        # which is all "unpredicted" asks for
        for group in pred_groups:
            group.discard(span)
        if shape == "only later mentions shared":
            later = [m for m in home if m > span]
            pred_groups.insert(0, {span, *rng.sample(later, min(2, len(later)))})
        elif shape == "antecedent elsewhere first":
            # the antecedent's first predicted cluster is another one
            antecedent = rng.choice([m for m in home if m < span])
            if not any(antecedent in g for g in pred_groups):
                pred_groups.insert(0, {antecedent})
            pred_groups.append({antecedent, span})

    def rebuilt(document, groups):
        clusters = tuple(Cluster(i, tuple(sorted(g)))
                         for i, g in enumerate(g for g in groups if g))
        return Document(document.id, document.sentences, clusters)

    return rebuilt(gold, gold_groups), rebuilt(pred, pred_groups), shapes


def test_pronoun_score_matches_the_oracle_on_tangled_clusters():
    rng = random.Random(4322)
    shapes = Counter()
    for _ in range(150):
        gold, pred, applied = tangled_pair(rng)
        shapes.update(applied)
        assert_pronoun_score_matches_the_oracle(gold, pred)
    assert len(shapes) == 4 and min(shapes.values()) >= 20, shapes


def test_per_form_counts_sum_to_the_totals():
    rng = random.Random(55)
    for _ in range(60):
        gold, pred = random_pair(rng)
        outcome = pronoun_score(gold, pred)
        assert sum(r for r, _ in outcome.per_form.values()) == outcome.resolved
        assert sum(t for _, t in outcome.per_form.values()) == outcome.total


def counted_pronoun_spans(document):
    return [MentionSpan(tk.sentence_index, tk.token_index, tk.token_index)
            for tk in document.tokens() if classify_pronoun(tk) is not None]


def test_adding_a_correct_antecedent_never_lowers_the_score():
    rng = random.Random(87)
    checked = 0
    while checked < 60:
        gold, pred = random_pair(rng)
        before = pronoun_score(gold, pred)
        if before.total == 0:
            continue
        # pick a counted pronoun and push one of its gold antecedents
        # into its predicted cluster
        target = None
        for span in counted_pronoun_spans(gold):
            gold_cluster = next((c for c in gold.clusters
                                 if span in c.mentions), None)
            if gold_cluster is None:
                continue
            gold_ants = [m for m in gold_cluster.mentions if m < span]
            if gold_ants:
                target = (span, rng.choice(gold_ants))
                break
        if target is None:
            continue
        span, antecedent = target
        clusters = list(pred.clusters)
        home = next((i for i, c in enumerate(clusters) if span in c.mentions),
                    None)
        if home is None:
            clusters.append(Cluster(len(clusters), (antecedent, span)))
        elif antecedent not in clusters[home].mentions:
            merged = tuple(sorted(set(clusters[home].mentions) | {antecedent}))
            clusters[home] = Cluster(clusters[home].id, merged)
        better = Document(pred.id, pred.sentences, tuple(clusters))
        after = pronoun_score(gold, better)
        assert after.score >= before.score
        checked += 1


def test_changes_that_preserve_antecedent_sets_change_nothing():
    rng = random.Random(88)
    for _ in range(60):
        gold, pred = random_pair(rng)
        before = pronoun_score(gold, pred)
        # the final punctuation token follows every pronoun, so adding
        # its span to a predicted cluster alters no antecedent set
        last_sentence = len(gold.sentences) - 1
        tail = MentionSpan(last_sentence, len(gold.sentences[-1]) - 1,
                           len(gold.sentences[-1]) - 1)
        if any(tail <= span for span in counted_pronoun_spans(gold)):
            continue
        clusters = [Cluster(c.id, tuple(sorted(set(c.mentions) | {tail})))
                    if i == 0 else c
                    for i, c in enumerate(pred.clusters)]
        clusters.append(Cluster(len(pred.clusters) + 17, (tail,)))
        changed = Document(pred.id, pred.sentences, tuple(clusters))
        assert pronoun_score(gold, changed) == before


# --- corpus level ----------------------------------------------------------

def test_evaluate_micro_pools_documents():
    rng = random.Random(301)
    pairs = [random_pair(rng, f"doc{i}") for i in range(4)]
    gold = Corpus(tuple(g for g, _ in pairs))
    pred = Corpus(tuple(p for _, p in pairs))
    report = evaluate(gold, pred)
    assert report.documents == 4

    resolved = sum(pronoun_score(g, p).resolved for g, p in pairs)
    total = sum(pronoun_score(g, p).total for g, p in pairs)
    assert report.pronouns.resolved == resolved
    assert report.pronouns.total == total
    if total:
        assert report.pronouns.score == pytest.approx(100.0 * resolved / total)

    # LEA pools link sums, not per-document scores
    merged_gold = _concat_documents([g for g, _ in pairs])
    merged_pred = _concat_documents([p for _, p in pairs])
    pooled = lea(merged_gold, merged_pred)
    assert report.lea.precision == pytest.approx(pooled.precision, abs=1e-12)
    assert report.lea.recall == pytest.approx(pooled.recall, abs=1e-12)


def _concat_documents(documents):
    """Stack documents into one grid so entity sets simply unite."""
    sentences = []
    clusters = []
    offset = 0
    next_id = 0
    for document in documents:
        for sentence in document.sentences:
            sentences.append(tuple(
                Token(offset + tk.sentence_index, tk.token_index, tk.form,
                      tk.lemma, tk.pos, tk.feats, tk.dep_head, tk.dep_rel,
                      tk.ner)
                for tk in sentence))
        for cluster in document.clusters:
            moved = tuple(MentionSpan(m.sentence_index + offset, m.start, m.end)
                          for m in cluster.mentions)
            clusters.append(Cluster(next_id, moved))
            next_id += 1
        offset += len(document.sentences)
    return Document("merged", tuple(sentences), tuple(clusters))


def test_evaluate_single_document_equals_document_operations():
    rng = random.Random(302)
    gold_doc, pred_doc = random_pair(rng)
    report = evaluate(Corpus((gold_doc,)), Corpus((pred_doc,)))
    assert report.lea == lea(gold_doc, pred_doc)
    assert report.pronouns == pronoun_score(gold_doc, pred_doc)


def _doc_with_pronouns(doc_id, n_pronouns, n_resolved):
    pron = "Case=Nom|Number=Sing|Person=3|PronType=Prs"
    specs = [corpusgen.tok("Anna", ner="PER")]
    for _ in range(n_pronouns):
        specs += [corpusgen.tok("hij", pos="PRON", feats=pron),
                  corpusgen.tok("loopt")]
    positions = [1 + 2 * i for i in range(n_pronouns)]
    gold_cluster = [(0, 0, 0)] + [(0, p, p) for p in positions]
    gold = corpusgen.build_doc(doc_id, [specs], clusters=[gold_cluster])
    pred_cluster = [(0, 0, 0)] + [(0, p, p) for p in positions[:n_resolved]]
    pred = corpusgen.build_doc(doc_id, [specs], clusters=[pred_cluster])
    return gold, pred


def test_macro_and_micro_pronoun_averaging_differ():
    gold_a, pred_a = _doc_with_pronouns("a", 1, 1)   # 1/1 resolved
    gold_b, pred_b = _doc_with_pronouns("b", 3, 0)   # 0/3 resolved
    gold = Corpus((gold_a, gold_b))
    pred = Corpus((pred_a, pred_b))
    micro = evaluate(gold, pred)
    macro = evaluate(gold, pred, macro_pronouns=True)
    assert micro.pronouns.score == pytest.approx(25.0)
    assert macro.pronouns.score == pytest.approx(50.0)
    # counts are reported the same way in both modes
    assert macro.pronouns.resolved == micro.pronouns.resolved == 1
    assert macro.pronouns.total == micro.pronouns.total == 4


def test_evaluate_alignment_error_lists_ids():
    a = corpusgen.build_doc("a", [[corpusgen.tok("x")]])
    b = corpusgen.build_doc("b", [[corpusgen.tok("x")]])
    c = corpusgen.build_doc("c", [[corpusgen.tok("x")]])
    with pytest.raises(AlignmentError) as excinfo:
        evaluate(Corpus((a, b)), Corpus((a, c)))
    assert "b" in str(excinfo.value)
    assert "c" in str(excinfo.value)


# --- rendering -------------------------------------------------------------

def test_format_report_fixture_values(dialogue_gold, dialogue_pred):
    report = evaluate(Corpus((dialogue_gold,)), Corpus((dialogue_pred,)))
    text = format_report(report)
    assert "0.857143" in text
    assert "50.00" in text
    assert "(resolved 1/2)" in text
    assert "their" in text and "0/1" in text


def test_format_report_undefined_score():
    doc = corpusgen.build_doc("q", [[corpusgen.tok("stil")]])
    report = evaluate(Corpus((doc,)), Corpus((doc,)))
    assert "undefined" in format_report(report)
    assert "pronoun_score=NA" in report_keyvalues(report)


def test_report_keyvalues_block(dialogue_gold, dialogue_pred):
    report = evaluate(Corpus((dialogue_gold,)), Corpus((dialogue_pred,)))
    lines = report_keyvalues(report).splitlines()
    assert "documents=1" in lines
    assert "lea_f1=0.857143" in lines
    assert "pronoun_score=50.00" in lines
    assert "pronoun_form_they=0/1" in lines
    assert "pronoun_form_their=1/1" in lines


def test_evaluate_classifies_each_pos_feats_pair_once(monkeypatch):
    import corefkit.transform

    rng = random.Random(17)
    corpus = Corpus(tuple(corpusgen.story_document(rng, f"s{i}", 8)
                          for i in range(12)))
    calls = []

    def counting(token, config):
        calls.append((token.pos, token.feats))
        return classify_pronoun(token, config)

    monkeypatch.setattr(corefkit.transform, "classify_pronoun", counting)
    report = evaluate(corpus, corpus)
    pairs = {(t.pos, t.feats) for d in corpus.documents for t in d.tokens()}
    assert sorted(calls) == sorted(pairs)
    # Every document holds pronouns, so one table per document would
    # classify some pairs again.
    assert report.pronouns.total > 0
    assert sum(len({(t.pos, t.feats) for t in d.tokens()})
               for d in corpus.documents) > len(pairs)


def test_lea_sums_over_every_entity_of_the_other_side():
    """n identical two-mention clusters on both sides: each resolves all
    n of the other side's, so precision and recall read n, as in the
    oracle."""
    sentence = tuple(Token(0, i, "w") for i in range(2))
    pair = (MentionSpan(0, 0, 0), MentionSpan(0, 1, 1))
    document = Document("d", (sentence,),
                        tuple(Cluster(i, pair) for i in range(3)))
    score = lea(document, document)
    assert (score.precision, score.recall) == (3.0, 3.0)
    assert (score.precision, score.recall, score.f1) == pytest.approx(
        lea_oracle(document, document))


# --- the scoring loops against the loops they replaced -----------------------

def reference_resolution_sums(entities_a, entities_b):
    membership = {}
    for j, entity in enumerate(entities_b):
        for mention in entity:
            membership.setdefault(mention, []).append(j)
    numerator = 0.0
    denominator = 0
    overlap = {}
    for entity in entities_a:
        size = len(entity)
        denominator += size
        overlap.clear()
        for mention in entity:
            for j in membership.get(mention, ()):
                overlap[j] = overlap.get(j, 0) + 1
        if size == 1:
            resolution = 1.0 if overlap else 0.0
        else:
            common = 0
            for count in overlap.values():
                common += count * (count - 1) // 2
            resolution = common / (size * (size - 1) // 2)
        numerator += size * resolution
    return numerator, denominator


def reference_lea_sums(gold, pred, ignore_singletons):
    ids = {}

    def interned(sets):
        return [[ids.setdefault(key, len(ids)) for key in entity]
                for entity in sets
                if len(entity) >= 2 or not ignore_singletons]

    gold_ids = interned(gold[2])
    pred_ids = interned(pred[2])
    return (*reference_resolution_sums(gold_ids, pred_ids),
            *reference_resolution_sums(pred_ids, gold_ids))


def reference_antecedent_hits(gold, pred):
    pred_positions = {}
    for q, cluster in enumerate(pred[2]):
        for k, span in enumerate(cluster):
            positions = pred_positions.setdefault(span, [])
            if not positions or positions[-1][0] != q:
                positions.append((q, k))
    hits = {}
    for cluster in gold[2]:
        lowest = {}
        for i, span in enumerate(cluster):
            positions = pred_positions.get(span, ())
            if span not in hits:
                if i == 0:
                    hits[span] = None
                elif positions:
                    q, j = positions[0]
                    hits[span] = lowest.get(q, j) < j
                else:
                    hits[span] = False
            for q, k in positions:
                if k < lowest.get(q, k + 1):
                    lowest[q] = k
    return hits


# Six spans of a two-sentence document, so drawn clusters share them.
SHARED_SPANS = [(0, 0, 0), (0, 1, 1), (0, 0, 2), (0, 2, 2), (1, 0, 0),
                (1, 0, 1)]


@st.composite
def shared_span_views(draw):
    """A prediction view whose clusters draw from :data:`SHARED_SPANS`,
    each span at most once per cluster, in document order or not."""
    clusters = []
    for _ in range(draw(st.integers(0, 8))):
        spans = draw(st.lists(st.sampled_from(SHARED_SPANS), min_size=1,
                              max_size=5, unique=True))
        clusters.append(tuple(sorted(spans) if draw(st.booleans())
                              else spans))
    return "d", (3, 2), tuple(clusters)


@settings(max_examples=400, deadline=None)
@given(gold=shared_span_views(), pred=shared_span_views())
def test_scoring_loops_compute_what_the_replaced_loops_computed(gold, pred):
    for ignore_singletons in (False, True):
        assert _lea_sums(gold, pred, ignore_singletons) == reference_lea_sums(
            gold, pred, ignore_singletons)
    assert _antecedent_hits(gold, pred) == reference_antecedent_hits(gold, pred)


@st.composite
def repeating_span_views(draw):
    """A prediction view whose clusters draw from :data:`SHARED_SPANS`
    and may list a span twice, which only a library document can do."""
    clusters = tuple(tuple(draw(st.lists(st.sampled_from(SHARED_SPANS),
                                         min_size=1, max_size=5)))
                     for _ in range(draw(st.integers(0, 8))))
    return "d", (3, 2), clusters


@settings(max_examples=400, deadline=None)
@given(gold=repeating_span_views(), pred=repeating_span_views())
def test_lea_sums_of_entities_listing_a_span_twice(gold, pred):
    for ignore_singletons in (False, True):
        assert _lea_sums(gold, pred, ignore_singletons) == reference_lea_sums(
            gold, pred, ignore_singletons)
